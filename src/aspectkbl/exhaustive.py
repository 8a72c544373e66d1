"""Exhaustive obligation checking over the reachable state space.

An obligation AG [pattern] pred holds when every reachable transition
whose label matches the pattern satisfies pred under the matching
substitution.  Quantifiers in pred range over the location constants
of the two states joined by the transition; test consults the state
before the step and test' the state after it.  `check_lts` matches
each distinct label against the pattern, and instantiates the
predicate for it, once per call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Label, LabelPattern, Net, Obligation, Substitution, loc_set
from .semantics import (LTS, TRUE, StateDomain, build_lts, data_index,
                        pred_values)
from .unification import extract, findsubs


def unify_label(pattern: LabelPattern, label: Label) -> Optional[Substitution]:
    if pattern.cap != label.cap:
        return None
    return findsubs(extract(pattern), extract(label))


def sat_pred(pair, theta: Substitution, pred) -> bool:
    """Satisfaction of a predicate on a transition's state pair, under
    the substitution that matched the obligation's pattern."""
    pre, post = pair
    return pred_values(theta.apply_pred(pred),
                       StateDomain(data_index(pre), data_index(post)),
                       sorted(loc_set(pre) | loc_set(post))) == TRUE


@dataclass(frozen=True)
class Witness:
    path: tuple              # labels of a shortest run to the failing step
    label: Label             # the failing step itself
    theta: Substitution
    pred: object             # the instantiated predicate that came out false


@dataclass(frozen=True)
class Verdict:
    obligation: Obligation
    holds: bool
    witness: Optional[Witness]
    states_explored: int
    transitions_checked: int


def _path_to(lts: LTS, sid: int):
    # breadth first search found every state first along a shortest path
    labels = []
    while lts.discovered_by[sid] is not None:
        t = lts.discovered_by[sid]
        labels.append(t.label)
        sid = t.src
    return tuple(reversed(labels))


def check_lts(lts: LTS, obl: Obligation) -> Verdict:
    """Check an obligation against an already built transition system."""
    checked = 0
    seen: dict = {}          # state id -> (data index, location constants)
    matched: dict = {}       # label -> (theta, instantiated pred) or None

    def state(sid):
        if sid not in seen:
            ids = lts.ids[sid]
            seen[sid] = (lts.space.data_index(ids), lts.space.constants(ids))
        return seen[sid]

    for t in lts.transitions:
        checked += 1
        m = matched.get(t.label, False)
        if m is False:
            th = unify_label(obl.cut, t.label)
            m = matched[t.label] = None if th is None \
                else (th, th.apply_pred(obl.pred))
        if m is None:
            continue
        th, pred = m
        (pre, pre_locs), (post, post_locs) = state(t.src), state(t.dst)
        if pred_values(pred, StateDomain(pre, post),
                       sorted(pre_locs | post_locs)) != TRUE:
            witness = Witness(_path_to(lts, t.src), t.label, th, pred)
            return Verdict(obl, False, witness, len(lts.states), checked)
    return Verdict(obl, True, None, len(lts.states), checked)


def sat_obl(net: Net, obl: Obligation, max_states: int = 100000,
            max_depth: int = 10000) -> Verdict:
    """Build the transition system and check the obligation on it."""
    lts = build_lts(net, max_states=max_states, max_depth=max_depth)
    return check_lts(lts, obl)
