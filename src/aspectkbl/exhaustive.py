"""Exhaustive obligation checking over the reachable state space.

An obligation AG [pattern] pred holds when every reachable transition
whose label matches the pattern satisfies pred under the matching
substitution.  Quantifiers in pred range over the location constants
of the two states joined by the transition; test consults the state
before the step and test' the state after it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import (Const, EvaluationError, Label, LabelPattern, Net,
                    Obligation, PAnd, PEqual, PExists, PFalse, PForall, PGeq,
                    PNot, POr, PTest, PTestPost, PTrue, Substitution, loc_set)
from .semantics import LTS, build_lts, data_index, interp_test
from .unification import extract, findsubs


def unify_label(pattern: LabelPattern, label: Label) -> Optional[Substitution]:
    if pattern.cap != label.cap:
        return None
    return findsubs(extract(pattern), extract(label))


def _name(t, what: str) -> str:
    if isinstance(t, Const):
        return t.name
    raise EvaluationError(f"unbound variable in {what}: {t!r}")


def _numeric(t) -> int:
    if isinstance(t, Const) and t.name.isdigit():
        return int(t.name)
    raise EvaluationError(f"not a numeric constant: {t!r}")


def sat_bp(pair, theta: Substitution, bp) -> bool:
    """Satisfaction of one basic predicate on a transition's state pair."""
    pre, post = pair
    return _sat(theta.apply_pred(bp), data_index(pre), data_index(post),
                sorted(loc_set(pre) | loc_set(post)))


def sat_pred(pair, theta: Substitution, pred) -> bool:
    """Satisfaction of a predicate on a transition's state pair, under
    the substitution that matched the obligation's pattern."""
    pre, post = pair
    return _sat(theta.apply_pred(pred), data_index(pre), data_index(post),
                sorted(loc_set(pre) | loc_set(post)))


def _sat(pred, pre, post, domain) -> bool:
    # pre and post are the data indexes of the states around the step
    if isinstance(pred, PTrue):
        return True
    if isinstance(pred, PFalse):
        return False
    if isinstance(pred, PNot):
        return not _sat(pred.body, pre, post, domain)
    if isinstance(pred, PAnd):
        return (_sat(pred.left, pre, post, domain)
                and _sat(pred.right, pre, post, domain))
    if isinstance(pred, POr):
        return (_sat(pred.left, pre, post, domain)
                or _sat(pred.right, pre, post, domain))
    if isinstance(pred, PForall):
        return all(_sat(_bind(pred.var, l, pred.body), pre, post, domain)
                   for l in domain)
    if isinstance(pred, PExists):
        return any(_sat(_bind(pred.var, l, pred.body), pre, post, domain)
                   for l in domain)
    if isinstance(pred, PEqual):
        return _name(pred.left, "equality") == _name(pred.right, "equality")
    if isinstance(pred, PGeq):
        return _numeric(pred.left) >= _numeric(pred.right)
    if isinstance(pred, (PTest, PTestPost)):
        if not all(isinstance(t, Const) for t in pred.args) \
                or not isinstance(pred.at, Const):
            return False
        data = post if isinstance(pred, PTestPost) else pre
        return interp_test([t.name for t in pred.args], pred.at.name, data)
    raise TypeError(f"not a predicate: {pred!r}")


def _bind(var: str, loc: str, body):
    return Substitution(((var, Const(loc)),)).apply_pred(body)


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

    def state(sid):
        if sid not in seen:
            ids = lts.ids[sid]
            seen[sid] = (lts.space.data_index(ids), lts.space.constants(ids))
        return seen[sid]

    for t in lts.transitions:
        checked += 1
        th = unify_label(obl.cut, t.label)
        if th is None:
            continue
        pred = th.apply_pred(obl.pred)
        (pre, pre_locs), (post, post_locs) = state(t.src), state(t.dst)
        if not _sat(pred, pre, post, sorted(pre_locs | post_locs)):
            witness = Witness(_path_to(lts, t.src), t.label, th, pred)
            return Verdict(obl, False, witness, len(lts.states), checked)
    return Verdict(obl, True, None, len(lts.states), checked)


def sat_obl(net: Net, obl: Obligation, max_states: int = 100000,
            max_depth: int = 10000) -> Verdict:
    """Build the transition system and check the obligation on it."""
    lts = build_lts(net, max_states=max_states, max_depth=max_depth)
    return check_lts(lts, obl)
