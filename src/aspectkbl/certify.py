"""Per-action static certification of obligations.

Instead of exploring the state space, every action occurring
syntactically in the network is judged on its own:

  CertifiedIrrelevant    the obligation's pattern can never match a
                         firing of this action
  CertifiedDenied        the policies can never let this action fire
  CertifiedByEntailment  whenever the action fires, the obligation's
                         predicate is satisfied
  NotCertified           none of the above could be established

The network is certified when no action is NotCertified.  The
analysis is sound but incomplete: a certified network satisfies the
obligation on every run, a NotCertified action only means the fast
route gave up and the exhaustive checker should decide.

The certifier is the explorer's evaluator, `semantics.policy_values`
and `semantics.pred_values`, run in an abstract value domain: an
abstract interpretation of the same semantics.  The explorer runs it
in one state, where every value set is a singleton.  Here the domain
is `MutationInfo`, whose leaves take every value they may have in any
reachable state, since the truth of a test atom changes over time.
Location entries are never created at fresh locations and constants
never appear out of thin air, so each leaf's set holds its value in
every reachable state, and as each operator is lifted pointwise, so
does the set of every policy and predicate.

When an aspect's trap applies to every firing of the action, its
condition definitely holds and its recommendation is a ground test
atom combined into the policy purely by knowledge joins, then the
action can only fire in states where that test succeeds.  These sure
atoms, reported as constraints, refine the domain in which the
action's predicate is read: a `test` of one reads tt.  That is sound
because policies and `test` read the state before the step, where a
sure atom holds at every firing.  `test'` reads the state after it,
which the action itself may change (an in may take the very tuple its
guard tested), so `test'` is not refined.

The domain notes every test atom it is asked, and `check_network`
returns it with its verdict.  The partial-order reduction of
exhaustive.py reads in it which tuples an action's policies and the
obligation's predicate may read, so the certifier and the reduced
search share this one abstract domain.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from .belnap import FF, GRANTS, LIFTED, TT, names
from .model import (Action, CAP_LETTER, Const, ETest, Net, Obligation, OUT, IN,
                    ReplicationPresent, Substitution, canonicalize,
                    has_replication, loc_set, take_actions)
from .semantics import (data_index, ground_atom, numeral, occurs_in,
                        policies_by_location, policy_values, pred_values,
                        truth)
from .unification import extract, findsubs

IRRELEVANT = "CertifiedIrrelevant"
DENIED = "CertifiedDenied"
ENTAILED = "CertifiedByEntailment"
NOT_CERTIFIED = "NotCertified"

ANY = None                   # a location or tuple position of unknown name


def _name(t):
    return t.name if isinstance(t, Const) else ANY


def _atom(a) -> tuple:
    # the (location, tuple) template an action's target and arguments name
    return _name(a.target), tuple(map(_name, a.args))


def _meet(atom, other) -> bool:
    # may two (location, tuple) templates name the same tuple
    (at, args), (at2, args2) = atom, other
    return (len(args) == len(args2) and (at is ANY or at2 is ANY or at == at2)
            and all(a is ANY or b is ANY or a == b
                    for a, b in zip(args, args2)))


def _meets(atoms, others) -> bool:
    return any(_meet(a, b) for a in atoms for b in others)


class MutationInfo:
    """Which data tuples the network holds at the start, and which its
    actions may add or remove.

    This is the certifier's value domain.  A test may take any value
    its tuple can have on some run: tt when the tuple is present at the
    start and no input may remove it, ff when it is absent and no
    output may add it, and else both.  A term that is not a constant
    stands for a value not known before the run, so an atom over one
    takes both values, and a refuted occurs-in stays refuted.  The
    domain `refined` by the sure test atoms of an action reads tt for
    a `test` of one of them, though not for a `test'`.

    Every test atom the domain is asked is noted in `asked`, as a
    (location, tuple) template with ANY for a name not known before
    the run, so an evaluation in it names every atom the concrete
    evaluation may read.  A refined domain notes into the same set.
    """

    exact = False

    def __init__(self, net: Net):
        self.initial = data_index(net)      # the tuples present at the start
        self.sure = frozenset()             # tuples present at every firing
        self.asked: set = set()             # the test atoms asked so far
        self.actions = take_actions(net)
        # the (location, tuple) templates the outs and the ins write
        self._outs = {_atom(la.action) for la in self.actions
                      if la.action.cap == OUT}
        self._ins = {_atom(la.action) for la in self.actions
                     if la.action.cap == IN}

    def refined(self, atoms) -> "MutationInfo":
        """The domain at the firings of an action where the test atoms,
        as `might_grant` collects them, hold."""
        known = copy.copy(self)
        known.sure = frozenset(atoms)
        return known

    def may_add(self, at: str, values) -> bool:
        return _meets(self._outs, ((at, values),))

    def may_remove(self, at: str, values) -> bool:
        return _meets(self._ins, ((at, values),))

    def equal(self, left, right) -> int:
        if isinstance(left, Const) and isinstance(right, Const):
            return truth(left.name == right.name)
        return TT | FF

    def geq(self, left, right) -> int:
        l, r = numeral(left), numeral(right)
        if l is None or r is None:
            return TT | FF
        return truth(l >= r)

    def test(self, args, at, post=None) -> int:
        self.asked.add((_name(at), tuple(map(_name, args))))
        atom = ground_atom(args, at)
        if atom is None:
            return TT | FF
        if not post and atom in self.sure:
            return TT
        if atom in self.initial:
            return TT | FF if self.may_remove(*atom) else TT
        return TT | FF if self.may_add(*atom) else FF

    def occurs(self, action, continuation) -> int:
        if occurs_in(action, continuation):
            return TT | FF
        # grounding a template only removes matches, never adds one
        return FF


@dataclass(frozen=True)
class MightGrant:
    constraints: tuple       # (location, tuple) atoms sure at any firing
    values: int              # the set of every value this side may produce


def might_grant(pol, act, mut: MutationInfo) -> MightGrant:
    """Abstract verdict of one policy side for a located action: the
    test atoms guaranteed at any firing, and the set of values it may
    take."""
    sure: list = []
    values = policy_values(pol, act.source, act.action, act.continuation, mut,
                           sure)
    constraints = tuple(filter(None, (ground_atom(e.args, e.at) for e in sure
                                      if isinstance(e, ETest))))
    return MightGrant(constraints, values)


# ---------------------------------------------------------------------------
# the per-action pipeline

@dataclass(frozen=True)
class ActionReport:
    source: str
    action: Action
    outcome: str
    theta0: Optional[Substitution] = None
    constraints: tuple = ()
    side_values: tuple = ()       # (source set, target set) when computed


@dataclass(frozen=True)
class StaticVerdict:
    certified: bool
    actions: tuple
    domain: MutationInfo     # the domain the actions were judged in


def check_single_action(obl: Obligation, act, pols: dict, mut: MutationInfo,
                        domain: list) -> ActionReport:
    """Judge one located action; pols maps each location to its policy
    and domain holds the location constants of the network."""
    if CAP_LETTER[act.action.cap] != obl.cut.cap:
        return ActionReport(act.source, act.action, IRRELEVANT)
    th0 = findsubs(extract(obl.cut), extract(act))
    if th0 is None:
        return ActionReport(act.source, act.action, IRRELEVANT)
    act0 = th0.apply_located(act)
    tgt = act0.action.target
    if not isinstance(tgt, Const):
        return ActionReport(act.source, act.action, NOT_CERTIFIED, th0)
    if tgt.name not in pols:
        # entries are never created at fresh locations, so an action
        # aimed at a location without one can never fire
        return ActionReport(act.source, act.action, IRRELEVANT, th0)
    src = might_grant(act.policy, act0, mut)
    tgt_side = might_grant(pols[tgt.name], act0, mut)
    sides = (src.values, tgt_side.values)
    if not LIFTED["oplus"][src.values][tgt_side.values] & GRANTS:
        return ActionReport(act.source, act.action, DENIED, th0,
                            side_values=sides)
    constraints = src.constraints + tgt_side.constraints
    values = pred_values(th0.apply_expr(obl.pred), mut.refined(constraints),
                         domain)
    return ActionReport(act.source, act.action,
                        NOT_CERTIFIED if values & FF else ENTAILED, th0,
                        constraints=constraints, side_values=sides)


def check_network(net: Net, obl: Obligation) -> StaticVerdict:
    """Certify every syntactic action of the network, without building
    any part of the transition system."""
    if has_replication(net):
        raise ReplicationPresent(
            "replication is outside the checkable fragment")
    net = canonicalize(net)
    mut = MutationInfo(net)
    pols, domain = policies_by_location(net), sorted(loc_set(net))
    reports = tuple(check_single_action(obl, act, pols, mut, domain)
                    for act in mut.actions)
    certified = all(r.outcome != NOT_CERTIFIED for r in reports)
    return StaticVerdict(certified, reports, mut)


def constraint_text(atom: tuple) -> str:
    at, values = atom
    return f"test({', '.join(values)})@{at}"


def report_json(report: StaticVerdict, explain: bool = False) -> dict:
    from .parser import render_action
    actions = []
    for r in report.actions:
        entry = {
            "source_loc": r.source,
            "action_text": render_action(r.action),
            "outcome": r.outcome,
        }
        if r.theta0 is not None:
            entry["theta0"] = repr(r.theta0)
        entry["constraints"] = [constraint_text(c) for c in r.constraints]
        if explain and r.side_values:
            src, tgt = r.side_values
            entry["source_values"] = names(src)
            entry["target_values"] = names(tgt)
        actions.append(entry)
    return {"certified": report.certified, "actions": actions}
