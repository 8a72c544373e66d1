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

The domain notes every test atom it is asked, as a `semantics.template`,
and `check_network` returns it with its verdict.  The partial-order
reduction of exhaustive.py, given that verdict, notes in a copy of the
domain with an `asked` of its own which tuples an action's policies
and the obligation's predicate may read, so the certifier and the
reduced search share this one abstract domain, and a check certifies
once.

Role-based networks run one process at many locations, and the parser
makes entries whose bodies read the same share one body node.  So the
work that does not depend on where an action sits is done once per
distinct body and action object: `take_actions` walks each distinct
body once, the domain takes the out and in templates of each distinct
action once, and `report_json` renders each distinct action once.
Each located action is still judged on its own, as its location binds
the pattern's subject.  The range of the predicate's quantifiers, the
network's location constants, is collected only when the predicate
quantifies, and a net that `canonicalize` made, as `parse_net`
returns it, is not sorted again.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .belnap import FF, GRANTS, LIFTED, TT, names
from .model import (Action, CAP_LETTER, Const, ETest, Net, Obligation, OUT, IN,
                    ReplicationPresent, Substitution, canonicalize,
                    has_replication, loc_set, take_actions)
from .parser import render_action
from .semantics import (ANY, data_index, ground_atom, meets, numeral,
                        occurs_in, policies_by_location, policy_values,
                        pred_values, quantified, template, truth)
from .unification import findsubs

IRRELEVANT = "CertifiedIrrelevant"
DENIED = "CertifiedDenied"
ENTAILED = "CertifiedByEntailment"
NOT_CERTIFIED = "NotCertified"


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

    Every test atom the domain is asked is noted in `asked`, as its
    `template`, so an evaluation in it names every atom the concrete
    evaluation may read.  A refined domain notes into the same set.
    """

    __slots__ = ("initial", "sure", "asked", "actions", "_outs", "_ins")
    exact = False

    def __init__(self, net: Net):
        self.initial = data_index(net)      # the tuples present at the start
        self.sure = frozenset()             # tuples present at every firing
        self.asked: set = set()             # the test atoms asked so far
        self.actions = take_actions(net)
        # the (location, tuple) templates the outs and the ins write,
        # taken once per action object, which entries sharing a body share
        distinct = {id(la.action): la.action for la in self.actions}.values()
        self._outs = {template(a.args, a.target)
                      for a in distinct if a.cap == OUT}
        self._ins = {template(a.args, a.target)
                     for a in distinct if a.cap == IN}

    def sharing(self, sure: frozenset, asked: set) -> "MutationInfo":
        """The domain over the same tuples and actions, with sure for
        the tuples present at every firing, noting into asked."""
        known = object.__new__(MutationInfo)
        known.initial, known.actions = self.initial, self.actions
        known._outs, known._ins = self._outs, self._ins
        known.sure, known.asked = sure, asked
        return known

    def refined(self, atoms) -> "MutationInfo":
        """The domain at the firings of an action where the test atoms,
        as `might_grant` collects them, hold."""
        return self.sharing(frozenset(atoms), self.asked)

    def may_add(self, at: str, values) -> bool:
        return meets(self._outs, ((at, values),))

    def may_remove(self, at: str, values) -> bool:
        return meets(self._ins, ((at, values),))

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
        atom = template(args, at)
        self.asked.add(atom)
        if atom[0] is ANY or ANY in atom[1]:
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


class MightGrant(NamedTuple):
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

class ActionReport(NamedTuple):
    source: str
    action: Action
    outcome: str
    theta0: Optional[Substitution] = None
    constraints: tuple = ()
    side_values: tuple = ()       # (source set, target set) when computed


class StaticVerdict(NamedTuple):
    certified: bool
    actions: tuple
    domain: MutationInfo     # the domain the actions were judged in


def check_single_action(obl: Obligation, act, pols: dict, mut: MutationInfo,
                        domain: list) -> ActionReport:
    """Judge one located action; pols maps each location to its policy
    and domain holds the location constants of the network."""
    if CAP_LETTER[act.action.cap] != obl.cut.cap:
        return ActionReport(act.source, act.action, IRRELEVANT)
    th0 = findsubs((obl.cut.subject, *obl.cut.args, obl.cut.target),
                   (Const(act.source), *act.action.args, act.action.target))
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
    values = pred_values(th0.apply(obl.pred), mut.refined(constraints),
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
    pols = policies_by_location(net)
    # a predicate without quantifiers never reads the range
    domain = sorted(loc_set(net)) if quantified(obl.pred) else ()
    reports = tuple(check_single_action(obl, act, pols, mut, domain)
                    for act in mut.actions)
    certified = all(r.outcome != NOT_CERTIFIED for r in reports)
    return StaticVerdict(certified, reports, mut)


def constraint_text(atom: tuple) -> str:
    at, values = atom
    return f"test({', '.join(values)})@{at}"


def report_json(report: StaticVerdict, explain: bool = False) -> dict:
    actions = []
    texts: dict = {}        # id of an action -> its text
    for r in report.actions:
        text = texts.get(id(r.action))
        if text is None:
            text = texts[id(r.action)] = render_action(r.action)
        entry = {
            "source_loc": r.source,
            "action_text": text,
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
