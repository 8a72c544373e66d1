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
The range of the predicate's quantifiers, the network's location
constants, is collected only when the predicate quantifies, and a net
that `canonicalize` made, as `parse_net` returns it, is not sorted
again.

A location binds the pattern's subject, so the same action is judged
anew at each location; but principals with the same role are
interchangeable, and each class of them is judged once (Ip and Dill,
"Better Verification through Symmetry", FMSD 1996; Emerson and Sistla,
"Symmetry and Model Checking", FMSD 1996).  A candidate is the
location of a process entry that no policy, no process body and
neither part of the obligation names.  Two candidates c and d are
interchangeable when the entries naming c, each with c blanked, and
those naming d, each with d blanked, are equal as multisets; an entry
naming both would stand in the first with d and could not stand in the
second, so no such pair is grouped.  Swapping c and d then maps the
canonical net onto itself and fixes every policy, every body and the
obligation.  Every step of the judgement compares constants only by
equality: unification, the templates of `MutationInfo`, the sure atoms
and both evaluators.  So judging an action at d gives the report of
the same action at c with the two names swapped in its source, its
`theta0` and its constraints, and asks the swapped atoms, which
`check_network` adds to `asked` so that the domain stays what judging
each action on its own makes.  Two guards keep the plain judgement of
every action: a predicate that quantifies, whose `exists` and `forall`
stop early in the order of the names and so ask atoms the names
choose, and a location whose entries differ in policy, where the
policy of its first entry in canonical order judges the actions aimed
at it, and a swap may change which entry is first.  Numerals are never
candidates, since `geq` reads their value.  Any refinement of the
certifier must keep to this: compare constants only by equality, or
keep apart the constants it reads otherwise, as numerals are kept
apart.
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


def interchangeable(net: Net, obl: Obligation, pols: dict) -> dict:
    """Each location of a process entry that may take the place of a
    smaller one, mapped to the least name of its class: two candidates,
    constants that no policy, no body and no part of the obligation
    names and that are not numerals, are interchangeable when the
    entries naming each, the name blanked, are equal as multisets.
    Empty when a location's entries differ in policy."""
    cut = obl.cut
    named = set(obl.pred.consts)
    named.update([t.name for t in (cut.subject, *cut.args, cut.target)
                  if t.__class__ is Const])
    seen, sites = set(), set()     # ids of the nodes read; process locations
    for e in net.entries:
        pol, body = e.policy, e.body
        if pol is not pols[e.location] and pol != pols[e.location]:
            return {}
        if id(pol) not in seen:
            seen.add(id(pol))
            named |= pol.consts
        if body.__class__ is not tuple:
            sites.add(e.location)
            if id(body) not in seen:
                seen.add(id(body))
                named |= body.consts
    # `geq` reads the value of a numeral, so numerals are kept apart
    candidates = {c for c in sites - named
                  if not (c.isascii() and c.isdigit())}
    if len(candidates) < 2:
        return {}
    blanked: dict = {c: [] for c in candidates}
    for e in net.entries:
        loc, kind, body, pol = e.sort_key
        if kind == "proc":
            if loc in candidates:
                blanked[loc].append((None, kind, body, pol))
            continue
        hits = candidates.intersection(e.body)
        if loc in candidates:
            hits.add(loc)
        for c in hits:
            blanked[c].append((None if loc == c else loc, kind,
                               tuple([None if v == c else v for v in e.body]),
                               pol))
    classes: dict = {}          # signature -> the least candidate with it
    least: dict = {}
    for c in sorted(candidates):
        # any fixed order of a multiset's items compares multisets
        rep = classes.setdefault(tuple(sorted(blanked[c], key=hash)), c)
        if rep != c:
            least[c] = rep
    return least


def _swap_atom(atom: tuple, swap: dict) -> tuple:
    at, values = atom
    return swap.get(at, at), tuple([swap.get(v, v) for v in values])


def _swapped(r: ActionReport, source: str, swap: dict) -> ActionReport:
    """The report r with the two names of swap swapped, for the same
    action at source."""
    th0, constraints = r.theta0, r.constraints
    if th0 is not None:
        th0 = Substitution(tuple([
            (k, Const(swap[t.name]) if t.__class__ is Const and t.name in swap
             else t) for k, t in th0.pairs]))
    if constraints:
        constraints = tuple([_swap_atom(a, swap) for a in constraints])
    return ActionReport(source, r.action, r.outcome, th0, constraints,
                        r.side_values)


def check_network(net: Net, obl: Obligation) -> StaticVerdict:
    """Certify every syntactic action of the network, without building
    any part of the transition system.  An action of a location that
    is `interchangeable` with a smaller one takes the report of the
    same action there, renamed."""
    if has_replication(net):
        raise ReplicationPresent(
            "replication is outside the checkable fragment")
    net = canonicalize(net)
    mut = MutationInfo(net)
    pols = policies_by_location(net)
    if quantified(obl.pred):
        domain, least = sorted(loc_set(net)), {}
    else:
        # a predicate without quantifiers never reads the range
        domain, least = (), interchangeable(net, obl, pols)
    leaders = set(least.values())
    asked = mut.asked
    judged: dict = {}       # (location, action, continuation) -> report, asked
    reports = []
    for act in mut.actions:
        rep = least.get(act.source)
        got = rep and judged.get((rep, id(act.action), id(act.continuation)))
        if got:
            swap = {rep: act.source, act.source: rep}
            report = _swapped(got[0], act.source, swap)
            if got[1]:
                asked.update([_swap_atom(a, swap) for a in got[1]])
        elif act.source in leaders:
            mut.asked = set()
            report = check_single_action(obl, act, pols, mut, domain)
            judged[act.source, id(act.action), id(act.continuation)] = \
                report, mut.asked
            asked |= mut.asked
            mut.asked = asked
        else:
            report = check_single_action(obl, act, pols, mut, domain)
        reports.append(report)
    certified = all(r.outcome != NOT_CERTIFIED for r in reports)
    return StaticVerdict(certified, tuple(reports), mut)


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
