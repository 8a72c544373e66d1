"""Exhaustive obligation checking over the reachable state space.

An obligation AG [pattern] pred holds when every reachable transition
whose label matches the pattern satisfies pred under the matching
substitution.  Quantifiers in pred range over the location constants
of the two states joined by the transition; test consults the state
before the step and test' the state after it.  `TransitionCheck`
checks one transition at a time, matching each distinct label against
the pattern, and instantiating the predicate for it, once.

`check_lts` runs it on the fly: the breadth first search of
`build_lts` hands it each transition as it is discovered and stops at
the first violation, so a violation is found without building the
states beyond it, and its witness is the one a check of the whole
built transition system, in discovery order, would give first.

`sat_obl` first searches a reduced graph (`Reduction`): in a state
where one entry's steps are invisible to the obligation and
independent of everything the other entries may still do, only that
entry's steps are expanded, so independent processes are interleaved
in one order instead of all of them.  The static certifier decides
visibility: a step is visible only if it instantiates an action that
`check_network` reports NotCertified.  So a "holds" from `sat_obl` is
only as sound as the certifier, and an unreduced check of the whole
built transition system (`tests/oracles.check_whole`), which trusts
nothing of it, is the check to test the certifier against.  What each
action reads and writes is worked out from the action templates and
the policies that judge them.  The reduced graph keeps a violation
whenever the whole one has one, but not the shortest path to it, so
it answers only "holds"; for a violation the unreduced search runs
and gives the witness.  Both searches are `check_lts` runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .certify import (ANY, NOT_CERTIFIED, _atom, _meet, _meets, _name,
                      check_network)
from .model import (IN, NIL, OUT, READ, EBin, ENot, EvaluationError, Label,
                    LabelPattern, LimitExceeded, Net, NetEntry, Obligation,
                    PExists, PForall, Substitution, has_replication,
                    take_actions)
from .semantics import (BOTH, LTS, TRUE, StateDomain, build_lts,
                        policies_by_location, policy_values, pred_values)
from .unification import extract, findsubs


def unify_label(pattern: LabelPattern, label: Label) -> Optional[Substitution]:
    if pattern.cap != label.cap:
        return None
    return findsubs(extract(pattern), extract(label))


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


class TransitionCheck:
    """The check of one obligation on one transition at a time, in the
    order a search discovers them.  Each distinct label is matched
    against the pattern, and the predicate instantiated for it, once;
    the first transition whose predicate comes out false gives the
    witness."""

    def __init__(self, obl: Obligation):
        self.obl = obl
        self.checked = 0
        self.witness: Optional[Witness] = None
        self._matched: dict = {}   # label -> (theta, instantiated pred) or None
        self._states: dict = {}    # state id -> (data index, location constants)

    def _state(self, lts: LTS, sid: int):
        got = self._states.get(sid)
        if got is None:
            ids = lts.ids[sid]
            got = self._states[sid] = (lts.space.data_index(ids),
                                       lts.space.constants(ids))
        return got

    def __call__(self, lts: LTS, t) -> bool:
        """Check one transition of lts; true when it violates."""
        self.checked += 1
        m = self._matched.get(t.label, False)
        if m is False:
            th = unify_label(self.obl.cut, t.label)
            m = self._matched[t.label] = None if th is None \
                else (th, th.apply_expr(self.obl.pred))
        if m is None:
            return False
        th, pred = m
        (pre, pre_locs), (post, post_locs) = self._state(lts, t.src), \
            self._state(lts, t.dst)
        if pred_values(pred, StateDomain(pre, post),
                       sorted(pre_locs | post_locs)) == TRUE:
            return False
        self.witness = Witness(_path_to(lts, t.src), t.label, th, pred)
        return True

    def verdict(self, lts: LTS) -> Verdict:
        return Verdict(self.obl, self.witness is None, self.witness,
                       len(lts.ids), self.checked)


def check_lts(net: Net, obl: Obligation, max_states: int = 100000,
              max_depth: int = 10000, ample=None) -> Verdict:
    """Check the obligation on every transition of one breadth first
    search as it is discovered, stopping at the first violation; with
    `ample` (a `Reduction`) the search is the reduced one."""
    check = TransitionCheck(obl)
    lts = build_lts(net, max_states=max_states, max_depth=max_depth,
                    ample=ample, visit=check)
    return check.verdict(lts)


def sat_obl(net: Net, obl: Obligation, max_states: int = 100000,
            max_depth: int = 10000) -> Verdict:
    """Check the obligation on the fly with `check_lts`.

    When the obligation and the network allow it, a reduced search
    runs first (see `Reduction`).  The reduced search answers only
    when the obligation holds.  When it finds a violation, raises an
    EvaluationError or exceeds a limit, the unreduced search runs and
    answers, with the witness a search of the whole transition system
    finds first.
    """
    ample = Reduction.of(net, obl)
    if ample is not None:
        try:
            verdict = check_lts(net, obl, max_states, max_depth, ample)
            if verdict.holds:
                return verdict
        except (EvaluationError, LimitExceeded):
            pass
    return check_lts(net, obl, max_states, max_depth)


# ---------------------------------------------------------------------------
# partial-order reduction

class TestReads:
    """A value domain that gives every leaf both truth values and notes
    the test atoms it is asked, as (location, tuple) templates in which
    ANY stands for a name not known before the run.  Evaluating a
    policy or predicate in it visits every leaf the concrete evaluation
    may read."""

    exact = False

    def __init__(self):
        self.atoms: set = set()

    def equal(self, left, right) -> int:
        return BOTH

    geq = equal

    def test(self, args, at, post=None) -> int:
        self.atoms.add((_name(at), tuple(map(_name, args))))
        return BOTH

    def occurs(self, action, var: str, env: dict) -> int:
        return BOTH


@dataclass(frozen=True)
class Footprint:
    """What a set of action templates of one entry may read and write.
    `reads` holds the tuples an in or read may match and the test atoms
    of the policies judging the actions, `writes` the tuples an out may
    add or an in remove; `aims` and `takes` hold the targets of the
    actions and of the ins, ANY for a target not known before the
    run."""
    home: str
    reads: frozenset
    writes: frozenset
    aims: frozenset
    takes: frozenset


def _takes_from(takes, f: Footprint) -> bool:
    # an in that takes the last entry at a location disables every
    # action aimed there, and decides whether a nil left there by an
    # entry of the location survives
    return bool(takes) and (ANY in takes or ANY in f.aims or f.home in takes
                            or not takes.isdisjoint(f.aims))


def dependent(f: Footprint, g: Footprint) -> bool:
    """May an action of f and one of g fail to commute: one writes a
    tuple the other reads, or an in of one takes a location the other
    acts at or aims at."""
    return (_meets(f.writes, g.reads) or _meets(g.writes, f.reads)
            or _takes_from(f.takes, g) or _takes_from(g.takes, f))


class Reduction:
    """The ample-set choice of a reduced search (Peled 1993; Godefroid
    1996, LNCS 1032), called as the `ample` hook of one `build_lts`
    run, whose entry ids key its tables.

    A state expands the steps of a single process entry P instead of
    those of every entry when
      - no branch of P instantiates an action the certifier reports
        NotCertified: certified actions never violate the obligation,
        so P's steps are invisible;
      - no branch of P writes a tuple that the obligation's predicate
        may read, so moving P's step earlier leaves every later
        predicate's value as it was;
      - no branch of P is dependent on an action that another entry of
        the state may still perform (`dependent`), so no other entry
        can enable, disable or change a step of P or be changed by it.
    Under these conditions a violating transition reachable in the
    whole graph stays reachable in the reduced one: along a path to
    it, the first step of P commutes to the front, or, if P takes no
    step on the path, any step of P can be put in front of it.  The
    transition system is acyclic, so no cycle proviso is needed.  The
    same argument keeps every state in which a policy or a step raises
    an EvaluationError reachable, as every entry's branches are judged
    in every state searched.
    """

    def __init__(self, pols: dict, loud: list, pred_reads: set):
        self.pols = pols               # location -> policy
        self.loud = loud               # (location, cap, atom) of NotCertified
        self.pred_reads = pred_reads   # test atoms the predicate may read
        self._now: dict = {}           # entry id -> footprint of its branches
        self._quiet: dict = {}         # entry id -> may its steps be ample
        self._ever: dict = {}          # entry id -> footprint of its body
        self._deps: dict = {}          # (entry id, entry id) -> dependent

    @classmethod
    def of(cls, net: Net, obl: Obligation) -> Optional["Reduction"]:
        """The reduction for the network and obligation, or None where
        the argument does not hold: a predicate's quantifiers range
        over the location constants of the states, which most steps
        change, and a location whose entries differ in policy changes
        policy when its first entry goes."""
        if has_replication(net) or _quantified(obl.pred):
            return None
        pols = policies_by_location(net)
        if any(e.policy != pols[e.location] for e in net.entries):
            return None
        loud = [(r.source, r.action.cap, _atom(r.action))
                for r in check_network(net, obl).actions
                if r.outcome == NOT_CERTIFIED]
        reads = TestReads()
        if loud:
            pred_values(obl.pred, reads, ())
        return cls(pols, loud, reads.atoms)

    def footprint(self, e: NetEntry, actions) -> Footprint:
        tuples, writes, aims, takes = set(), set(), set(), set()
        policy_reads = TestReads()
        for a in actions:
            at = _name(a.target)
            if at is not ANY and at not in self.pols:
                continue            # entries never appear at fresh locations
            aims.add(at)
            if a.cap != OUT:
                tuples.add(_atom(a))
            if a.cap != READ:
                writes.add(_atom(a))
            if a.cap == IN:
                takes.add(at)
            targets = self.pols.values() if at is ANY else (self.pols[at],)
            for pol in (e.policy, *targets):
                policy_values(pol, e.location, a, NIL, policy_reads)
        return Footprint(e.location, frozenset(tuples | policy_reads.atoms),
                         frozenset(writes), frozenset(aims), frozenset(takes))

    def _may_be_ample(self, space, i: int) -> bool:
        quiet = self._quiet.get(i)
        if quiet is None:
            e = space.entries[i]
            actions = [a for a, _ in e.body.branches]
            now = self._now[i] = self.footprint(e, actions)
            quiet = self._quiet[i] = not _meets(now.writes, self.pred_reads) \
                and not any(loc == e.location and cap == a.cap
                            and _meet(atom, _atom(a))
                            for a in actions for loc, cap, atom in self.loud)
        return quiet

    def _dependent(self, space, i: int, j: int) -> bool:
        dep = self._deps.get((i, j))
        if dep is None:
            ever = self._ever.get(j)
            if ever is None:
                e = space.entries[j]
                ever = self._ever[j] = self.footprint(
                    e, [la.action for la in take_actions(Net((e,)))])
            dep = self._deps[i, j] = dependent(self._now[i], ever)
        return dep

    def __call__(self, space, ids: tuple, p: int) -> bool:
        i = ids[p]
        if not self._may_be_ample(space, i):
            return False
        data, nils = space.data, space.nils
        return not any(self._dependent(space, i, j)
                       for q, j in enumerate(ids)
                       if q != p and data[j] is None and not nils[j])


def _quantified(pred) -> bool:
    if isinstance(pred, (PForall, PExists)):
        return True
    if isinstance(pred, ENot):
        return _quantified(pred.body)
    if isinstance(pred, EBin):
        return _quantified(pred.left) or _quantified(pred.right)
    return False
