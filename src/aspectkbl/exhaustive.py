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
states beyond it.  Without a reduction, its witness is the one a check
of the whole built transition system, in discovery order, would give
first.

`sat_obl` searches a reduced graph (`Reduction`) where it can: in a
state where one entry's steps are invisible to the obligation and
independent of everything the other entries may still do, only that
entry's steps are expanded, so independent processes are interleaved
in one order instead of all of them.  The static certifier decides
visibility: a step is visible only if it instantiates an action that
`check_network` reports NotCertified, in the verdict `sat_obl` is
given (`akbl check --mode auto` passes the one it reports) or else
makes, so a check certifies once.  So a "holds" from `sat_obl` is
only as sound as the certifier, and an unreduced check of the whole
built transition system (`tests/oracles.check_whole`), which trusts
nothing of it, is the check to test the certifier against.  What each
action reads and writes is worked out from the action templates, and
from the test atoms that the policies judging it, and the predicate,
are asked in the certifier's domain, `MutationInfo`, which covers
every reachable state.  What a step of a found path did read is what
the concrete `StateDomain` of its state notes.

The reduced graph keeps a violation whenever the whole one has one,
but its path to it interleaves steps the violation does not need.  So
the reduced search answers violations too: its path is cut down to the
causal past of the failing step (`Reduction.causal_past`), and the cut
run is replayed once in the whole semantics, where every step out of
every state it reaches is checked; the first violation met is the
witness.  That is a run of the whole semantics, and on the generated
pairs the tests sweep it is exactly as long as the shortest.  It can be
longer where the reduced search meets another violation first.  The
unreduced search answers only where there is no reduction, or the
reduced search raises an EvaluationError, exceeds a limit or finds a
violation whose cut does not replay.  Both searches are `check_lts`
runs, and a verdict counts the states and transitions of the search
that answered.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .belnap import TT
from .certify import (NOT_CERTIFIED, MutationInfo, StaticVerdict,
                      check_network)
from .model import (CAP_LETTER, IN, OUT, READ, Const, EvaluationError,
                    Label, LabelPattern, LimitExceeded, Net, NetEntry,
                    Obligation, Substitution, Sum, process_actions)
from .semantics import (ANY, LTS, StateDomain, build_lts, meet, meets,
                        policies_by_location, policy_values, pred_values,
                        quantified, step_candidates, template)
from .unification import findsubs


def unify_label(pattern: LabelPattern, label: Label) -> Optional[Substitution]:
    if pattern.cap != label.cap:
        return None
    return findsubs((pattern.subject, *pattern.args, pattern.target),
                    (Const(label.subject), *map(Const, label.args),
                     Const(label.target)))


class Witness(NamedTuple):
    path: tuple              # labels of a run to the failing step
    label: Label             # the failing step itself
    theta: Substitution
    pred: object             # the instantiated predicate that came out false


class Verdict(NamedTuple):
    obligation: Obligation
    holds: bool
    witness: Optional[Witness]
    states_explored: int
    transitions_checked: int


def _run_to(lts: LTS, sid: int) -> list:
    # breadth first search found every state first along a shortest path
    run = []
    while lts.discovered_by[sid] is not None:
        t = lts.discovered_by[sid]
        run.append(t)
        sid = t.src
    return run[::-1]


class TransitionCheck:
    """The check of one obligation on one transition at a time, in the
    order a search discovers them.  Each distinct label is matched
    against the pattern, and the predicate instantiated for it, once;
    the first transition whose predicate comes out false gives the
    witness.  The location constants of a state, the range of the
    quantifiers, are built only for a quantified predicate, whose
    value on a step is kept by the step's label, the data of its two
    states and the range, so that each distinct step is evaluated
    once."""

    def __init__(self, obl: Obligation):
        self.obl = obl
        self.checked = 0
        self.failing = None        # the first violating Transition
        self.witness: Optional[Witness] = None
        self._matched: dict = {}   # label -> (theta, instantiated pred) or None
        self._quantified = quantified(obl.pred)
        # state -> (data index, location constants, or none when the
        # predicate holds no quantifier), unions of its runs' own
        self._states: dict = {}
        # (label, pre data, post data, pre and post constants) -> violates
        self._values: dict = {}

    def _state(self, space, state: tuple):
        got = self._states.get(state)
        if got is None:
            got = self._states[state] = (
                space.data_index(state),
                space.constants(state) if self._quantified else frozenset())
        return got

    def violates(self, space, label: Label, pre: tuple, post: tuple) -> bool:
        """Does the step with that label from state pre to state post,
        states of space, violate the obligation."""
        m = self._matched.get(label, False)
        if m is False:
            th = unify_label(self.obl.cut, label)
            m = self._matched[label] = None if th is None \
                else (th, th.apply(self.obl.pred))
        if m is None:
            return False
        (pre, pre_locs), (post, post_locs) = self._state(space, pre), \
            self._state(space, post)
        if not self._quantified:
            return pred_values(m[1], StateDomain(pre, post), ()) != TT
        key = (label, pre, post, pre_locs, post_locs)
        got = self._values.get(key)
        if got is None:
            got = self._values[key] = pred_values(
                m[1], StateDomain(pre, post),
                sorted(pre_locs | post_locs)) != TT
        return got

    def __call__(self, lts: LTS, t) -> bool:
        """Check one transition of lts; true when it violates."""
        self.checked += 1
        if not self.violates(lts.space, t.label, lts.ids[t.src],
                             lts.ids[t.dst]):
            return False
        self.failing = t
        self.witness = self.witness_of(
            tuple(s.label for s in _run_to(lts, t.src)), t.label)
        return True

    def witness_of(self, path: tuple, label: Label) -> Witness:
        """The witness of a run of labels path to a step with that
        label, which `violates` found violating."""
        return Witness(path, label, *self._matched[label])

    def verdict(self, lts: LTS) -> Verdict:
        return Verdict(self.obl, self.failing is None, self.witness,
                       len(lts.ids), self.checked)


def check_lts(net: Net, obl: Obligation, max_states: int = 100000,
              max_depth: int = 10000, ample=None) -> Verdict:
    """Check the obligation on every transition of one breadth first
    search as it is discovered, stopping at the first violation.

    With `ample` (a `Reduction`) the search is the reduced one.  The
    witness of a violation is then the first violation met when the
    causal past of the failing step on the search's path to it
    (`Reduction.causal_past`) is replayed in the whole semantics.  Where
    the replay meets none, the verdict is a violation without a
    witness."""
    check = TransitionCheck(obl)
    lts = build_lts(net, max_states=max_states, max_depth=max_depth,
                    ample=ample, visit=check)
    if ample is not None and check.failing is not None:
        check.witness = _replay(lts, ample.causal_past(
            lts, check.failing, check.witness.pred), check)
    return check.verdict(lts)


def _replay(lts: LTS, path: tuple, check: TransitionCheck):
    """The first violation met on the run of labels path in the whole
    semantics, from the initial state of lts, checking every step out
    of every state the run reaches; None when the run does not replay
    to one.  Entries of one location may make steps of the same label,
    so every state the labels reach is followed."""
    space = lts.space
    states = [lts.ids[0]]
    for n in range(len(path) + 1):
        reached = []
        for pre in states:
            for label, post in step_candidates(pre, space)[0]:
                if check.violates(space, label, pre, post):
                    return check.witness_of(path[:n], label)
                if n < len(path) and label == path[n]:
                    reached.append(post)
        states = list(dict.fromkeys(reached))
    return None


def sat_obl(net: Net, obl: Obligation, max_states: int = 100000,
            max_depth: int = 10000,
            static: Optional[StaticVerdict] = None) -> Verdict:
    """Check the obligation on the fly with `check_lts`.

    When the obligation and the network allow it (see `Reduction`), the
    reduced search answers, and a violation's witness is a run that
    replays in the whole semantics, cut down to what the failing step
    depends on; its states and transitions counts are those of the
    reduced search.  The unreduced search answers instead when there is
    no reduction, and when the reduced search raises an
    EvaluationError, exceeds a limit or finds a violation whose cut
    does not replay; its witness is the one a search of the whole
    transition system finds first.  `static` is `check_network`'s
    verdict on the same pair, when the caller has one.
    """
    ample = Reduction.of(net, obl, static)
    if ample is not None:
        try:
            verdict = check_lts(net, obl, max_states, max_depth, ample)
            if verdict.holds or verdict.witness is not None:
                return verdict
        except (EvaluationError, LimitExceeded):
            pass
    return check_lts(net, obl, max_states, max_depth)


# ---------------------------------------------------------------------------
# partial-order reduction

class Footprint(NamedTuple):
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
    return (meets(f.writes, g.reads) or meets(g.writes, f.reads)
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

    def __init__(self, pols: dict, loud: list, mut: MutationInfo,
                 pred_reads: frozenset):
        self.pols = pols               # location -> policy
        self.loud = loud               # (location, cap, atom) of NotCertified
        self.mut = mut                 # the certifier's domain
        self.pred_reads = pred_reads   # test atoms the predicate may read
        self._now: dict = {}           # entry id -> footprint of its branches
        self._quiet: dict = {}         # entry id -> may its steps be ample
        self._ever: dict = {}          # entry id -> footprint of its body
        self._deps: dict = {}          # (entry id, entry id) -> dependent

    @classmethod
    def of(cls, net: Net, obl: Obligation,
           static: Optional[StaticVerdict]) -> Optional["Reduction"]:
        """The reduction for the network and obligation, built from
        `static`, the certifier's verdict on them (when None, one made
        here), or None where the argument does not hold: a predicate's
        quantifiers range over the location constants of the states,
        which most steps change, and a location whose entries differ in
        policy changes policy when its first entry goes.  The reduction
        works in a copy of the verdict's domain with its own `asked`,
        so the verdict is left as it was."""
        if quantified(obl.pred):
            return None
        pols = policies_by_location(net)
        if any(e.policy != pols[e.location] for e in net.entries):
            return None
        if static is None:
            static = check_network(net, obl)
        loud = [(r.source, r.action.cap,
                 template(r.action.args, r.action.target))
                for r in static.actions if r.outcome == NOT_CERTIFIED]
        mut = static.domain.sharing(frozenset(), set())
        if loud:
            pred_values(obl.pred, mut, ())
        return cls(pols, loud, mut, frozenset(mut.asked))

    def footprint(self, e: NetEntry, branches) -> Footprint:
        """The footprint of the (action, continuation) branches of
        entry e, its policy reads taken in the certifier's domain."""
        tuples, writes, aims, takes = set(), set(), set(), set()
        mut = self.mut
        mut.asked.clear()
        for a, cont in branches:
            atom = template(a.args, a.target)
            at = atom[0]
            if at is not ANY and at not in self.pols:
                continue            # entries never appear at fresh locations
            aims.add(at)
            if a.cap != OUT:
                tuples.add(atom)
            if a.cap != READ:
                writes.add(atom)
            if a.cap == IN:
                takes.add(at)
            targets = self.pols.values() if at is ANY else (self.pols[at],)
            for pol in (e.policy, *targets):
                policy_values(pol, e.location, a, cont, mut)
        return Footprint(e.location, frozenset(tuples | mut.asked),
                         frozenset(writes), frozenset(aims), frozenset(takes))

    def _may_be_ample(self, space, i: int) -> bool:
        quiet = self._quiet.get(i)
        if quiet is None:
            e = space.entries[i]
            now = self._now[i] = self.footprint(e, e.body.branches)
            quiet = self._quiet[i] = not meets(now.writes, self.pred_reads) \
                and not any(loc == e.location and cap == a.cap
                            and meet(atom, template(a.args, a.target))
                            for a, _ in e.body.branches
                            for loc, cap, atom in self.loud)
        return quiet

    def _dependent(self, space, i: int, j: int) -> bool:
        dep = self._deps.get((i, j))
        if dep is None:
            ever = self._ever.get(j)
            if ever is None:
                e = space.entries[j]
                ever = self._ever[j] = self.footprint(
                    e, process_actions(e.body))
            dep = self._deps[i, j] = dependent(self._now[i], ever)
        return dep

    def __call__(self, space, state: tuple, slot: int, p: int) -> bool:
        """May the process entry at position p of the run at index slot
        of the state be expanded alone: no other process entry of the
        state, in any run, is dependent on it."""
        runs = space.runs
        i = runs[state[slot]][p]
        if not self._may_be_ample(space, i):
            return False
        for b, r in enumerate(state):
            run = runs[r]
            for q in space.procs[r]:
                if (q != p or b != slot) and self._dependent(space, i, run[q]):
                    return False
        return True

    def _reads(self, space, state: tuple, i: int, label: Label) -> set:
        # what the step with that label that entry i makes in the state
        # reads: the tuple an in or read matches, and the test atoms its
        # policies ask there, which decide their verdict as they do for
        # `Interner.verdicts`
        e, atom = space.entries[i], (label.target, label.args)
        here = StateDomain(space.data_index(state))
        for a, cont in e.body.branches:
            if CAP_LETTER[a.cap] == label.cap \
                    and meet(template(a.args, a.target), atom):
                for pol in (e.policy, self.pols[label.target]):
                    policy_values(pol, e.location, a, cont, here)
        return here.present | here.absent | (
            {atom} if label.cap != "o" else set())

    def causal_past(self, lts: LTS, t, pred) -> tuple:
        """The labels of the steps on the search's path to transition t
        that t, whose instantiated predicate is pred, depends on, in
        their order on the path.

        A step stays when a later step that stays, or t, is made by an
        entry the step made (program order), or reads a tuple the step
        adds or removes (its policies' test atoms, the tuple it
        matches, and for t what pred reads); and an out stays when a
        later step that stays takes from its target and another aims
        there, because the out's tuple may be what keeps the location.
        Dropping any other step leaves every tuple that the steps that
        stay read as it was, and removes no location: its entry stays
        where it is, and an in it makes only leaves a tuple more.  So
        the steps that stay, then t, are a run of the whole semantics
        to the same violation: the causal past of t in the Mazurkiewicz
        trace of the path, for a dependence that asks only whether an
        earlier step may change what a later one reads."""
        space, ids, runs = lts.space, lts.ids, lts.space.runs
        run = _run_to(lts, t.src) + [t]
        made: dict = {}     # entry id -> steps that made its live copies
        for i in space.flat(ids[0]):
            made.setdefault(i, []).append(None)
        acts = []           # per step: (acting entry, step that made it)
        for k, s in enumerate(run):
            pre, post = Counter(), Counter()
            for a, b in zip(ids[s.src], ids[s.dst]):
                if a != b:      # a run the step changed
                    pre.update(runs[a])
                    post.update(runs[b])
            i = next(j for j in pre - post
                     if isinstance(space.entries[j].body, Sum))
            acts.append((i, made[i].pop(0)))
            for j, n in (post - pre).items():
                made.setdefault(j, []).extend([k] * n)
        self.mut.asked.clear()
        pred_values(pred, self.mut, ())
        reads, takes, outs = set(self.mut.asked), set(), set()
        makers, past = set(), []
        for k in range(len(run) - 1, -1, -1):
            label, (i, maker) = run[k].label, acts[k]
            atom = (label.target, label.args)
            if not (run[k] is t or k in makers
                    or label.cap != "r" and meets((atom,), reads)
                    or label.cap == "o" and label.target in takes & outs):
                continue
            reads |= self._reads(space, ids[run[k].src], i, label)
            if label.cap != "r":
                (takes if label.cap == "i" else outs).add(label.target)
            makers.add(maker)
            past.append(label)
        return tuple(past[:0:-1])

