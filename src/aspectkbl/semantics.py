"""Reaction semantics and labelled transition system construction.

A step picks one action-prefixed branch of a top-level process entry,
asks the policies of the acting location and of the target location
whether the action template may fire, and applies the effect: out adds
a data tuple at the target, in consumes a matching tuple and read
observes one without removing it.  The two policy verdicts are
combined with the knowledge join and the step fires when the combined
value is bot or tt.

Policies always judge the action template, before input binders are
substituted, so a trap pattern may mention the binder positions with
wildcards but learns nothing about the data that will be bound.
Transition labels on the other hand are fully ground; for in and read
they carry the matched tuple.

Policies, with the conditions and recommendations of their traps,
and obligation predicates have one evaluator each, `policy_values`
and `pred_values`, over value sets: nonempty sets of the four values,
with every operator lifted pointwise.  A value domain supplies the
leaves (equality, test, >= and occurs-in) and says whether it is
exact.  There are two domains.  The explorer runs the evaluators in
the concrete `StateDomain` of a state, where every set is a
singleton.  The static certifier (certify.py) runs them in its
abstract `MutationInfo`, whose leaves cover every reachable state, so
its sets hold every value the explorer can meet: it is the explorer's
evaluator run in the abstract domain.  Both domains note the test
atoms they are asked, `StateDomain` only those of policies.  The
explorer keys its reuse of policy verdicts on the atoms `StateDomain`
notes (below).  The partial-order reduction of exhaustive.py takes
what an action may read from the atoms `MutationInfo` notes, and what
a step of a found path did read from those `StateDomain` notes.  The
certifier and the reduction name the tuples a test or an action may
touch by the templates defined here, `template` and `meet`.

States are kept in canonical form, which makes the state space of a
replication-free network finite and the construction below a plain
breadth first search.  The entries of a location share one policy
(`model.policies_by_location`, which `Interner.state` calls and which
raises on any other network, as `validate` rejects it), and no step
adds a second one: a continuation keeps the policy of the entry that
acted, and the data of an out take the policy of their target.  So a
location's policy is that of the network it starts in.

The search hash-conses its states in two levels, as SPIN's collapse
mode and LTSmin's tree compression store a state as a short vector of
interned components (Holzmann, "State Compression in SPIN", SPIN
1997; Laarman, van de Pol and Weber, "Parallel Recursive State
Compression for Free", SPIN 2011).  A per-run `Interner` gives every
distinct entry an integer id the first time it is seen, and keeps its
key and data pair then and only then; its location constants are
computed the first time a quantified predicate asks for them.  It also
gives an id to every distinct run: the tuple of one location's entry
ids in key order, or the empty run once the location has no entries.
A state is the tuple of the run ids of the locations of the initial
network, in location order.  No step adds a location, since an out to
a location without entries does not fire, so every state has the same
length, and since a canonical network is sorted by its sort keys,
whose first field is the location, it is the concatenation of its
state's runs (`Interner.flat`).  Deduplicating a successor hashes one
integer per location.  Keys order entries only within a run, where
location and policy are the same, so an entry's key is its body's
memoised text, `sort_key[2]`, the string itself and not a copy: a data
tuple's text starts with `(` and a process's with a capital, so the
texts put data first, as the kind field of the sort key does.

A step changes at most two runs, the acting location's and, for an out
or an in, the target's.  A step's label, the entries its continuation
splits into and the data it adds or consumes make its `Move`, kept per
acting entry and branch for an out and in the match table (below) for
an in or read, so each added entry is interned once.  The move keeps,
for every run it has changed, the run it made, so a successor is a
copy of the state with one or two run ids replaced, and a run is
edited once per move.  An edit deletes the entries that leave, inserts
each added one by bisection and applies the nil rule, within the run,
only where the step may break it: when the continuation holds a nil,
or when an out adds to a location whose run is its nil.  Each run
keeps the positions of its
process entries, which are the acting entries of every state that
holds it.  A step is checked against the other steps of its entry
only when the entry has several branches, since steps of distinct
entries differ.  Policy test atoms are set lookups in the state's data
index, the union of its runs' data indexes, built only in a state
where a policy that holds a `test` is judged afresh or its verdict's
atoms are checked.  No run keeps a data index until a state's is
first built; from then on every run gets its index when it is made.
The location constants of a quantified predicate's range are kept
per run the same way.  The LTS keeps the states and the interner,
along with the transition that first discovered each state, from which
witnesses are read back; `LTS.states` builds ordinary `Net` values
from the shared interned entries each time it is read.

An in or read finds its partners without scanning the state.  The
interner keeps the ids of the data entries at each location, in the
order they were interned, and also those of each arity and first
constant at each location.  Each in or read branch of an acting
entry keeps a match table: how many of its candidates it has tried,
and the move of each that matched.  The candidates are the data ids
of the template's arity and first constant at the target when the
template starts with a constant, which no other tuple matches, and
all of the target's data ids otherwise.  A step first extends the
table over the candidates interned since its last use.  The step
takes the matches present in the target's run, in run order, by a
bisection for each id of the table, so its work is bounded by the size
of the table and not by the size of the state.

`json_export` writes the LTS's JSON text itself.  It renders and
escapes each interned entry, joins each run's entry texts and encodes
each distinct label once, before it writes anything; a state's net
joins the texts of its non-empty runs, and the document is the run of
all the states' and transitions' parts, byte for byte the text
`json.dumps` gives for the same document with indent 2 and sorted
keys.  Given a `write` callable, as `akbl lts --json` gives it
`sys.stdout.write`, it passes the parts on in pieces of about
CHUNK_CHARS characters, so the whole document is never one string;
without one it returns the join of those pieces.  The entries are
rendered with one memo of process texts for the export, so each
distinct process node is rendered once, a prefix from its
continuation's text.  `json_text` writes those bytes for any other
document, such as a `check --json` report, with one recursive walk
that appends to one list, where the stdlib's indented encoder runs in
pure Python.

The explorer also judges each step's policies once per exploration.
A step's combined verdict depends on the acting entry and the branch,
which fix the target and so its policy, and on the state only through
the `test` atoms of the policies: `test` is the only leaf of `StateDomain` that reads the
state, while equality, >= and occurs-in read the step alone.  The
`Interner` keeps, per such key, every verdict computed so far with the
test atoms its evaluation found present and absent.  A later step
reuses the first verdict whose atoms answer the same in its state:
the evaluator is deterministic, so with the same answers it takes the
same path, reads the same atoms and returns the same value, even when
a false condition left a recommendation unread.  Otherwise both sides
are evaluated afresh and the verdict is added.  An evaluation that
raises adds nothing, so an `EvaluationError` surfaces in every state
where a fresh evaluation would raise it.  Labels depend on the step
alone and are kept per step too.

There is one search loop, `build_lts`, with two optional hooks that
the obligation checker (exhaustive.py) uses.  `visit` sees every
transition as it is discovered and may stop the search, which checks
an obligation on the fly.  `ample` may pick, per state, one entry
whose steps alone are expanded, which gives a partial-order reduced
graph.  Without them, as for `akbl lts` and every export, the LTS is
the whole reachable state space.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from itertools import chain, compress, count
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

from .belnap import BOT, FF, GRANTS, LIFTED, NEG_SETS, TT
from .model import (Action, AspectPol, BindVar, CAP_LETTER, Const, Cut, EBin,
                    EEqual, EFalse, ENot, EOccursIn, ETest, ETrue,
                    EvaluationError, Label, LimitExceeded, Net, NetEntry, Nil,
                    PExists, PForall, PGeq, PTestPost, Process,
                    ReplicationPresent, Substitution, Sum, Wildcard,
                    canonicalize, drop_nils, entry_consts, has_replication,
                    policies_by_location, process_actions, render_term,
                    split_entry)
from .parser import render_action, render_entry
from .unification import findsubs

# ---------------------------------------------------------------------------
# template matching

def match(templates, values):
    """Match in/read argument templates against a ground data tuple.

    Positions are independent: constants must be equal, a binder !u
    binds the plain name u (substitution then reaches the variables of
    the continuation), wildcards match anything.  Returns None when
    the tuple does not fit.
    """
    if len(templates) != len(values):
        return None
    pairs = []
    for t, v in zip(templates, values):
        if isinstance(t, Const):
            if t.name != v:
                return None
        elif isinstance(t, BindVar):
            pairs.append((t.name, Const(v)))
        elif isinstance(t, Wildcard):
            continue
        else:
            return None
    return Substitution(tuple(pairs))


def occurs_in(template: Action, proc: Process) -> bool:
    """May an action matching the template occur in the process."""
    pattern = (*template.args, template.target)
    return any(action.cap == template.cap
               and findsubs(pattern, (*action.args, action.target)) is not None
               for action, _ in process_actions(proc))


# ---------------------------------------------------------------------------
# evaluation over value sets

def data_index(net: Net) -> frozenset:
    """The (location, tuple) pairs of the network's data entries."""
    return frozenset([(e.location, e.body) for e in net.entries
                      if e.sort_key[1] == "data"])


def numeral(t) -> Optional[int]:
    """The value of a constant written in ASCII digits, else None."""
    if isinstance(t, Const) and t.name.isascii() and t.name.isdigit():
        return int(t.name)
    return None


def ground_atom(args, at) -> Optional[tuple]:
    """The (location, tuple) atom a test names, as `data_index` holds
    them, or None unless its location and arguments are constants."""
    values = tuple(t.name for t in args if isinstance(t, Const))
    if len(values) != len(args) or not isinstance(at, Const):
        return None
    return at.name, values


ANY = None                   # a location or tuple position of unknown name


def template(args, at) -> tuple:
    """The (location, tuple) template a test or an action names before
    the run: its `ground_atom`, with ANY for each term not a constant."""
    return (at.name if isinstance(at, Const) else ANY,
            tuple([t.name if isinstance(t, Const) else ANY for t in args]))


def meet(atom, other) -> bool:
    """May two (location, tuple) templates name the same tuple."""
    (at, args), (at2, args2) = atom, other
    return (len(args) == len(args2) and (at is ANY or at2 is ANY or at == at2)
            and all(a is ANY or b is ANY or a == b
                    for a, b in zip(args, args2)))


def meets(atoms, others) -> bool:
    """May a template of atoms name the same tuple as one of others."""
    return any(meet(a, b) for a in atoms for b in others)


def truth(b: bool) -> int:
    return TT if b else FF


def _ground_name(t, what: str) -> str:
    if isinstance(t, Const):
        return t.name
    raise EvaluationError(f"unbound variable in {what}: {render_term(t)}")


def _numeric(t) -> int:
    n = numeral(t)
    if n is None:
        raise EvaluationError(f"not a numeric constant: {render_term(t)}")
    return n


class StateDomain:
    """The concrete value domain, whose value sets are all singletons:
    the leaves read the data index of one state, or for a predicate
    those of the states before and after a step.  An unbound variable
    raises EvaluationError, except that a predicate's test on one
    names no tuple and is false.  The test atoms a policy asks are
    noted as (location, tuple) pairs, split into those found present
    and those found absent; a predicate's are not noted."""

    exact = True

    def __init__(self, pre: frozenset, post: frozenset = frozenset()):
        self.pre, self.post = pre, post
        self.present, self.absent = set(), set()

    def equal(self, left, right) -> int:
        return truth(_ground_name(left, "equality")
                      == _ground_name(right, "equality"))

    def geq(self, left, right) -> int:
        return truth(_numeric(left) >= _numeric(right))

    def test(self, args, at, post: Optional[bool] = None) -> int:
        # post is None in a policy, else the side of the step read
        atom = ground_atom(args, at)
        if post is not None:
            return truth(atom is not None
                         and atom in (self.post if post else self.pre))
        if atom is None:
            unbound = next(t for t in (*args, at) if not isinstance(t, Const))
            raise EvaluationError(
                f"unbound variable in test: {render_term(unbound)}")
        found = atom in self.pre
        (self.present if found else self.absent).add(atom)
        return truth(found)

    def occurs(self, action: Action, continuation: Process) -> int:
        return truth(occurs_in(action, continuation))


def check_cut(cut: Cut, subject: str, action: Action):
    """Unify a trap pattern with an attempted action: the unifier, or
    None when the pattern does not apply."""
    if cut.action.cap != action.cap:
        return None
    return findsubs((cut.subject, *cut.action.args, cut.action.target),
                    (Const(subject), *action.args, action.target))


def policy_values(pol, subject: str, action: Action, continuation: Process,
                  domain, sure: Optional[list] = None) -> int:
    """The value set of a policy judging an attempted action, and of
    the instantiated conditions and recommendations of its traps,
    whose occurs-in reads the action's continuation.

    In an inexact domain a trap adds bot when it may let the action
    pass: its condition only may hold, or it binds a variable of the
    action and so catches only some instantiations.  The instantiated
    recommendations of the other traps that reach the top through
    oplus alone are appended to `sure` when it is a list.
    """
    if isinstance(pol, ETrue):
        return TT
    if isinstance(pol, EFalse):
        return FF
    if isinstance(pol, ENot):
        return NEG_SETS[policy_values(pol.body, subject, action,
                                      continuation, domain)]
    if isinstance(pol, EBin):
        sure = sure if pol.op == "oplus" else None
        left = policy_values(pol.left, subject, action, continuation, domain,
                             sure)
        return LIFTED[pol.op][left][policy_values(
            pol.right, subject, action, continuation, domain, sure)]
    if isinstance(pol, AspectPol):
        asp = pol.aspect
        th = check_cut(asp.cut, subject, action)
        if th is None:
            return BOT
        cond = policy_values(th.apply(asp.cond), subject, action,
                             continuation, domain)
        if not cond & TT:
            return BOT
        rec = th.apply(asp.rec)
        values = policy_values(rec, subject, action, continuation, domain)
        if domain.exact:
            return values
        if cond != TT or any(not k.startswith(("$", "#", "!"))
                             for k, _ in th.pairs):
            return values | BOT
        if sure is not None:
            sure.append(rec)
        return values
    if isinstance(pol, EEqual):
        return domain.equal(pol.left, pol.right)
    if isinstance(pol, ETest):
        return domain.test(pol.args, pol.at)
    if isinstance(pol, EOccursIn):
        return domain.occurs(pol.action, continuation)
    raise TypeError(f"not a policy: {pol!r}")


def pred_values(pred, domain, locs) -> int:
    """The value set, within {tt, ff}, of an obligation's predicate on
    a step, with quantifiers ranging over the location constants locs.
    and, or and the quantifiers stop once their value is decided.  In
    an inexact domain the range at run time may be any subset of locs,
    so a quantifier may also take its value on the empty range."""
    if isinstance(pred, ETrue):
        return TT
    if isinstance(pred, EFalse):
        return FF
    if isinstance(pred, ENot):
        return NEG_SETS[pred_values(pred.body, domain, locs)]
    if isinstance(pred, (EBin, PForall, PExists)):
        quantified = not isinstance(pred, EBin)
        conj = isinstance(pred, PForall) if quantified else pred.op == "and"
        op = LIFTED["and" if conj else "or"]
        unit, decided = (TT, FF) if conj else (FF, TT)
        parts = (Substitution(((pred.var, Const(loc)),)).apply(pred.body)
                 for loc in locs) if quantified else (pred.left, pred.right)
        values = unit
        for part in parts:
            values = op[values][pred_values(part, domain, locs)]
            if values == decided:
                break
        return values | unit if quantified and not domain.exact else values
    if isinstance(pred, EEqual):
        return domain.equal(pred.left, pred.right)
    if isinstance(pred, PGeq):
        return domain.geq(pred.left, pred.right)
    if isinstance(pred, (ETest, PTestPost)):
        return domain.test(pred.args, pred.at, isinstance(pred, PTestPost))
    raise TypeError(f"not a predicate: {pred!r}")


def holds_test(pol) -> bool:
    """Does a policy hold a `test`, the only leaf of `StateDomain` that
    reads the state, in itself or in a trap's condition or
    recommendation."""
    if isinstance(pol, ETest):
        return True
    if isinstance(pol, ENot):
        return holds_test(pol.body)
    if isinstance(pol, EBin):
        return holds_test(pol.left) or holds_test(pol.right)
    if isinstance(pol, AspectPol):
        return holds_test(pol.aspect.cond) or holds_test(pol.aspect.rec)
    return False


def quantified(pred) -> bool:
    """Does the predicate hold a quantifier, so that its value may
    depend on the location constants `pred_values` is given."""
    if isinstance(pred, (PForall, PExists)):
        return True
    if isinstance(pred, ENot):
        return quantified(pred.body)
    if isinstance(pred, EBin):
        return quantified(pred.left) or quantified(pred.right)
    return False


# ---------------------------------------------------------------------------
# interned states

class Move:
    """What a step does to a state, kept per acting entry and branch
    for an out and per matching data id in the match table (below) for
    an in or read.  Its label is known when the move is made; the ids
    of the entries the continuation splits into are interned when the
    step first fires.  `edits` maps each run the step has changed to
    the run it made of it."""
    __slots__ = ("label", "entry", "put", "take", "new", "nil", "edits")

    def __init__(self, label: Label, entry: int, take: Optional[int] = None):
        self.label = label
        self.entry = entry           # the acting entry's id
        self.put = None              # id of the data an out adds
        self.take = take             # id of the data an in consumes
        self.new = None              # ids of the continuation's entries
        self.nil = False             # is one of them nil
        self.edits: dict = {}        # run id -> run id after the step


class Interner:
    """The distinct entries and runs met by one exploration.

    The first time an entry is seen it gets an integer id, and with it
    everything later steps ask of it: its key, its body's memoised
    text `sort_key[2]`, and its (location, tuple) pair when it is a
    data entry.  Its location constants, which only a quantified
    predicate reads, are computed when `constants` first asks for
    them.  Keys compare only entries of one location, which share its
    policy, and there they order as the sort keys do.

    A run is the tuple of the ids of one location's entries in key
    order, and gets an integer id the first time it is seen; run 0 is
    the empty run.  The first network given to `state` fixes the
    locations, in order, and their policies, and a state is the tuple
    of the ids of their runs, so comparing and hashing a state touches
    one integer per location.  Since a canonical network is sorted by
    location first, it is the concatenation of its state's runs,
    `flat`.  Each run keeps the positions of its process entries and,
    once any state has asked for them, its data index and location
    constants.

    The ids of the data entries at each location are listed as they
    are interned, and so are those of each arity and first constant at
    each location.  A step's `Move` is remembered per acting entry and
    branch, so each entry is interned once and each run a step changes
    is changed once, and so are the policy verdicts of a step, with
    the test atoms each one read, and for an in or read the match
    table of the data ids it has tried.
    """

    def __init__(self):
        self.entries: list = []      # id -> NetEntry
        self.branches: list = []     # id -> branches of a Sum body, or None
        self.keys: list = []         # id -> its body's text, sort_key[2]
        self.locations: list = []    # id -> location
        self.nils: list = []         # id -> is the body nil
        self.data: list = []         # id -> (location, tuple) or None
        self.consts: dict = {}       # id -> frozenset of location constants
        self._ids: dict = {}         # NetEntry -> id
        self.slots: dict = {}        # location -> its index in a state
        self.policies: dict = {}     # location -> its one policy
        self.runs: list = [()]       # run id -> entry ids in key order
        self.procs: list = [()]      # run id -> positions of its Sum entries
        self._runs: dict = {(): 0}   # run -> run id
        self.indexes = None          # run id -> its data index, once asked
        self.run_consts = None       # run id -> its `loc_set`, once asked
        self.data_at: dict = {}      # location -> ids of its data entries
        # (location, arity, first constant) -> ids of those data entries
        self.data_by: dict = {}
        # (acting entry, branch) of an out -> its Move
        self.outs: dict = {}
        # (acting entry, branch) of an in or read -> [number of the
        # candidate data ids tried, {matching data id: the step's Move},
        # the list of candidate ids: the target's data ids, or those of
        # the arity and first constant of a template led by a constant]
        self.matches: dict = {}
        # (acting entry, branch) -> list of (atoms found present, atoms
        # found absent, combined policy value)
        self.verdicts: dict = {}

    def intern(self, e: NetEntry) -> int:
        i = self._ids.get(e)
        if i is None:
            i = self._ids[e] = len(self.entries)
            self.entries.append(e)
            self.branches.append(e.body.branches
                                 if isinstance(e.body, Sum) else None)
            self.keys.append(e.sort_key[2])
            self.locations.append(e.location)
            self.nils.append(isinstance(e.body, Nil))
            if e.sort_key[1] == "data":
                self.data.append((e.location, e.body))
                self.data_at.setdefault(e.location, []).append(i)
                if e.body:
                    self.data_by.setdefault(
                        (e.location, len(e.body), e.body[0]), []).append(i)
            else:
                self.data.append(None)
        return i

    def split(self, loc: str, pol, body) -> tuple:
        """Ids of the entries of body at loc, split at parallels."""
        flat: list = []
        split_entry(loc, pol, body, flat)
        return tuple(self.intern(e) for e in flat)

    def run(self, ids: tuple) -> int:
        """The id of the run of one location's entry ids in key order."""
        r = self._runs.get(ids)
        if r is None:
            r = self._runs[ids] = len(self.runs)
            self.runs.append(ids)
            if self.indexes is not None:
                self.indexes.append(self._index(ids))
            if self.run_consts is not None:
                self.run_consts.append(self._constants(ids))
            # without a Python loop over the run: branches is None for
            # the entries that are not Sums
            self.procs.append(tuple(compress(
                count(), map(self.branches.__getitem__, ids))))
        return r

    def edit(self, r: int, move: Move) -> int:
        """The run r after the step of move, at the acting location, at
        the target or at both: the acting entry leaves and the
        continuation's entries come, an out's data come and an in's
        go.  An added entry is inserted by bisection, which is where a
        sort puts it, since entries with equal keys are identical.  The
        nil rule is applied only where the step may break it: when the
        continuation holds a nil, or when an out adds to a location
        whose run is its nil."""
        run = self.runs[r]
        ids = list(run)
        label = move.label
        key = self.keys.__getitem__
        at = self.locations[run[0]]
        nil = False
        if at == label.subject:
            ids.remove(move.entry)
            for j in move.new:
                insort(ids, j, key=key)
            nil = move.nil
        if at == label.target:
            if move.take is not None:
                ids.remove(move.take)
            elif move.put is not None:
                insort(ids, move.put, key=key)
                nil = nil or self.nils[run[0]]
        if nil:
            ids = drop_nils(ids, self.locations.__getitem__,
                            self.nils.__getitem__)
        return self.run(tuple(ids))

    def state(self, net: Net) -> tuple:
        """The state of a network, read off its canonical form; the
        first one given fixes the locations of every state of the
        interner, and their policies.  A network whose entries at one
        location differ in policy raises AkblError."""
        net = canonicalize(net)
        pols = policies_by_location(net)
        slots = self.slots
        if not slots:
            # a canonical network is sorted by location
            self.policies = pols
            slots.update(zip(pols, count()))
        runs: list = [[] for _ in slots]
        for e in net.entries:
            runs[slots[e.location]].append(self.intern(e))
        return tuple([self.run(tuple(run)) for run in runs])

    def flat(self, state: tuple) -> tuple:
        """The ids of a state's entries in canonical order."""
        return tuple(chain.from_iterable(map(self.runs.__getitem__, state)))

    def net(self, state: tuple) -> Net:
        return Net(tuple(map(self.entries.__getitem__, self.flat(state))))

    def data_index(self, state: tuple) -> frozenset:
        """`data_index` of a state: the union of its runs'.  A run's is
        made for every run once a state has asked, and for none before,
        as a search that never asks makes many runs."""
        if self.indexes is None:
            self.indexes = list(map(self._index, self.runs))
        return frozenset().union(*map(self.indexes.__getitem__, state))

    def _index(self, run: tuple) -> frozenset:
        return frozenset(filter(None, map(self.data.__getitem__, run)))

    def constants(self, state: tuple) -> frozenset:
        """`loc_set` of a state: the union of its runs', made as the
        runs' data indexes are."""
        if self.run_consts is None:
            self.run_consts = list(map(self._constants, self.runs))
        return frozenset().union(*map(self.run_consts.__getitem__, state))

    def _constants(self, run: tuple) -> frozenset:
        consts, entries = self.consts, self.entries
        for i in run:
            if i not in consts:
                consts[i] = entry_consts(entries[i])
        return frozenset().union(*map(consts.__getitem__, run))


# ---------------------------------------------------------------------------
# steps

def step_candidates(state: tuple, space: Interner, ample=None):
    """All transition candidates out of a state of space, a tuple of
    run ids, as `Interner.state` gives one.

    Returns (steps, denied): steps is a list of (label, successor) in
    deterministic order with duplicates removed, each successor a state
    of space, and denied is a list of (label, combined-policy-value)
    for candidates whose action was blocked by the policies.

    `ample`, when given, is called as ample(space, state, slot, p) for
    the process entries at position p of the run at index slot of the
    state that have a step, in state order, and the steps are those of
    the first entry it accepts, or of every entry when it accepts
    none.  Every entry's branches are judged either way, so an
    EvaluationError surfaces in the same states.
    """
    entries, branches_of, data_of = space.entries, space.branches, space.data
    runs, procs, slots, policies = space.runs, space.procs, space.slots, \
        space.policies
    outs, verdicts, matches = space.outs, space.verdicts, space.matches
    data_at, data_by, nils = space.data_at, space.data_by, space.nils
    oplus = LIFTED["oplus"]
    key = space.keys.__getitem__
    data = None                 # the state's data index, once a policy reads it
    # (index of the acting run, position of the acting entry in it, index
    # of another run the step changes or None, the step's Move, does
    # the entry have other branches)
    moves: list = []
    denied: dict = {}           # (label, value) -> None, in order

    for a, r in enumerate(state):
        run = runs[r]
        for p in procs[r]:
            i = run[p]
            if p and run[p - 1] == i:
                # an identical entry, next to it in the sorted run, makes
                # identical steps
                continue
            branches = branches_of[i]
            several = len(branches) > 1
            e = entries[i]
            for k, (action, cont) in enumerate(branches):
                tgt = action.target
                if not isinstance(tgt, Const):
                    raise EvaluationError(
                        f"unbound target in {render_action(action)}")
                b = slots.get(tgt.name)
                target = runs[state[b]] if b is not None else ()
                if not target:
                    continue            # no entry to receive or hold the data
                guard = policies[tgt.name]
                step = (i, k)
                for present, absent, f in verdicts.get(step, ()):
                    if not (present or absent):
                        break           # the verdict read nothing of the state
                    if data is None:
                        data = space.data_index(state)
                    if present <= data and data.isdisjoint(absent):
                        break
                else:
                    if data is None and (holds_test(e.policy)
                                         or holds_test(guard)):
                        data = space.data_index(state)
                    here = StateDomain(frozenset() if data is None else data)
                    src = policy_values(e.policy, e.location, action, cont,
                                        here)
                    f = oplus[src][policy_values(guard, e.location, action,
                                                 cont, here)]
                    verdicts.setdefault(step, []).append(
                        (frozenset(here.present), frozenset(here.absent), f))
                granted = f & GRANTS
                other = None if b == a else b
                if action.cap == "out":
                    move = outs.get(step)
                    if move is None:
                        move = outs[step] = Move(Label(
                            e.location, CAP_LETTER["out"],
                            tuple(_ground_name(t, "out argument")
                                  for t in action.args), tgt.name), i)
                    if not granted:
                        denied[move.label, f] = None
                        continue
                    if move.new is None:
                        move.new = space.split(e.location, e.policy, cont)
                        move.nil = any(map(nils.__getitem__, move.new))
                        move.put = space.intern(NetEntry(
                            tgt.name, guard, move.label.args))
                    moves.append((a, p, other, move, several))
                    continue
                table = matches.get(step)
                if table is None:
                    first = action.args[0] if action.args else None
                    table = matches[step] = [0, {}, data_by.setdefault(
                        (tgt.name, len(action.args), first.name), [])
                        if isinstance(first, Const)
                        else data_at.setdefault(tgt.name, [])]
                tried, found, held = table
                if tried < len(held):   # data ids interned since the last use
                    letter = CAP_LETTER[action.cap]
                    for d in held[tried:]:
                        values = data_of[d][1]
                        if match(action.args, values) is not None:
                            found[d] = Move(
                                Label(e.location, letter, values, tgt.name),
                                i, None if action.cap == "read" else d)
                    table[0] = len(held)
                # the matches among the target's data, by position: a
                # bisection in its run for each id of the table
                hits = []
                for d in found:
                    q = bisect_left(target, key(d), key=key)
                    if q < len(target) and target[q] == d:
                        hits.append((q, d))
                hits.sort()
                consumed = set()        # identical tuples make identical steps
                for q, d in hits:
                    move = found[d]
                    label = move.label
                    if label.args in consumed:
                        continue
                    consumed.add(label.args)
                    if not granted:
                        denied[label, f] = None
                        continue
                    if move.new is None:
                        move.new = space.split(
                            e.location, e.policy,
                            match(action.args, label.args).apply(cont))
                        move.nil = any(map(nils.__getitem__, move.new))
                    moves.append((a, p, None if move.take is None else other,
                                  move, several))
    if ample is not None:
        for a, p in dict.fromkeys([m[:2] for m in moves]):
            if ample(space, state, a, p):
                moves = [m for m in moves if m[0] == a and m[1] == p]
                break
    steps: list = []
    edit = space.edit
    # distinct entries never make the same step; branches of one can
    seen: set = set()
    for a, p, b, move, several in moves:
        edits = move.edits
        succ = list(state)
        r = state[a]
        n = edits.get(r)
        if n is None:
            n = edits[r] = edit(r, move)
        succ[a] = n
        if b is not None:
            r = state[b]
            n = edits.get(r)
            if n is None:
                n = edits[r] = edit(r, move)
            succ[b] = n
        succ = tuple(succ)
        if several:
            if (move.entry, move.label, succ) in seen:
                continue
            seen.add((move.entry, move.label, succ))
        steps.append((move.label, succ))
    return steps, list(denied)


# ---------------------------------------------------------------------------
# transition systems

class Transition(NamedTuple):
    src: int
    dst: int
    label: Label


class LTS(NamedTuple):
    """A transition system whose state 0 is the initial network."""
    transitions: list        # in discovery order
    discovered_by: list      # state id -> first Transition into it, or None
    ids: list                # state id -> its tuple of run ids in `space`
    space: Interner          # the entries and runs the states are built from

    @property
    def states(self) -> list:
        """State id -> canonical Net, built anew on each access.  The
        commands never read it; the tests do, and so does
        `perfbench/tracer.py::_count_lts`, which counts a traced
        build's states and entries."""
        return [self.space.net(s) for s in self.ids]


def build_lts(net: Net, max_states: int = 100000, max_depth: int = 10000,
              ample=None, visit=None) -> LTS:
    """Breadth first exploration of the reachable state space.

    `ample` is passed on to `step_candidates`, so that each state
    expands the steps of the one entry it accepts, when it accepts one;
    without it the LTS is the whole reachable state space.  `visit` is
    called as visit(lts, transition) on every transition as it is
    discovered, and the search stops after the first one for which it
    returns true; the LTS then holds the states discovered so far.  A
    network whose entries at one location differ in policy raises
    AkblError, as one holding a replication raises ReplicationPresent.
    """
    if has_replication(net):
        raise ReplicationPresent("replication is outside the checkable fragment")
    space = Interner()
    start = space.state(net)
    lts = LTS([], [None], [start], space)
    ids, discovered_by, transitions = lts.ids, lts.discovered_by, \
        lts.transitions
    index = {start: 0}
    depth = [0]
    # a Transition made without the Python-level NamedTuple.__new__
    new_tuple = tuple.__new__
    queue = deque([0])
    while queue:
        sid = queue.popleft()
        steps, _ = step_candidates(ids[sid], space, ample)
        for label, succ in steps:
            nid = index.setdefault(succ, len(ids))
            if nid == len(ids):     # a new state
                if nid >= max_states:
                    raise LimitExceeded("states", max_states)
                d = depth[sid] + 1
                if d > max_depth:
                    raise LimitExceeded("depth", max_depth)
                ids.append(succ)
                depth.append(d)
                queue.append(nid)
                t = new_tuple(Transition, (sid, nid, label))
                discovered_by.append(t)
            else:
                t = new_tuple(Transition, (sid, nid, label))
            transitions.append(t)
            if visit is not None and visit(lts, t):
                queue.clear()
                break
    return lts


def net_text(net: Net) -> str:
    return " || ".join(map(render_entry, net.entries))


# The characters a streamed export gathers before it writes them as one
# piece.  A state's net is one part and transitions are rendered
# CHUNK_CHARS >> 8 (256) at a time, so the rule costs one `len` per
# state and per run of transitions.  On the first `deep` job of seed 61
# (an Intel Xeon vCPU, Python 3.11), pieces of 16, 64 and 256 KB took
# 15.7-16.9, 16.2-16.4 and 16.3-16.4 ms a job, and the export's traced
# peak was 588, 716 and 1217 KB: past 64 KB a piece costs memory and
# saves no time.
CHUNK_CHARS = 1 << 16


def json_export(lts: LTS, write=None) -> Optional[str]:
    """The LTS as the text `json.dumps(doc, indent=2, sort_keys=True)`
    gives for the document {"states": [{"id", "net"}], "transitions":
    [{"from", "label", "to"}]}, where a state's net is its `net_text`.

    Without `write` the text is returned.  With it, the text is passed
    to `write` piece by piece, in order, and None is returned; the
    whole document is never one string.  A piece joins the parts
    gathered since the last one, and is written once they reach
    CHUNK_CHARS characters.  Every entry, run and label is rendered,
    escaped and encoded before the first piece is written: an export
    that raises has written nothing, and once writing starts only
    `write` can fail.

    States share their runs, and runs their interned entries, so each
    interned entry is rendered and escaped once, each run's text joins
    its entries' texts once, and a state's net joins the texts of its
    non-empty runs.  Each distinct label is encoded once.  The entries
    share their process nodes too, the continuation of a prefix often
    the body of another entry, so they are rendered by `render_entry`
    with one memo of process texts for the export: each distinct node
    is rendered once, a prefix as its action's text joined to its
    continuation's."""
    if write is None:
        pieces: list = []
        json_export(lts, pieces.append)
        return "".join(pieces)
    memo: dict = {}
    texts = [encode_basestring_ascii(render_entry(e, memo))[1:-1]
             for e in lts.space.entries]
    runs = [" || ".join(map(texts.__getitem__, run))
            for run in lts.space.runs]
    label = _label_texts(lts.transitions, encode_basestring_ascii)
    parts = ['{\n  "states": [']
    size, sep = 0, ""
    for sid, state in enumerate(lts.ids):
        part = (f'{sep}\n    {{\n      "id": {sid},\n      "net": '
                f'"{" || ".join([runs[r] for r in state if r])}"\n    }}')
        sep = ","
        parts.append(part)
        size += len(part)
        if size >= CHUNK_CHARS:
            write("".join(parts))
            parts.clear()
            size = 0
    parts.append("\n  ]" if sep else "]")
    parts.append(',\n  "transitions": [')
    transitions, step = lts.transitions, CHUNK_CHARS >> 8
    for i in range(0, len(transitions), step):
        part = "".join([f',\n    {{\n      "from": {t.src},\n      "label": '
                        f'{label[t.label]},\n      "to": {t.dst}\n    }}'
                        for t in transitions[i:i + step]])
        parts.append(part[1:] if not i else part)    # the list's first item
        size += len(part)
        if size >= CHUNK_CHARS:
            write("".join(parts))
            parts.clear()
            size = 0
    parts.append("\n  ]\n}" if transitions else "]\n}")
    write("".join(parts))
    return None


def _label_texts(transitions: list, encode) -> dict:
    """Each distinct label of the transitions -> encode(its text)."""
    texts = dict.fromkeys(t.label for t in transitions)
    for label in texts:
        texts[label] = encode(label.text())
    return texts


def json_text(doc, newline: str = "\n") -> str:
    """The text `json.dumps(doc, indent=2, sort_keys=True)` gives for a
    document of dicts with string keys, lists, tuples, strings, ints,
    bools and None, its lines after the first led by newline."""
    parts: list = []
    append = parts.append

    def walk(value, newline: str):
        # newline is the line break and indent of the enclosing level,
        # which begins the value's lines after the first
        if isinstance(value, str):
            append(encode_basestring_ascii(value))
        elif value is None:
            append("null")
        elif value is True or value is False:
            append("true" if value else "false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner, sep = newline + "  ", "{"
            for key in sorted(value):
                append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
                walk(value[key], inner)
                sep = ","
            append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                append(sep)
                walk(item, inner)
                sep = "," + inner
            append(newline + "]")
        else:
            raise TypeError(f"not a JSON document value: {value!r}")

    walk(doc, newline)
    return "".join(parts)


def dot_export(lts: LTS) -> str:
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph lts {", "  rankdir=LR;"]
    for i in range(len(lts.ids)):
        shape = "doublecircle" if i == 0 else "circle"
        lines.append(f'  {i} [label="s{i}", shape={shape}];')
    label = _label_texts(lts.transitions, esc)
    for t in lts.transitions:
        lines.append(f'  {t.src} -> {t.dst} [label="{label[t.label]}"];')
    lines.append("}")
    return "\n".join(lines)
