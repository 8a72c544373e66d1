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
breadth first search.

The search hash-conses its states.  A per-run `Interner` gives every
distinct entry an integer id the first time it is seen, and computes
its canonical sort key, as one string, nil group and data pair then
and only then; its location constants are computed the first time a
quantified predicate asks for them.  A state is the tuple of its
entries' ids, sorted by those keys, so deduplicating a successor
hashes a tuple of small integers once, and ordering two entries
compares two strings.  A step's label and the ids of the entries it
adds, the continuation's first, make its move, kept per acting entry,
branch and target group for an out and in the match table (below) for
an in or read, so each added entry is interned once.  The successor is
built in one pass over one copy of the state's ids: the data an in
consumes are deleted, the continuation takes the acting entry's slot
when its key lies between its neighbours' keys and is inserted by
bisection otherwise, and so is every other added id.  Only a step that
touches the nil rule sorts again.  A step touches it when an added
entry is nil, or when it is an out whose target's guard is nil: a
continuation joins the group of the entry that acted, which holds no
nil in a canonical state beside that entry, and the data an out adds
join the guard's group, whose nil, when the state holds it, is the
group's only entry and so the guard.  No state is scanned for its
nils.  The acting entries of a state are found by `itertools.compress`
over its ids, without a Python loop.  A step is checked against the
other steps of its entry only when the entry has several branches,
since steps of distinct entries differ.  Policy test atoms are set
lookups in the state's data index, built only in a state where a
policy's verdict depends on it.  The LTS keeps the id tuples
and the interner, along with the transition that first discovered
each state, from which witnesses are read back; `LTS.states` builds
ordinary `Net` values from the shared interned entries each time it
is read.

An in or read finds its partners without scanning the state.  The
interner keeps the ids of the data entries at each location, in the
order they were interned, and also those of each arity and first
constant at each location.  Each in or read branch of an acting
entry keeps a match table: how many of its candidates it has tried,
and the move of each that matched.  The candidates are the data ids
of the template's arity and first constant at the target when the
template starts with a constant, which no other tuple matches, and
all of the target's data ids otherwise.  A step first extends the
table over the candidates interned since its last use.  Since a state
is sorted by key, and a key starts with the location and then the
kind, data before processes, the entries at a location form a run
that the data lead, and the first of them guards the location: one
bisection per target location and state finds the guard, and with it
where the state's data at the target start.  The step then takes the
matches present there, in state order, by a bisection from the guard
for each id of the table, so its work is bounded by the size of the
table and not by the size of the state.

`json_export` writes the LTS's JSON text itself.  It renders and
escapes each interned entry and encodes each distinct label once; a
state's text is the join of its entries' escaped texts, and the
document is one join of its parts, byte for byte the text
`json.dumps` gives for the same document with indent 2 and sorted
keys.  The entries are rendered with one memo of process texts for
the export, so each distinct process node is rendered once, a prefix
from its continuation's text.  `json_text` writes those bytes for any
other document, such as a `check --json` report, with one recursive
walk that appends to one list, where the stdlib's indented encoder
runs in pure Python; it encodes each distinct string and lays out
each dict shape once per call.

The explorer also judges each step's policies once per exploration.
A step's combined verdict depends on the acting entry, the branch and
the nil group of the entry that guards the target (which fixes the
target policy), and on the state only through the `test` atoms of the
policies: `test` is the only leaf of `StateDomain` that reads the
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
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

from .belnap import BOT, FF, GRANTS, LIFTED, NEG_SETS, TT
from .model import (Action, AspectPol, BindVar, CAP_LETTER, Const, Cut, EBin,
                    EEqual, EFalse, ENot, EOccursIn, ETest, ETrue,
                    EvaluationError, Label, LimitExceeded, Net, NetEntry, Nil,
                    PExists, PForall, PGeq, PTestPost, Process,
                    ReplicationPresent, Substitution, Sum, Wildcard,
                    drop_nils, entry_consts, has_replication, process_actions,
                    split_entry)
from .parser import render_entry
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
    return frozenset((e.location, e.body) for e in net.entries if e.is_data())


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
    raise EvaluationError(f"unbound variable in {what}: {t!r}")


def _numeric(t) -> int:
    n = numeral(t)
    if n is None:
        raise EvaluationError(f"not a numeric constant: {t!r}")
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
            raise EvaluationError(f"unbound variable in test: {unbound!r}")
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

class Interner:
    """The distinct entries met by one exploration.

    The first time an entry is seen it gets an integer id, and with it
    everything later steps ask of it: its canonical sort key, its nil
    group (location and policy) and its (location, tuple) pair when it
    is a data entry.  Its location constants, which only a quantified
    predicate reads, are computed when `constants` first asks for
    them.  A state is the tuple of its entries' ids in canonical
    order, so comparing and hashing a state touches only integers.

    The key kept is one string, the fields of `NetEntry.sort_key`
    joined by NUL, which orders exactly as the tuple does: no location
    the grammar admits holds a NUL, the kind is `data` or `proc`, and
    the body and policy texts are reprs, which escape control
    characters.  So a NUL in a key only ever ends a field, and a field
    that is a prefix of another, as `A` is of `AB`, sorts first either
    way.  The entries at a location start at the first key not below
    the location followed by NUL.

    The ids of the data entries at each location are listed as they
    are interned, and so are those of each arity and first constant at
    each location.  A step's move, its label and the entries it adds,
    is remembered per acting entry and branch, so each entry is
    interned once, and so are the policy verdicts of a step, with the
    test atoms each one read, and for an in or read the match table of
    the data ids it has tried.
    """

    def __init__(self):
        self.entries: list = []      # id -> NetEntry
        self.branches: list = []     # id -> branches of a Sum body, or None
        self.keys: list = []         # id -> "\0".join(its sort key)
        self.locations: list = []    # id -> location
        self.groups: list = []       # id -> nil group number
        self.nils: list = []         # id -> is the body nil
        self.data: list = []         # id -> (location, tuple) or None
        self.consts: dict = {}       # id -> frozenset of location constants
        self._ids: dict = {}         # NetEntry -> id
        self._groups: dict = {}      # (location, policy text) -> group number
        self.data_at: dict = {}      # location -> ids of its data entries
        # (location, arity, first constant) -> ids of those data entries
        self.data_by: dict = {}
        # a move is [the step's label, ids of the entries it adds, the
        # continuation's first, and the nil groups of those that are nil,
        # both None until the step first fires]; (acting entry, branch,
        # target group) of an out -> its move
        self.outs: dict = {}
        # (acting entry, branch) of an in or read -> [number of the
        # candidate data ids tried, {matching data id: the step's move},
        # the list of candidate ids: the target's data ids, or those of
        # the arity and first constant of a template led by a constant]
        self.matches: dict = {}
        # (acting entry, branch, target group) -> list of (atoms found
        # present, atoms found absent, combined policy value)
        self.verdicts: dict = {}

    def intern(self, e: NetEntry) -> int:
        i = self._ids.get(e)
        if i is None:
            i = self._ids[e] = len(self.entries)
            key = e.sort_key
            self.entries.append(e)
            self.branches.append(e.body.branches
                                 if isinstance(e.body, Sum) else None)
            self.keys.append("\0".join(key))
            self.locations.append(e.location)
            self.groups.append(self._groups.setdefault((key[0], key[3]),
                                                       len(self._groups)))
            self.nils.append(isinstance(e.body, Nil))
            if e.is_data():
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

    def nil_groups(self, ids) -> frozenset:
        """The nil groups of the nil entries among ids."""
        return frozenset(self.groups[j] for j in ids if self.nils[j])

    def canonical(self, ids: list, touched) -> tuple:
        """The id form of `canonicalize` for a list of split entries
        whose nil groups other than touched obey the nil rule already."""
        groups = self.groups
        if touched:
            ids = [j for j in ids if groups[j] not in touched] + drop_nils(
                [j for j in ids if groups[j] in touched],
                groups.__getitem__, self.nils.__getitem__)
        ids.sort(key=self.keys.__getitem__)
        return tuple(ids)

    def successor(self, ids: tuple, p: int, q: Optional[int], new: tuple,
                  touched) -> tuple:
        """The canonical state after the entry at position p of the
        state ids acts: it leaves, and so does the data entry at
        position q unless q is None, and the split entries new, the
        continuation's first, come, which touch the nil rule in the
        nil groups touched.  One copy of ids is made.  The continuation
        takes the acting entry's slot when its key lies between its
        neighbours' keys, and every other new id is inserted by
        bisection; entries with equal keys are identical, so that is
        the tuple a full sort gives.  Only a step that touches the nil
        rule sorts."""
        succ = list(ids)
        if q is not None:
            del succ[q]
            p -= q < p          # the slot moves up past consumed data
        if touched:
            succ[p:p + 1] = new
            return self.canonical(succ, touched)
        key = self.keys.__getitem__
        first = key(new[0])
        if (p == 0 or key(succ[p - 1]) <= first) and (
                p + 1 == len(succ) or first <= key(succ[p + 1])):
            succ[p] = new[0]
        else:
            del succ[p]
            insort(succ, new[0], key=key)
        for j in new[1:]:
            insort(succ, j, key=key)
        return tuple(succ)

    def state(self, net: Net) -> tuple:
        """The canonical state of a network."""
        new: tuple = ()
        for e in net.entries:
            new += self.split(e.location, e.policy, e.body)
        return self.canonical(list(new), self.nil_groups(new))

    def net(self, ids) -> Net:
        return Net(tuple(map(self.entries.__getitem__, ids)))

    def data_index(self, ids) -> frozenset:
        """`data_index` of a state."""
        return frozenset(filter(None, map(self.data.__getitem__, ids)))

    def constants(self, ids) -> frozenset:
        """`loc_set` of a state."""
        consts = self.consts
        try:
            return frozenset().union(*map(consts.__getitem__, ids))
        except KeyError:        # an entry asked for the first time
            for i in ids:
                if i not in consts:
                    consts[i] = entry_consts(self.entries[i])
            return frozenset().union(*map(consts.__getitem__, ids))


# ---------------------------------------------------------------------------
# steps

def policies_by_location(net: Net) -> dict:
    pols: dict = {}
    for e in net.entries:
        pols.setdefault(e.location, e.policy)
    return pols


def step_candidates(state, space: Optional[Interner] = None, ample=None):
    """All transition candidates out of a network.

    Returns (steps, denied): steps is a list of (label, successor) in
    deterministic order with duplicates removed, denied is a list of
    (label, combined-policy-value) for candidates whose action was
    blocked by the policies.

    `state` is a Net, taken to its canonical form first, and the
    successors are canonical Nets; within an exploration it is the id
    tuple of a state of `space`, and so are the successors.

    `ample`, when given, is called as ample(space, ids, p) for the
    entries at positions p of the state that have a step, in order,
    and the steps are those of the first entry it accepts, or of every
    entry when it accepts none.  Every entry's branches are judged
    either way, so an EvaluationError surfaces in the same states.
    """
    if space is not None:
        return _steps(state, space, ample)
    space = Interner()
    steps, denied = _steps(space.state(state), space, ample)
    return [(label, space.net(succ)) for label, succ in steps], denied


def _steps(ids: tuple, space: Interner, ample=None):
    entries, locations, data_of = space.entries, space.locations, space.data
    nils = space.nils
    outs, verdicts, matches = space.outs, space.verdicts, space.matches
    data_at, data_by, n = space.data_at, space.data_by, len(ids)
    oplus = LIFTED["oplus"]
    # a location's entries are a run of the sorted state, led by its
    # data, and the first guards it; identical entries have equal keys,
    # so a bisection for an entry's key finds its first position
    key = space.keys.__getitem__
    firsts: dict = {}           # target location -> its first position
    data = None                 # the state's data index, once a policy reads it
    # (position of the acting entry, its move, position of the data
    # entry an in consumes or None, nil groups the step touches, does
    # the entry have other branches)
    moves: list = []
    denied: dict = {}           # (label, value) -> None, in order

    # the positions of the entries that act, found without a Python
    # loop over the state: branches is None for the others
    for p in compress(count(), map(space.branches.__getitem__, ids)):
        i = ids[p]
        if p and ids[p - 1] == i:
            # an identical entry, next to it in the sorted state, makes
            # identical steps
            continue
        branches = space.branches[i]
        several = len(branches) > 1
        e = entries[i]
        for k, (action, cont) in enumerate(branches):
            tgt = action.target
            if not isinstance(tgt, Const):
                raise EvaluationError(f"unbound target in {action!r}")
            lo = firsts.get(tgt.name)
            if lo is None:
                lo = firsts[tgt.name] = bisect_left(ids, tgt.name + "\0",
                                                    key=key)
            if lo == n or locations[ids[lo]] != tgt.name:
                continue            # no entry to receive or hold the data
            holder = ids[lo]
            step = (i, k, space.groups[holder])
            for present, absent, f in verdicts.get(step, ()):
                if not (present or absent):
                    break           # the verdict read nothing of the state
                if data is None:
                    data = space.data_index(ids)
                if present <= data and data.isdisjoint(absent):
                    break
            else:
                if data is None:
                    data = space.data_index(ids)
                here = StateDomain(data)
                src = policy_values(e.policy, e.location, action, cont, here)
                f = oplus[src][policy_values(entries[holder].policy,
                                             e.location, action, cont, here)]
                verdicts.setdefault(step, []).append(
                    (frozenset(here.present), frozenset(here.absent), f))
            granted = f & GRANTS
            if action.cap == "out":
                move = outs.get(step)
                if move is None:
                    move = outs[step] = [Label(
                        e.location, CAP_LETTER["out"],
                        tuple(_ground_name(t, "out argument")
                              for t in action.args), tgt.name), None, None]
                if not granted:
                    denied[move[0], f] = None
                    continue
                if move[1] is None:
                    new = space.split(e.location, e.policy, cont)
                    move[2] = space.nil_groups(new)
                    move[1] = new + (space.intern(NetEntry(
                        tgt.name, entries[holder].policy, move[0].args)),)
                # a nil guard is the only entry of its group, which the
                # data join
                moves.append((p, move, None, move[2] | {step[2]}
                              if nils[holder] else move[2], several))
                continue
            table = matches.get((i, k))
            if table is None:
                first = action.args[0] if action.args else None
                table = matches[i, k] = [0, {}, data_by.setdefault(
                    (tgt.name, len(action.args), first.name), [])
                    if isinstance(first, Const)
                    else data_at.setdefault(tgt.name, [])]
            tried, found, held = table
            if tried < len(held):   # data ids interned since the last use
                letter = CAP_LETTER[action.cap]
                for d in held[tried:]:
                    values = data_of[d][1]
                    if match(action.args, values) is not None:
                        found[d] = [Label(e.location, letter, values,
                                          tgt.name), None, None]
                table[0] = len(held)
            # the matches among the state's data at the target, by
            # position: a bisection from lo for each id of the table
            hits = []
            for d in found:
                r = bisect_left(ids, key(d), lo, key=key)
                if r < n and ids[r] == d:
                    hits.append((r, d))
            hits.sort()
            consumed = set()        # identical tuples make identical steps
            for r, d in hits:
                move = found[d]
                label = move[0]
                if label.args in consumed:
                    continue
                consumed.add(label.args)
                if not granted:
                    denied[label, f] = None
                    continue
                if move[1] is None:
                    move[1] = space.split(
                        e.location, e.policy,
                        match(action.args, label.args).apply(cont))
                    move[2] = space.nil_groups(move[1])
                moves.append((p, move, None if action.cap == "read" else r,
                              move[2], several))
    if ample is not None:
        for p in dict.fromkeys(m[0] for m in moves):
            if ample(space, ids, p):
                moves = [m for m in moves if m[0] == p]
                break
    steps: list = []
    # distinct entries never make the same step; branches of one can
    seen: set = set()
    for p, (label, new, _), q, touched, several in moves:
        succ = space.successor(ids, p, q, new, touched)
        if several:
            if (p, label, succ) in seen:
                continue
            seen.add((p, label, succ))
        steps.append((label, succ))
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
    ids: list                # state id -> its id tuple in `space`
    space: Interner          # the entries the states are built from

    @property
    def states(self) -> list:
        """State id -> canonical Net, built anew on each access."""
        return [self.space.net(s) for s in self.ids]


def build_lts(net: Net, max_states: int = 100000, max_depth: int = 10000,
              ample=None, visit=None) -> LTS:
    """Breadth first exploration of the reachable state space.

    `ample` is passed on to `step_candidates`, so that each state
    expands the steps of the one entry it accepts, when it accepts one;
    without it the LTS is the whole reachable state space.  `visit` is
    called as visit(lts, transition) on every transition as it is
    discovered, and the search stops after the first one for which it
    returns true; the LTS then holds the states discovered so far.
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


def json_export(lts: LTS) -> str:
    """The LTS as the text `json.dumps(doc, indent=2, sort_keys=True)`
    gives for the document {"states": [{"id", "net"}], "transitions":
    [{"from", "label", "to"}]}, where a state's net is its `net_text`.
    States share their interned entries, so each interned entry is
    rendered and escaped once, a state's text joins the escaped texts,
    each distinct label is encoded once, and the document is one join
    of its parts.  The entries share their process nodes too, the
    continuation of a prefix often the body of another entry, so they
    are rendered by `render_entry` with one memo of process texts for
    the export: each distinct node is rendered once, a prefix as its
    action's text joined to its continuation's."""
    memo: dict = {}
    texts = [encode_basestring_ascii(render_entry(e, memo))[1:-1]
             for e in lts.space.entries].__getitem__
    parts = ['{\n  "states": [']
    for sid, ids in enumerate(lts.ids):
        parts += (f',\n    {{\n      "id": {sid},\n      "net": "',
                  " || ".join(map(texts, ids)), '"\n    }')
    _end_list(parts, 1)
    parts.append(',\n  "transitions": [')
    start = len(parts)
    label = _label_texts(lts.transitions, encode_basestring_ascii)
    parts += (f',\n    {{\n      "from": {t.src},\n      "label": '
              f'{label[t.label]},\n      "to": {t.dst}\n    }}'
              for t in lts.transitions)
    _end_list(parts, start)
    parts.append("\n}")
    return "".join(parts)


def _label_texts(transitions: list, encode) -> dict:
    """Each distinct label of the transitions -> encode(its text)."""
    texts = dict.fromkeys(t.label for t in transitions)
    for label in texts:
        texts[label] = encode(label.text())
    return texts


def _end_list(parts: list, start: int):
    """Close the JSON list whose items, each led by a comma, are
    parts[start:], as `json.dumps` indents a list one level down."""
    if len(parts) == start:
        parts.append("]")
    else:
        parts[start] = parts[start][1:]
        parts.append("\n  ]")


class _Encoded(dict):
    """str -> its JSON text, encoded when first asked."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


def json_text(doc) -> str:
    """The text `json.dumps(doc, indent=2, sort_keys=True)` gives for a
    document of dicts with string keys, lists, tuples, strings, ints,
    bools and None, written into one list of parts by one recursive
    walk.  A report repeats a few dict shapes and many strings, so
    within a call each distinct string is encoded once, a string in a
    dict or a list is written without a call of the walk, and the
    sorted keys of each dict shape at each depth are laid out once,
    with the line breaks, indents and separators before them."""
    parts: list = []
    append = parts.append
    strings = _Encoded()
    # (keys in dict order, newline) -> [(key, the text before its value)]
    shapes: dict = {}

    def walk(value, newline: str):
        # newline is the line break and indent of the enclosing level,
        # which begins the value's lines after the first
        if isinstance(value, str):
            append(strings[value])
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
            shape = (tuple(value), newline)
            keys = shapes.get(shape)
            if keys is None:
                inner, sep, keys = newline + "  ", "{", []
                for key in sorted(value):
                    keys.append((key, f"{sep}{inner}{strings[key]}: "))
                    sep = ","
                shapes[shape] = keys
            inner = newline + "  "
            for key, before in keys:
                append(before)
                item = value[key]
                if item.__class__ is str:
                    append(strings[item])
                else:
                    walk(item, inner)
            append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                append(sep)
                if item.__class__ is str:
                    append(strings[item])
                else:
                    walk(item, inner)
                sep = "," + inner
            append(newline + "]")
        else:
            raise TypeError(f"not a JSON document value: {value!r}")

    walk(doc, "\n")
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
