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

Policies and obligation predicates have one evaluator each,
`policy_values` and `pred_values`, over value sets: nonempty sets of
the four values, with every operator lifted pointwise.  A value domain
supplies the leaves (equality, test, >= and occurs-in) and says
whether it is exact.  The explorer runs the evaluators in the
concrete `StateDomain` of a state, where every set is a singleton.
The static certifier (certify.py) runs them in an abstract domain
whose leaves cover every reachable state, so its sets hold every
value the explorer can meet: it is the explorer's evaluator run in
the abstract domain.

States are kept in canonical form, which makes the state space of a
replication-free network finite and the construction below a plain
breadth first search.

The search hash-conses its states.  A per-run `Interner` gives every
distinct entry an integer id the first time it is seen, and computes
its canonical sort key, nil group, data pair and location constants
then and only then.  A state is the tuple of its entries' ids, sorted
by those keys, so deduplicating a successor hashes a tuple of small
integers once.  A step carries the ids of the entries it leaves alone
over from its source state and interns only the entries it adds,
which are remembered per acting entry and branch.  Policy test atoms
are set lookups in the state's data index.  The LTS keeps the id
tuples and the interner, along with the transition that first
discovered each state, from which witnesses are read back;
`LTS.states` builds ordinary `Net` values from the shared interned
entries on first access.

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

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .belnap import BOT, FF, GRANTS, LIFTED, NEG_SETS, TT, only, vset
from .model import (Action, AspectPol, BindVar, CAP_LETTER, Const, Cut, EBin,
                    EEqual, EFalse, ENot, EOccursIn, ETest, ETrue,
                    EvaluationError, Label, LimitExceeded, Net, NetEntry, Nil,
                    PExists, PForall, PGeq, PTestPost, Process,
                    ReplicationPresent, Substitution, Sum, Wildcard,
                    drop_nils, entry_consts, has_replication, process_actions,
                    split_entry)
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
    for action, _ in process_actions(proc):
        if action.cap != template.cap:
            continue
        if findsubs((Const("_s"), template.args, template.target),
                    (Const("_s"), action.args, action.target)) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# evaluation over value sets

TRUE, FALSE, BOTH, BOTTOM = vset(TT), vset(FF), vset(TT, FF), vset(BOT)


def data_index(net: Net) -> frozenset:
    """The (location, tuple) pairs of the network's data entries."""
    return frozenset((e.location, e.body) for e in net.entries if e.is_data())


def interp_test(args, at: str, data) -> bool:
    """Is the ground tuple present as a data entry at the location.
    `data` is a state's data index, as `data_index` returns it."""
    return (at, tuple(args)) in data


def ground_names(terms) -> Optional[tuple]:
    """The names of the terms, or None unless every one is a constant."""
    names = tuple(t.name for t in terms if isinstance(t, Const))
    return names if len(names) == len(terms) else None


def numeral(t) -> Optional[int]:
    """The value of a constant written in ASCII digits, else None."""
    if isinstance(t, Const) and t.name.isascii() and t.name.isdigit():
        return int(t.name)
    return None


def truth(b: bool) -> int:
    return TRUE if b else FALSE


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
    names no tuple and is false."""

    exact = True

    def __init__(self, pre: frozenset, post: frozenset = frozenset()):
        self.pre, self.post = pre, post

    def equal(self, left, right) -> int:
        return truth(_ground_name(left, "equality")
                      == _ground_name(right, "equality"))

    def geq(self, left, right) -> int:
        return truth(_numeric(left) >= _numeric(right))

    def test(self, args, at, post: Optional[bool] = None) -> int:
        # post is None in a policy, else the side of the step read
        if post is None:
            vals = [_ground_name(t, "test") for t in args]
            return truth(interp_test(vals, _ground_name(at, "test"),
                                      self.pre))
        vals = ground_names(args)
        return truth(vals is not None and isinstance(at, Const)
                      and interp_test(vals, at.name,
                                      self.post if post else self.pre))

    def occurs(self, action: Action, var: str, env: dict) -> int:
        if var not in env:
            raise EvaluationError(f"occurs-in variable {var} is unbound")
        return truth(occurs_in(action, env[var]))


class RecordingDomain(StateDomain):
    """The concrete domain of one state for policies, noting the test
    atoms it answers as (location, tuple) pairs, split into those found
    present and those found absent."""

    def __init__(self, pre: frozenset):
        super().__init__(pre)
        self.present, self.absent = set(), set()

    def test(self, args, at, post: Optional[bool] = None) -> int:
        value = super().test(args, at, post)
        atom = (at.name, tuple(t.name for t in args))
        (self.present if value == TRUE else self.absent).add(atom)
        return value


def expr_values(e, domain, env: dict) -> int:
    """The value set of a recommendation or condition, where env binds
    the trap's process variable to the continuation."""
    if isinstance(e, ETrue):
        return TRUE
    if isinstance(e, EFalse):
        return FALSE
    if isinstance(e, ENot):
        return NEG_SETS[expr_values(e.body, domain, env)]
    if isinstance(e, EBin):
        left = expr_values(e.left, domain, env)
        return LIFTED[e.op][left][expr_values(e.right, domain, env)]
    if isinstance(e, EEqual):
        return domain.equal(e.left, e.right)
    if isinstance(e, ETest):
        return domain.test(e.args, e.at)
    if isinstance(e, EOccursIn):
        return domain.occurs(e.action, e.var, env)
    raise TypeError(f"not an expression: {e!r}")


def check_cut(cut: Cut, subject: str, action: Action, continuation: Process):
    """Unify a trap pattern with an attempted action.

    Returns the unifier together with the continuation binding for the
    cut's process variable, or None when the pattern does not apply.
    """
    if cut.action.cap != action.cap:
        return None
    th = findsubs((cut.subject, cut.action.args, cut.action.target),
                  (Const(subject), action.args, action.target))
    if th is None:
        return None
    return th, {cut.cont_var: continuation}


def policy_values(pol, subject: str, action: Action, continuation: Process,
                  domain, sure: Optional[list] = None) -> int:
    """The value set of a policy judging an attempted action.

    In an inexact domain a trap adds bot when it may let the action
    pass: its condition only may hold, or it binds a variable of the
    action and so catches only some instantiations.  The instantiated
    recommendations of the other traps that reach the top through
    oplus alone are appended to `sure` when it is a list.
    """
    if isinstance(pol, ETrue):
        return TRUE
    if isinstance(pol, EFalse):
        return FALSE
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
        res = check_cut(asp.cut, subject, action, continuation)
        if res is None:
            return BOTTOM
        th, env = res
        cond = expr_values(th.apply_expr(asp.cond), domain, env)
        if not cond & TRUE:
            return BOTTOM
        rec = th.apply_expr(asp.rec)
        values = expr_values(rec, domain, env)
        if domain.exact:
            return values
        if cond != TRUE or any(not k.startswith(("$", "#", "!"))
                               for k, _ in th.pairs):
            return values | BOTTOM
        if sure is not None:
            sure.append(rec)
        return values
    raise TypeError(f"not a policy: {pol!r}")


def pred_values(pred, domain, locs) -> int:
    """The value set, within {tt, ff}, of an obligation's predicate on
    a step, with quantifiers ranging over the location constants locs.
    and, or and the quantifiers stop once their value is decided.  In
    an inexact domain the range at run time may be any subset of locs,
    so a quantifier may also take its value on the empty range."""
    if isinstance(pred, ETrue):
        return TRUE
    if isinstance(pred, EFalse):
        return FALSE
    if isinstance(pred, ENot):
        return NEG_SETS[pred_values(pred.body, domain, locs)]
    if isinstance(pred, (EBin, PForall, PExists)):
        quantified = not isinstance(pred, EBin)
        conj = isinstance(pred, PForall) if quantified else pred.op == "and"
        op = LIFTED["and" if conj else "or"]
        unit, decided = (TRUE, FALSE) if conj else (FALSE, TRUE)
        parts = (Substitution(((pred.var, Const(loc)),)).apply_expr(pred.body)
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


# ---------------------------------------------------------------------------
# interned states

class Interner:
    """The distinct entries met by one exploration.

    The first time an entry is seen it gets an integer id, and with it
    everything later steps ask of it: its canonical sort key, its nil
    group (location and policy), its (location, tuple) pair when it is
    a data entry, and its location constants.  A state is the tuple of
    its entries' ids in canonical order, so comparing and hashing a
    state touches only integers.  The entries a step adds are also
    remembered per acting entry and branch, so each is interned once,
    and so are the policy verdicts of a step, with the test atoms each
    one read.
    """

    def __init__(self):
        self.entries: list = []      # id -> NetEntry
        self.keys: list = []         # id -> canonical sort key
        self.locations: list = []    # id -> location
        self.groups: list = []       # id -> nil group number
        self.nils: list = []         # id -> is the body nil
        self.data: list = []         # id -> (location, tuple) or None
        self.consts: list = []       # id -> frozenset of location constants
        self._ids: dict = {}         # NetEntry -> id
        self._groups: dict = {}      # (location, policy text) -> group number
        # (acting entry, branch, target group for out or matched data
        # entry for in and read) -> ids of the entries the step adds
        self.added: dict = {}
        # (acting entry, branch) for out, or (acting entry, branch,
        # data entry) for in and read -> the step's label, or None
        # when the data entry does not match
        self.labels: dict = {}
        # (acting entry, branch, target group) -> list of (atoms found
        # present, atoms found absent, combined policy value)
        self.verdicts: dict = {}

    def intern(self, e: NetEntry) -> int:
        i = self._ids.get(e)
        if i is None:
            i = self._ids[e] = len(self.entries)
            key = e.sort_key
            self.entries.append(e)
            self.keys.append(key)
            self.locations.append(e.location)
            self.groups.append(self._groups.setdefault((key[0], key[3]),
                                                       len(self._groups)))
            self.nils.append(isinstance(e.body, Nil))
            self.data.append((e.location, e.body) if e.is_data() else None)
            self.consts.append(entry_consts(e))
        return i

    def split(self, loc: str, pol, body) -> tuple:
        """Ids of the entries of body at loc, split at parallels."""
        flat: list = []
        split_entry(loc, pol, body, flat)
        return tuple(self.intern(e) for e in flat)

    def canonical(self, kept: tuple, new: tuple, nil_groups=()) -> tuple:
        """The id form of `canonicalize`: the canonical state of kept +
        new, where new are split entries and kept is a canonical state
        less some non-nil entries, with nil_groups the groups of its nil
        entries.  The nil rule then has work only in a group that an
        entry of new is nil in or joins as the group of a nil, and the
        groups of kept alone are canonical already."""
        ids = list(kept + new)
        nils, groups = self.nils, self.groups
        touched = {groups[j] for j in new if nils[j] or groups[j] in nil_groups}
        if touched:
            ids = [j for j in ids if groups[j] not in touched] + drop_nils(
                [j for j in ids if groups[j] in touched],
                groups.__getitem__, nils.__getitem__)
        ids.sort(key=self.keys.__getitem__)
        return tuple(ids)

    def state(self, net: Net) -> tuple:
        """The canonical state of a network."""
        new: tuple = ()
        for e in net.entries:
            new += self.split(e.location, e.policy, e.body)
        return self.canonical((), new)

    def net(self, ids) -> Net:
        return Net(tuple(map(self.entries.__getitem__, ids)))

    def data_index(self, ids) -> frozenset:
        """`data_index` of a state."""
        return frozenset(filter(None, map(self.data.__getitem__, ids)))

    def constants(self, ids) -> frozenset:
        """`loc_set` of a state."""
        return frozenset().union(*map(self.consts.__getitem__, ids))


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
    added, verdicts, labels = space.added, space.verdicts, space.labels
    oplus = LIFTED["oplus"]
    # location -> id of its first entry, whose policy guards it
    first = dict(zip(map(locations.__getitem__, ids[::-1]), ids[::-1]))
    data = space.data_index(ids)
    nil_groups = {space.groups[j] for j in ids if space.nils[j]}
    # (position of the acting entry, label, position in the rest of the
    # state of the data entry an in consumes or None, added ids)
    moves: list = []
    denied: list = []
    seen_denied: set = set()
    done: set = set()

    def deny(label, f):
        if (label, f) not in seen_denied:
            seen_denied.add((label, f))
            denied.append((label, only(f)))

    for p, i in enumerate(ids):
        e = entries[i]
        if i in done or not isinstance(e.body, Sum):
            continue
        done.add(i)             # an identical entry makes identical steps
        rest = ids[:p] + ids[p + 1:]
        for k, (action, cont) in enumerate(e.body.branches):
            tgt = action.target
            if not isinstance(tgt, Const):
                raise EvaluationError(f"unbound target in {action!r}")
            holder = first.get(tgt.name)
            if holder is None:
                continue            # no entry to receive or hold the data
            tgt_pol = entries[holder].policy
            key = (i, k, space.groups[holder])
            for present, absent, f in verdicts.get(key, ()):
                if present <= data and data.isdisjoint(absent):
                    break
            else:
                here = RecordingDomain(data)
                src = policy_values(e.policy, e.location, action, cont, here)
                f = oplus[src][policy_values(tgt_pol, e.location, action,
                                             cont, here)]
                verdicts.setdefault(key, []).append(
                    (frozenset(here.present), frozenset(here.absent), f))
            granted = f & GRANTS
            letter = CAP_LETTER[action.cap]
            if action.cap == "out":
                label = labels.get((i, k))
                if label is None:
                    label = labels[i, k] = Label(
                        e.location, letter,
                        tuple(_ground_name(t, "out argument")
                              for t in action.args), tgt.name)
                if not granted:
                    deny(label, f)
                    continue
                new = added.get(key)
                if new is None:
                    new = added[key] = space.split(
                        e.location, e.policy, cont) + (space.intern(
                            NetEntry(tgt.name, tgt_pol, label.args)),)
                moves.append((p, label, None, new))
                continue
            consumed = set()        # identical tuples make identical steps
            for q, d in enumerate(rest):
                dd = data_of[d]
                if dd is None or dd[0] != tgt.name or dd[1] in consumed:
                    continue
                key = (i, k, d)
                label = labels.get(key, False)
                if label is False:
                    label = labels[key] = None \
                        if match(action.args, dd[1]) is None \
                        else Label(e.location, letter, dd[1], tgt.name)
                if label is None:
                    continue
                consumed.add(dd[1])
                if not granted:
                    deny(label, f)
                    continue
                new = added.get(key)
                if new is None:
                    new = added[key] = space.split(
                        e.location, e.policy,
                        match(action.args, dd[1]).apply_process(cont))
                moves.append((p, label, None if action.cap == "read" else q,
                              new))
    if ample is not None:
        for p in dict.fromkeys(m[0] for m in moves):
            if ample(space, ids, p):
                moves = [m for m in moves if m[0] == p]
                break
    steps: list = []
    # distinct entries never make the same step; branches of one can
    seen: set = set()
    for p, label, q, new in moves:
        rest = ids[:p] + ids[p + 1:]
        kept = rest if q is None else rest[:q] + rest[q + 1:]
        succ = space.canonical(kept, new, nil_groups)
        if (p, label, succ) not in seen:
            seen.add((p, label, succ))
            steps.append((label, succ))
    return steps, denied


# ---------------------------------------------------------------------------
# transition systems

@dataclass(frozen=True)
class Transition:
    src: int
    dst: int
    label: Label


@dataclass
class LTS:
    transitions: list        # in discovery order
    discovered_by: list      # state id -> first Transition into it, or None
    ids: list                # state id -> its id tuple in `space`
    space: Interner          # the entries the states are built from
    initial: int = 0

    @cached_property
    def states(self) -> list:
        """State id -> canonical Net, built on first access."""
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
    queue = deque([0])
    while queue:
        sid = queue.popleft()
        steps, _ = step_candidates(ids[sid], space, ample)
        for label, succ in steps:
            nid = index.get(succ)
            if nid is None:
                if len(ids) >= max_states:
                    raise LimitExceeded("states", max_states)
                d = depth[sid] + 1
                if d > max_depth:
                    raise LimitExceeded("depth", max_depth)
                nid = len(ids)
                index[succ] = nid
                ids.append(succ)
                depth.append(d)
                queue.append(nid)
                t = Transition(sid, nid, label)
                discovered_by.append(t)
            else:
                t = Transition(sid, nid, label)
            transitions.append(t)
            if visit is not None and visit(lts, t):
                queue.clear()
                break
    return lts


def net_text(net: Net) -> str:
    from .parser import render_net
    return render_net(net).replace("\n", " ")


def json_export(lts: LTS) -> dict:
    from .parser import render_entry
    # states share their interned entries, so each is rendered once;
    # joined, the texts read as net_text of the state
    texts: dict = {}

    def entry_text(i: int) -> str:
        text = texts.get(i)
        if text is None:
            entry = lts.space.entries[i]
            text = texts[i] = render_entry(entry).replace("\n", " ")
        return text

    return {
        "states": [{"id": sid, "net": " || ".join(map(entry_text, ids))}
                   for sid, ids in enumerate(lts.ids)],
        "transitions": [{"from": t.src, "to": t.dst, "label": t.label.text()}
                        for t in lts.transitions],
    }


def dot_export(lts: LTS) -> str:
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph lts {", "  rankdir=LR;"]
    for i in range(len(lts.ids)):
        shape = "doublecircle" if i == lts.initial else "circle"
        lines.append(f'  {i} [label="s{i}", shape={shape}];')
    for t in lts.transitions:
        lines.append(f'  {t.src} -> {t.dst} [label="{esc(t.label.text())}"];')
    lines.append("}")
    return "\n".join(lines)
