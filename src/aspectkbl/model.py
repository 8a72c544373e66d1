"""Abstract syntax for networks, policies and obligations.

A network is a multiset of located entries; each entry carries a
location name, a policy expression and either a process or a data
tuple.  Data tuples are kept as plain tuples of constant names since
they are always ground.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Union


class AkblError(Exception):
    pass


class ReplicationPresent(AkblError):
    """Raised when a checker meets a replicated process."""


class EvaluationError(AkblError):
    """Raised when a policy or predicate cannot be evaluated."""


class LimitExceeded(AkblError):
    def __init__(self, kind: str, limit: int):
        super().__init__(f"exploration limit exceeded: {kind} > {limit}")
        self.kind = kind
        self.limit = limit


@dataclass(frozen=True)
class Diagnostic:
    severity: str            # "error" or "warning"
    message: str
    line: int = 0
    col: int = 0

    def format(self) -> str:
        where = f"{self.line}:{self.col}: " if self.line else ""
        return f"{where}{self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    # name keeps its sigil: "$u" in obligations, "#u" in aspects,
    # bare "u" for a process variable bound by an earlier !u
    name: str


@dataclass(frozen=True)
class BindVar:
    name: str                # written !name


@dataclass(frozen=True)
class Wildcard:
    pass


WILDCARD = Wildcard()

Term = Union[Const, Var, BindVar, Wildcard]


def subst_key(t: Term) -> str:
    """Substitution key of a variable-like term."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, BindVar):
        return "!" + t.name
    raise EvaluationError(f"not a substitutable term: {t!r}")


# ---------------------------------------------------------------------------
# actions and processes

OUT, IN, READ = "out", "in", "read"
CAP_LETTER = {OUT: "o", IN: "i", READ: "r"}
LETTER_CAP = {v: k for k, v in CAP_LETTER.items()}


@dataclass(frozen=True)
class Action:
    cap: str                 # out, in or read
    args: tuple              # tuple of Term
    target: Term


@dataclass(frozen=True)
class Nil:
    pass


NIL = Nil()


@dataclass(frozen=True)
class Sum:
    branches: tuple          # nonempty tuple of (Action, Process)


@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class Repl:
    body: "Process"


Process = Union[Nil, Sum, Par, Repl]


# ---------------------------------------------------------------------------
# policies, rec/cond expressions and predicates

@dataclass(frozen=True)
class Cut:
    """Trap pattern of an aspect: subject :: action-template . X."""
    subject: Term
    action: Action
    cont_var: str


# Policies, rec/cond expressions and obligation predicates share one
# node per constant, connective, equality and test; the parser admits
# in each syntax only its own operators.  AspectPol belongs to policies
# alone, EOccursIn to expressions, and the quantifiers, test' and >=
# (below) to predicates.

@dataclass(frozen=True)
class ETrue:
    pass


@dataclass(frozen=True)
class EFalse:
    pass


@dataclass(frozen=True)
class ENot:
    body: "Expr"


@dataclass(frozen=True)
class EBin:
    op: str                  # oplus otimes and or implies pref
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class EEqual:
    left: Term
    right: Term


@dataclass(frozen=True)
class ETest:
    args: tuple
    at: Term


@dataclass(frozen=True)
class EOccursIn:
    action: Action           # template matched against a continuation
    var: str                 # the cut's continuation variable


Expr = Union[ETrue, EFalse, ENot, EBin, EEqual, ETest, EOccursIn]


@dataclass(frozen=True)
class Aspect:
    rec: Expr
    cut: Cut
    cond: Expr


@dataclass(frozen=True)
class AspectPol:
    aspect: Aspect


Policy = Union[ETrue, EFalse, ENot, EBin, AspectPol]


# ---------------------------------------------------------------------------
# obligations

@dataclass(frozen=True)
class LabelPattern:
    """Trap pattern of an obligation over transition labels."""
    subject: Term
    cap: str                 # letter form: o, i or r
    args: tuple
    target: Term             # a Const for well-formed obligations


@dataclass(frozen=True)
class PForall:
    var: str                 # sigiled, e.g. "$x"
    body: "Pred"


@dataclass(frozen=True)
class PExists:
    var: str
    body: "Pred"


@dataclass(frozen=True)
class PTestPost:
    """test' form, interpreted on the successor state of a transition."""
    args: tuple
    at: Term


@dataclass(frozen=True)
class PGeq:
    left: Term
    right: Term


Pred = Union[ETrue, EFalse, ENot, EBin, PForall, PExists, EEqual, ETest,
             PTestPost, PGeq]


@dataclass(frozen=True)
class Obligation:
    cut: LabelPattern
    pred: Pred


# ---------------------------------------------------------------------------
# networks

@dataclass(frozen=True)
class NetEntry:
    location: str
    policy: Policy
    body: Union[Process, tuple]   # a tuple of constant names is a data entry

    def is_data(self) -> bool:
        return isinstance(self.body, tuple)

    @cached_property
    def sort_key(self) -> tuple:
        """The total syntactic order of canonical forms, rendered once
        per entry object: (location, kind, body text, policy text)."""
        kind = "data" if self.is_data() else "proc"
        return (self.location, kind, repr(self.body), repr(self.policy))


@dataclass(frozen=True)
class Net:
    entries: tuple           # tuple of NetEntry


@dataclass(frozen=True)
class Label:
    """Transition label: subject performs cap(args) at target."""
    subject: str
    cap: str                 # letter form: o, i or r
    args: tuple              # tuple of constant names
    target: str

    def text(self) -> str:
        return f"{self.subject}:{self.cap}({','.join(self.args)})@{self.target}"


@dataclass(frozen=True)
class LocatedAction:
    """An action as it occurs in a network entry."""
    source: str
    policy: Policy
    action: Action
    continuation: Process


# ---------------------------------------------------------------------------
# substitutions

class Substitution:
    """Ordered sequence of single bindings, applied front to back.

    Keys are variable names with their sigil, binders keyed as "!name".
    Composition is concatenation, so (s1.then(s2)) applies s1 first.
    """
    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        self.pairs = tuple(pairs)

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        inner = ", ".join(f"{k}={render_term(v)}" for k, v in self.pairs)
        return f"[{inner}]"

    def __bool__(self):
        return bool(self.pairs)

    def then(self, other: "Substitution") -> "Substitution":
        return Substitution(self.pairs + other.pairs)

    # -- application ------------------------------------------------------

    def apply_term(self, t: Term) -> Term:
        for key, val in self.pairs:
            t = _subst_term(t, key, val)
        return t

    def apply_action(self, a: Action) -> Action:
        return Action(a.cap, tuple(self.apply_term(x) for x in a.args),
                      self.apply_term(a.target))

    def apply_process(self, p: Process) -> Process:
        for key, val in self.pairs:
            p = _subst_process(p, key, val)
        return p

    def apply_expr(self, e: Expr) -> Expr:
        for key, val in self.pairs:
            e = _subst_expr(e, key, val)
        return e

    def apply_located(self, la: LocatedAction) -> LocatedAction:
        return LocatedAction(la.source, la.policy,
                             self.apply_action(la.action),
                             self.apply_process(la.continuation))


def _subst_term(t: Term, key: str, val: Term) -> Term:
    if isinstance(t, Var) and t.name == key:
        return val
    if isinstance(t, BindVar) and "!" + t.name == key:
        return val
    return t


def _subst_action(a: Action, key: str, val: Term) -> Action:
    return Action(a.cap, tuple(_subst_term(x, key, val) for x in a.args),
                  _subst_term(a.target, key, val))


def _binds(a: Action, key: str) -> bool:
    return any(isinstance(x, BindVar) and x.name == key for x in a.args)


def _subst_process(p: Process, key: str, val: Term) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Sum):
        branches = []
        for action, cont in p.branches:
            new_action = _subst_action(action, key, val)
            # a binder of the same name shadows the binding below it
            new_cont = cont if _binds(action, key) else _subst_process(cont, key, val)
            branches.append((new_action, new_cont))
        return Sum(tuple(branches))
    if isinstance(p, Par):
        return Par(_subst_process(p.left, key, val), _subst_process(p.right, key, val))
    if isinstance(p, Repl):
        return Repl(_subst_process(p.body, key, val))
    raise TypeError(f"not a process: {p!r}")


def _subst_expr(e, key: str, val: Term):
    """Substitute in a rec/cond expression or a predicate."""
    if isinstance(e, (ETrue, EFalse)):
        return e
    if isinstance(e, ENot):
        return ENot(_subst_expr(e.body, key, val))
    if isinstance(e, EBin):
        return EBin(e.op, _subst_expr(e.left, key, val), _subst_expr(e.right, key, val))
    if isinstance(e, (EEqual, PGeq)):
        return type(e)(_subst_term(e.left, key, val), _subst_term(e.right, key, val))
    if isinstance(e, (ETest, PTestPost)):
        return type(e)(tuple(_subst_term(t, key, val) for t in e.args),
                       _subst_term(e.at, key, val))
    if isinstance(e, EOccursIn):
        return EOccursIn(_subst_action(e.action, key, val), e.var)
    if isinstance(e, (PForall, PExists)):
        if e.var == key:      # quantifier shadows
            return e
        return type(e)(e.var, _subst_expr(e.body, key, val))
    raise TypeError(f"not an expression: {e!r}")


def render_term(t) -> str:
    """The source text of a term."""
    if isinstance(t, (Const, Var)):
        return t.name
    if isinstance(t, BindVar):
        return "!" + t.name
    if isinstance(t, Wildcard):
        return "_"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# canonical form

def split_entry(loc: str, pol: Policy, body, out: list):
    """Append the entries of body at loc, split at top-level parallels."""
    if isinstance(body, Par):
        split_entry(loc, pol, body.left, out)
        split_entry(loc, pol, body.right, out)
    else:
        out.append(NetEntry(loc, pol, body))


def drop_nils(items: list, group, is_nil) -> list:
    """The nil rule: keep a nil item only while no other item of its
    group (location and policy) is kept, and then only its first."""
    alive = {group(x) for x in items if not is_nil(x)}
    kept = []
    for x in items:
        if is_nil(x):
            g = group(x)
            if g in alive:
                continue
            alive.add(g)
        kept.append(x)
    return kept


def canonicalize(net: Net) -> Net:
    """Normal form under entry splitting and nil removal.

    Top-level parallel compositions are split into separate entries and
    the result is sorted by a total syntactic order.  A nil entry is
    dropped only while another entry with the same location and policy
    remains; erasing the last entry of a location would disable later
    outputs to it, which the congruence rules never do.
    """
    flat: list = []
    for e in net.entries:
        if isinstance(e.body, Par):
            split_entry(e.location, e.policy, e.body, flat)
        else:
            flat.append(e)      # the same object, so its key is rendered once
    kept = drop_nils(flat, lambda e: (e.location, e.sort_key[3]),
                     lambda e: isinstance(e.body, Nil))
    kept.sort(key=attrgetter("sort_key"))
    return Net(tuple(kept))


# ---------------------------------------------------------------------------
# validation

def _count_repl(p: Process) -> int:
    if isinstance(p, Repl):
        return 1 + _count_repl(p.body)
    if isinstance(p, Par):
        return _count_repl(p.left) + _count_repl(p.right)
    if isinstance(p, Sum):
        return sum(_count_repl(c) for _, c in p.branches)
    return 0


def has_replication(net: Net) -> bool:
    return any(not e.is_data() and _count_repl(e.body) for e in net.entries)


def validate(net: Net) -> list:
    """Report diagnostics for a network: a location whose entries
    carry different policies, and each replication, since the checkers
    only handle the replication-free fragment."""
    diags = []
    by_loc: dict = {}
    for e in net.entries:
        by_loc.setdefault(e.location, []).append(e.policy)
    for loc in sorted(by_loc):
        pols = by_loc[loc]
        if any(p != pols[0] for p in pols[1:]):
            diags.append(Diagnostic("error",
                                    f"location {loc} carries inconsistent policies"))
    for e in net.entries:
        if e.is_data():
            continue
        n = _count_repl(e.body)
        for _ in range(n):
            diags.append(Diagnostic(
                "error",
                f"replication at {e.location} is outside the checkable fragment"))
    return diags


# ---------------------------------------------------------------------------
# location constants and action enumeration

def _term_consts(t: Term, acc: set):
    if isinstance(t, Const):
        acc.add(t.name)


def _action_consts(a: Action, acc: set):
    for t in a.args:
        _term_consts(t, acc)
    _term_consts(a.target, acc)


def _process_consts(p: Process, acc: set):
    if isinstance(p, Sum):
        for action, cont in p.branches:
            _action_consts(action, acc)
            _process_consts(cont, acc)
    elif isinstance(p, Par):
        _process_consts(p.left, acc)
        _process_consts(p.right, acc)
    elif isinstance(p, Repl):
        _process_consts(p.body, acc)


def _expr_consts(e, acc: set):
    """Collect the constants of a policy or a rec/cond expression."""
    if isinstance(e, ENot):
        _expr_consts(e.body, acc)
    elif isinstance(e, EBin):
        _expr_consts(e.left, acc)
        _expr_consts(e.right, acc)
    elif isinstance(e, AspectPol):
        asp = e.aspect
        _term_consts(asp.cut.subject, acc)
        _action_consts(asp.cut.action, acc)
        _expr_consts(asp.rec, acc)
        _expr_consts(asp.cond, acc)
    elif isinstance(e, EEqual):
        _term_consts(e.left, acc)
        _term_consts(e.right, acc)
    elif isinstance(e, ETest):
        for t in e.args:
            _term_consts(t, acc)
        _term_consts(e.at, acc)
    elif isinstance(e, EOccursIn):
        _action_consts(e.action, acc)


def entry_consts(e: NetEntry) -> frozenset:
    """All location constants occurring in one entry."""
    acc = {e.location}
    if e.is_data():
        acc.update(e.body)
    else:
        _process_consts(e.body, acc)
    _expr_consts(e.policy, acc)
    return frozenset(acc)


def loc_set(net: Net) -> frozenset:
    """All location constants occurring anywhere in the network."""
    return frozenset().union(*map(entry_consts, net.entries))


def process_actions(p: Process):
    """Yield (action, continuation) for every action prefix occurring
    syntactically in the process, in document order."""
    if isinstance(p, Sum):
        for action, cont in p.branches:
            yield action, cont
            yield from process_actions(cont)
    elif isinstance(p, Par):
        yield from process_actions(p.left)
        yield from process_actions(p.right)
    elif isinstance(p, Repl):
        yield from process_actions(p.body)


def take_actions(net: Net) -> list:
    """Every action occurring syntactically in the network, in document
    order, paired with its hosting location, policy and continuation."""
    return [LocatedAction(e.location, e.policy, action, cont)
            for e in net.entries if not e.is_data()
            for action, cont in process_actions(e.body)]
