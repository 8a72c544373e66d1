"""Abstract syntax for networks, policies and obligations.

A network is a multiset of located entries; each entry carries a
location name, a policy expression and either a process or a data
tuple.  Data tuples are kept as plain tuples of constant names since
they are always ground.

Syntax nodes are immutable `__slots__` classes with hand-written
methods; none has an instance `__dict__`.  A node with children
memoises four things, each the first time it is asked and each built
from what its children memoised, so that it costs O(1) per node and
not the size of the subtree:

- its text, `repr(node)`.  It is byte for byte the text a frozen
  dataclass with the same fields prints, `Sum(branches=((Action(cap=
  'out', args=(Const(name='k'),), target=Const(name='B')), Nil()),))`.
  Canonical forms sort entries by these texts (`NetEntry.sort_key`),
  so the order of states, their numbering and every golden output
  depend on the text staying exactly this.  A plain tuple order of
  the fields would not do: the text puts `<a, b>` before `<a>`,
  because ", " sorts before ",)".
- its hash, the hash of its text, which the str keeps.  Two nodes are
  equal when they are the same object, or of the same class with
  equal hashes and equal texts, so no comparison recurses.
- its location constants (`consts`) and its free substitution keys
  (`free`): the names of its variables, and "!name" for each binder,
  less those a binder or quantifier above them binds.

Terms are leaves that keep only their name; their text is one format
away, and the action above them memoises it.  Nodes without fields
(`NIL`, `WILDCARD`, `TRUE`, `FALSE`) have one instance each, which
calling the class returns.

Substitution returns a node itself when the key is not free in it, so
a substituted tree shares every subtree the substitution leaves
unchanged: after a `read` only the path down to the prefixes that
mention the bound variable is rebuilt.
"""
from __future__ import annotations

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


_EMPTY = frozenset()


class _Record:
    """Equality, hash and text over the slots in order, as a frozen
    dataclass of the same fields has them; for the values that are
    not syntax trees."""
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Diagnostic(_Record):
    __slots__ = ("severity", "message", "line", "col")

    def __init__(self, severity: str, message: str, line: int = 0,
                 col: int = 0):
        self.severity = severity     # "error" or "warning"
        self.message = message
        self.line = line
        self.col = col

    def format(self) -> str:
        where = f"{self.line}:{self.col}: " if self.line else ""
        return f"{where}{self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# node kinds

class _Unit:
    """A node without fields: its class has one instance, `ONE`, which
    calling the class returns, so equality and hash are identity."""
    __slots__ = ()
    consts = free = _EMPTY

    def __new__(cls):
        return cls.ONE

    def __repr__(self):
        return f"{type(self).__name__}()"


def _unit(cls):
    cls.ONE = object.__new__(cls)
    return cls.ONE


class _Leaf:
    """A term with a name."""
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


class Node:
    """A node with children.  Each class sets its fields and the three
    memos to None in `__init__`, and writes `_render`, `_find_consts`
    and `_find_free` over its children's memos."""
    __slots__ = ("_text", "_consts", "_free")

    def __repr__(self):
        text = self._text
        if text is None:
            text = self._text = self._render()
        return text

    def __hash__(self):
        text = self._text
        if text is None:
            text = self._text = self._render()
        return hash(text)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__repr__(), other.__repr__()
        return hash(mine) == hash(theirs) and mine == theirs

    @property
    def consts(self) -> frozenset:
        """The location constants occurring in the node."""
        consts = self._consts
        if consts is None:
            consts = self._consts = self._find_consts()
        return consts

    @property
    def free(self) -> frozenset:
        """The substitution keys a substitution may replace in the node."""
        free = self._free
        if free is None:
            free = self._free = self._find_free()
        return free

    def _find_free(self) -> frozenset:
        raise TypeError(f"not an expression: {self!r}")


def _seq(items) -> str:
    """The text of a tuple of nodes, as repr prints a tuple."""
    if len(items) == 1:
        return f"({items[0]!r},)"
    return f"({', '.join(map(repr, items))})"


def _union(sets) -> frozenset:
    """The union of frozensets, the largest of them itself when it
    holds the others."""
    acc = _EMPTY
    for s in sets:
        if not s <= acc:
            acc = s if acc <= s else acc | s
    return acc


def _term_consts(terms) -> frozenset:
    return frozenset([t.name for t in terms if isinstance(t, Const)]) or _EMPTY


def _term_free(terms) -> frozenset:
    return frozenset([subst_key(t) for t in terms
                      if isinstance(t, (Var, BindVar))]) or _EMPTY


# ---------------------------------------------------------------------------
# terms

class Const(_Leaf):
    __slots__ = ()


class Var(_Leaf):
    # name keeps its sigil: "$u" in obligations, "#u" in aspects,
    # bare "u" for a process variable bound by an earlier !u
    __slots__ = ()


class BindVar(_Leaf):
    __slots__ = ()           # name is written !name


class Wildcard(_Unit):
    __slots__ = ()


WILDCARD = _unit(Wildcard)

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


class Action(Node):
    __slots__ = ("cap", "args", "target")

    def __init__(self, cap: str, args: tuple, target: Term):
        self.cap = cap               # out, in or read
        self.args = args             # tuple of Term
        self.target = target
        self._text = self._consts = self._free = None

    def _render(self):
        return (f"Action(cap={self.cap!r}, args={_seq(self.args)}, "
                f"target={self.target!r})")

    def _find_consts(self):
        return _term_consts((*self.args, self.target))

    def _find_free(self):
        return _term_free((*self.args, self.target))


class Nil(_Unit):
    __slots__ = ()


NIL = _unit(Nil)


class Sum(Node):
    __slots__ = ("branches",)

    def __init__(self, branches: tuple):
        self.branches = branches     # nonempty tuple of (Action, Process)
        self._text = self._consts = self._free = None

    def _render(self):
        parts = []
        for action, cont in self.branches:
            parts.append(f"({action.__repr__()}, {cont.__repr__()})")
        if len(parts) == 1:
            return f"Sum(branches=({parts[0]},))"
        return f"Sum(branches=({', '.join(parts)}))"

    def _find_consts(self):
        parts = []
        for action, cont in self.branches:
            parts += (action.consts, cont.consts)
        return _union(parts)

    def _find_free(self):
        parts = []
        for action, cont in self.branches:
            free = cont.free
            for t in action.args:
                # a binder of the same name shadows the binding below it
                if isinstance(t, BindVar) and t.name in free:
                    free = free - {t.name}
            parts += (action.free, free)
        return _union(parts)


class Par(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "Process", right: "Process"):
        self.left = left
        self.right = right
        self._text = self._consts = self._free = None

    def _render(self):
        return (f"Par(left={self.left.__repr__()}, "
                f"right={self.right.__repr__()})")

    def _find_consts(self):
        return _union((self.left.consts, self.right.consts))

    def _find_free(self):
        return _union((self.left.free, self.right.free))


class Repl(Node):
    __slots__ = ("body",)

    def __init__(self, body: "Process"):
        self.body = body
        self._text = self._consts = self._free = None

    def _render(self):
        return f"Repl(body={self.body.__repr__()})"

    def _find_consts(self):
        return self.body.consts

    def _find_free(self):
        return self.body.free


Process = Union[Nil, Sum, Par, Repl]


# ---------------------------------------------------------------------------
# policies, rec/cond expressions and predicates

class Cut(Node):
    """Trap pattern of an aspect: subject :: action-template . X."""
    __slots__ = ("subject", "action", "cont_var")

    def __init__(self, subject: Term, action: Action, cont_var: str):
        self.subject = subject
        self.action = action
        self.cont_var = cont_var
        self._text = self._consts = self._free = None

    def _render(self):
        return (f"Cut(subject={self.subject!r}, action={self.action!r}, "
                f"cont_var={self.cont_var!r})")

    def _find_consts(self):
        return _union((_term_consts((self.subject,)), self.action.consts))


# Policies, rec/cond expressions and obligation predicates share one
# node per constant, connective, equality and test; the parser admits
# in each syntax only its own operators.  AspectPol belongs to policies
# alone, EOccursIn to expressions, and the quantifiers, test' and >=
# (below) to predicates.

class ETrue(_Unit):
    __slots__ = ()


class EFalse(_Unit):
    __slots__ = ()


TRUE = _unit(ETrue)
FALSE = _unit(EFalse)


class ENot(Node):
    __slots__ = ("body",)

    def __init__(self, body: "Expr"):
        self.body = body
        self._text = self._consts = self._free = None

    def _render(self):
        return f"ENot(body={self.body.__repr__()})"

    def _find_consts(self):
        return self.body.consts

    def _find_free(self):
        return self.body.free


class EBin(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        self.op = op                 # oplus otimes and or implies pref
        self.left = left
        self.right = right
        self._text = self._consts = self._free = None

    def _render(self):
        return (f"EBin(op={self.op!r}, left={self.left.__repr__()}, "
                f"right={self.right.__repr__()})")

    def _find_consts(self):
        return _union((self.left.consts, self.right.consts))

    def _find_free(self):
        return _union((self.left.free, self.right.free))


class _Compare(Node):
    """A comparison of two terms: EEqual, PGeq."""
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self._text = self._consts = self._free = None

    def _render(self):
        return (f"{type(self).__name__}(left={self.left!r}, "
                f"right={self.right!r})")

    def _find_consts(self):
        return _term_consts((self.left, self.right))

    def _find_free(self):
        return _term_free((self.left, self.right))


class _Atom(Node):
    """A test of a tuple at a location: ETest, PTestPost."""
    __slots__ = ("args", "at")

    def __init__(self, args: tuple, at: Term):
        self.args = args
        self.at = at
        self._text = self._consts = self._free = None

    def _render(self):
        return f"{type(self).__name__}(args={_seq(self.args)}, at={self.at!r})"

    def _find_consts(self):
        return _term_consts((*self.args, self.at))

    def _find_free(self):
        return _term_free((*self.args, self.at))


class EEqual(_Compare):
    __slots__ = ()


class ETest(_Atom):
    __slots__ = ()


class EOccursIn(Node):
    __slots__ = ("action", "var")

    def __init__(self, action: Action, var: str):
        self.action = action         # template matched against a continuation
        self.var = var               # the cut's continuation variable
        self._text = self._consts = self._free = None

    def _render(self):
        return f"EOccursIn(action={self.action!r}, var={self.var!r})"

    def _find_consts(self):
        return self.action.consts

    def _find_free(self):
        return self.action.free


Expr = Union[ETrue, EFalse, ENot, EBin, EEqual, ETest, EOccursIn]


class Aspect(Node):
    __slots__ = ("rec", "cut", "cond")

    def __init__(self, rec: Expr, cut: Cut, cond: Expr):
        self.rec = rec
        self.cut = cut
        self.cond = cond
        self._text = self._consts = self._free = None

    def _render(self):
        return (f"Aspect(rec={self.rec.__repr__()}, cut={self.cut!r}, "
                f"cond={self.cond.__repr__()})")

    def _find_consts(self):
        return _union((self.cut.consts, self.rec.consts, self.cond.consts))


class AspectPol(Node):
    __slots__ = ("aspect",)

    def __init__(self, aspect: Aspect):
        self.aspect = aspect
        self._text = self._consts = self._free = None

    def _render(self):
        return f"AspectPol(aspect={self.aspect!r})"

    def _find_consts(self):
        return self.aspect.consts


Policy = Union[ETrue, EFalse, ENot, EBin, AspectPol]


# ---------------------------------------------------------------------------
# obligations

class LabelPattern(_Record):
    """Trap pattern of an obligation over transition labels."""
    __slots__ = ("subject", "cap", "args", "target")

    def __init__(self, subject: Term, cap: str, args: tuple, target: Term):
        self.subject = subject
        self.cap = cap               # letter form: o, i or r
        self.args = args
        self.target = target         # a Const for well-formed obligations


class _Quantifier(Node):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "Pred"):
        self.var = var               # sigiled, e.g. "$x"
        self.body = body
        self._text = self._consts = self._free = None

    def _render(self):
        return (f"{type(self).__name__}(var={self.var!r}, "
                f"body={self.body.__repr__()})")

    def _find_consts(self):
        return self.body.consts

    def _find_free(self):
        free = self.body.free
        return free - {self.var} if self.var in free else free


class PForall(_Quantifier):
    __slots__ = ()


class PExists(_Quantifier):
    __slots__ = ()


class PTestPost(_Atom):
    """test' form, interpreted on the successor state of a transition."""
    __slots__ = ()


class PGeq(_Compare):
    __slots__ = ()


Pred = Union[ETrue, EFalse, ENot, EBin, PForall, PExists, EEqual, ETest,
             PTestPost, PGeq]


class Obligation(_Record):
    __slots__ = ("cut", "pred")

    def __init__(self, cut: LabelPattern, pred: Pred):
        self.cut = cut
        self.pred = pred


# ---------------------------------------------------------------------------
# networks

class NetEntry:
    """One located entry.  Its sort key, the total syntactic order of
    canonical forms, is made when the entry is: (location, kind, body
    text, policy text), from the memoised texts of the body and the
    policy.  The key determines the entry, so equality and hash are
    those of the key."""
    __slots__ = ("location", "policy", "body", "sort_key")

    def __init__(self, location: str, policy: Policy,
                 body: Union[Process, tuple]):
        self.location = location
        self.policy = policy
        self.body = body             # a tuple of constant names is a data entry
        self.sort_key = (location, "data" if isinstance(body, tuple)
                         else "proc", repr(body), repr(policy))

    def is_data(self) -> bool:
        return isinstance(self.body, tuple)

    def __eq__(self, other):
        if other.__class__ is NetEntry:
            return self is other or self.sort_key == other.sort_key
        return NotImplemented

    def __hash__(self):
        return hash(self.sort_key)

    def __repr__(self):
        return (f"NetEntry(location={self.location!r}, "
                f"policy={self.sort_key[3]}, body={self.sort_key[2]})")


class Net(_Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries       # tuple of NetEntry


class Label:
    """Transition label: subject performs cap(args) at target.  Labels
    are made once per step of an exploration and hashed for every
    successor, so the hash is computed when the label is made."""
    __slots__ = ("subject", "cap", "args", "target", "_hash")

    def __init__(self, subject: str, cap: str, args: tuple, target: str):
        self.subject = subject
        self.cap = cap               # letter form: o, i or r
        self.args = args             # tuple of constant names
        self.target = target
        self._hash = hash((subject, cap, args, target))

    def __eq__(self, other):
        if other.__class__ is Label:
            return self is other or (
                self._hash == other._hash and self.subject == other.subject
                and self.cap == other.cap and self.args == other.args
                and self.target == other.target)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Label(subject={self.subject!r}, cap={self.cap!r}, "
                f"args={self.args!r}, target={self.target!r})")

    def text(self) -> str:
        return f"{self.subject}:{self.cap}({','.join(self.args)})@{self.target}"


class LocatedAction(_Record):
    """An action as it occurs in a network entry."""
    __slots__ = ("source", "policy", "action", "continuation")

    def __init__(self, source: str, policy: Policy, action: Action,
                 continuation: Process):
        self.source = source
        self.policy = policy
        self.action = action
        self.continuation = continuation


# ---------------------------------------------------------------------------
# substitutions

class Substitution:
    """Ordered sequence of single bindings, applied front to back.

    Keys are variable names with their sigil, binders keyed as "!name".
    Composition is concatenation, so (s1.then(s2)) applies s1 first.
    A node in which no key is free comes back as itself.
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
        for key, val in self.pairs:
            a = _subst_action(a, key, val)
        return a

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
    if key not in a.free:
        return a
    return Action(a.cap, tuple(_subst_term(x, key, val) for x in a.args),
                  _subst_term(a.target, key, val))


def _binds(a: Action, key: str) -> bool:
    return any(isinstance(x, BindVar) and x.name == key for x in a.args)


def _subst_process(p: Process, key: str, val: Term) -> Process:
    if key not in p.free:
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
    if key not in e.free:
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
        # a quantifier of the same name shadows: the key is not free then
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

def entry_consts(e: NetEntry) -> frozenset:
    """All location constants occurring in one entry: a union of the
    memoised constants of its body and its policy."""
    body = frozenset(e.body) if e.is_data() else e.body.consts
    consts = _union((body, e.policy.consts))
    return consts if e.location in consts else consts | {e.location}


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
