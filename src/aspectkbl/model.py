"""Abstract syntax for networks, policies and obligations.

A network is a multiset of located entries; each entry carries a
location name, a policy expression and either a process or a data
tuple.  Data tuples are kept as plain tuples of constant names since
they are always ground.

The values that are not syntax trees, such as a network, a label, a
substitution or an obligation, are records: `typing.NamedTuple`s,
immutable, equal and hashed field by field, and printed as
`Class(field=repr, ...)`.  Their fields are read by name, never by
index or unpacking.  A network entry keeps its own class, as its sort
key is computed when it is made (below).

Syntax nodes are not records, since they memoise and compare by class.
They are immutable `__slots__` classes with hand-written constructors;
none has an instance `__dict__`.  Each class declares its fields once,
in its `__slots__`, and a node with children derives from them four
memos, each the first time it is asked and each built from what its
children memoised, so that it costs O(1) per node:

- its text, `repr(node)`, `Class(field=repr, ...)`: byte for byte the
  text a record with the same fields prints, `Sum(branches=
  ((Action(cap='out', args=(Const(name='k'),), target=Const(name=
  'B')), Nil()),))`.  Canonical forms sort entries by these texts
  (`NetEntry.sort_key`), so the order of states, their numbering and
  every golden output depend on the text staying exactly this.  A plain
  tuple order of the fields would not do: the text puts `<a, b>` before
  `<a>`, because ", " sorts before ",)".
- its hash, the hash of its text, which the str keeps.  Two nodes are
  equal when they are the same object, or of the same class with
  equal hashes and equal texts, so no comparison recurses.
- its location constants (`consts`) and its free substitution keys
  (`free`): the names of its variables, and "!name" for each binder,
  less those a binder or quantifier above them binds.

`Sum` writes its own text, constants and free keys, since its field
is a tuple of (action, continuation) pairs and a binder shadows the
keys below it; a quantifier writes its own free keys.

Terms are leaves that keep only their name; their text is one format
away, and the action above them memoises it.  Nodes without fields
(`NIL`, `WILDCARD`, `TRUE`, `FALSE`) have one instance each, which
calling the class returns.

Substitution, one walker with a case per class, returns a node
itself when the key is not free in it, so a substituted tree shares
every subtree the substitution leaves unchanged: after a `read` only
the path down to the prefixes that mention the bound variable is
rebuilt.
"""
from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple, Union


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


class Diagnostic(NamedTuple):
    message: str
    line: int = 0
    col: int = 0

    def format(self) -> str:
        where = f"{self.line}:{self.col}: " if self.line else ""
        return f"{where}error: {self.message}"


# ---------------------------------------------------------------------------
# node kinds

class _Unit:
    """A node without fields: its class has one instance, `ONE`, which
    calling the class returns, so equality and hash are identity."""
    __slots__ = ()
    consts = free = _consts = _free = _EMPTY

    def __init_subclass__(cls):
        cls.ONE = object.__new__(cls)

    def __new__(cls):
        return cls.ONE

    def __repr__(self):
        return f"{type(self).__name__}()"


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
    """A node with children.  Each class's `__init__` sets its fields,
    each a string, a term, a tuple of terms or a node, and the three
    memos to None, which are derived from the fields when asked.  The
    text calls a child's `__repr__` and the `_find_*` walkers fill a
    child's memo by calling its walker, not `repr` or its property, so
    that a chain costs one frame per node."""
    __slots__ = ("_text", "_consts", "_free")

    def __init_subclass__(cls):
        # the fields are the class's own slots, or its parent's if it
        # declares none; `_format` is `Class(field=%s, ...)`, which
        # takes the field texts, and `x._values(x)` the field values
        fields = cls.__dict__.get("__slots__") or cls._fields
        cls._fields = fields
        cls._format = f"{cls.__name__}({', '.join(f + '=%s' for f in fields)})"
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1
                                   else lambda x: (get(x),))

    def __repr__(self):
        text = self._text
        if text is None:
            parts = []
            for value in self._values(self):
                parts.append(value.__repr__())
            text = self._text = self._format % tuple(parts)
        return text

    def __hash__(self):
        return hash(self.__repr__())

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

    def _find_consts(self) -> frozenset:
        names, sets = [], []
        for value in self._values(self):
            cls = value.__class__
            if cls is tuple:
                for t in value:
                    if t.__class__ is Const:
                        names.append(t.name)
            elif cls is Const:
                names.append(value.name)
            elif cls is not str and isinstance(value, Node):
                consts = value._consts
                if consts is None:
                    consts = value._consts = value._find_consts()
                sets.append(consts)
        return _union(sets, names)

    def _find_free(self) -> frozenset:
        keys, sets = [], []
        for value in self._values(self):
            cls = value.__class__
            if cls is tuple:
                for t in value:
                    if t.__class__ is Var:
                        keys.append(t.name)
                    elif t.__class__ is BindVar:
                        keys.append("!" + t.name)
            elif cls is Var:
                keys.append(value.name)
            elif cls is BindVar:
                keys.append("!" + value.name)
            elif cls is not str and isinstance(value, Node):
                free = value._free
                if free is None:
                    free = value._free = value._find_free()
                sets.append(free)
        return _union(sets, keys)


def _union(sets, names=()) -> frozenset:
    """The union of frozensets and names, the largest set itself when
    it holds the rest."""
    acc = frozenset(names) if names else _EMPTY
    for s in sets:
        if not s <= acc:
            acc = s if acc <= s else acc | s
    return acc


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


class Action(Node):
    __slots__ = ("cap", "args", "target")

    def __init__(self, cap: str, args: tuple, target: Term):
        self.cap = cap               # out, in or read
        self.args = args             # tuple of Term
        self.target = target
        self._text = self._consts = self._free = None


class Nil(_Unit):
    __slots__ = ()


NIL = Nil()


class Sum(Node):
    __slots__ = ("branches",)

    def __init__(self, branches: tuple):
        self.branches = branches     # nonempty tuple of (Action, Process)
        self._text = self._consts = self._free = None

    def __repr__(self):
        # one frame per prefix, so that long chains have a text
        text = self._text
        if text is None:
            parts = []
            for action, cont in self.branches:
                parts.append(f"({action.__repr__()}, {cont.__repr__()})")
            tail = "," if len(parts) == 1 else ""
            text = self._text = f"Sum(branches=({', '.join(parts)}{tail}))"
        return text

    def _find_consts(self):
        parts = []
        for action, cont in self.branches:
            consts = cont._consts
            if consts is None:
                consts = cont._consts = cont._find_consts()
            parts += (action.consts, consts)
        return _union(parts)

    def _find_free(self):
        parts = []
        for action, cont in self.branches:
            free = cont._free
            if free is None:
                free = cont._free = cont._find_free()
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


class Repl(Node):
    __slots__ = ("body",)

    def __init__(self, body: "Process"):
        self.body = body
        self._text = self._consts = self._free = None


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


# Policies, rec/cond expressions and obligation predicates share one
# node per constant, connective, equality and test; the parser admits
# in each syntax only its own operators.  AspectPol belongs to policies
# alone, EOccursIn to expressions, and the quantifiers, test' and >=
# (below) to predicates.

class ETrue(_Unit):
    __slots__ = ()


class EFalse(_Unit):
    __slots__ = ()


TRUE = ETrue()
FALSE = EFalse()


class ENot(Node):
    __slots__ = ("body",)

    def __init__(self, body: "Expr"):
        self.body = body
        self._text = self._consts = self._free = None


class EBin(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        self.op = op                 # oplus otimes and or implies pref
        self.left = left
        self.right = right
        self._text = self._consts = self._free = None


class _Compare(Node):
    """A comparison of two terms: EEqual, PGeq."""
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self._text = self._consts = self._free = None


class _Atom(Node):
    """A test of a tuple at a location: ETest, PTestPost."""
    __slots__ = ("args", "at")

    def __init__(self, args: tuple, at: Term):
        self.args = args
        self.at = at
        self._text = self._consts = self._free = None


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


Expr = Union[ETrue, EFalse, ENot, EBin, EEqual, ETest, EOccursIn]


class Aspect(Node):
    __slots__ = ("rec", "cut", "cond")

    def __init__(self, rec: Expr, cut: Cut, cond: Expr):
        self.rec = rec
        self.cut = cut
        self.cond = cond
        self._text = self._consts = self._free = None


class AspectPol(Node):
    __slots__ = ("aspect",)

    def __init__(self, aspect: Aspect):
        self.aspect = aspect
        self._text = self._consts = self._free = None


Policy = Union[ETrue, EFalse, ENot, EBin, AspectPol]


# ---------------------------------------------------------------------------
# obligations

class LabelPattern(NamedTuple):
    """Trap pattern of an obligation over transition labels."""
    subject: Term
    cap: str                         # letter form: o, i or r
    args: tuple
    target: Term                     # a Const for well-formed obligations


class _Quantifier(Node):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "Pred"):
        self.var = var               # sigiled, e.g. "$x"
        self.body = body
        self._text = self._consts = self._free = None


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


class Obligation(NamedTuple):
    cut: LabelPattern
    pred: Pred


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


class Net(NamedTuple):
    entries: tuple                   # tuple of NetEntry


class CanonicalNet(Net):
    """A network in canonical form, as `canonicalize` makes it, which
    canonicalizing gives back as it is."""
    __slots__ = ()


class Label(NamedTuple):
    """Transition label: subject performs cap(args) at target."""
    subject: str
    cap: str                         # letter form: o, i or r
    args: tuple                      # tuple of constant names
    target: str

    def text(self) -> str:
        return f"{self.subject}:{self.cap}({','.join(self.args)})@{self.target}"


class LocatedAction(NamedTuple):
    """An action as it occurs in a network entry."""
    source: str
    policy: Policy
    action: Action
    continuation: Process


# ---------------------------------------------------------------------------
# substitutions

class Substitution(NamedTuple):
    """Ordered sequence of single bindings, applied front to back.

    Keys are variable names with their sigil, binders keyed as "!name".
    A node in which no key is free comes back as itself.
    """
    pairs: tuple = ()                # tuple of (key, term)

    def __repr__(self):
        inner = ", ".join(f"{k}={render_term(v)}" for k, v in self.pairs)
        return f"[{inner}]"

    # -- application ------------------------------------------------------

    def apply_term(self, t: Term) -> Term:
        for key, val in self.pairs:
            t = subst_term(t, key, val)
        return t

    def apply(self, node):
        """A process, an action, a policy, a rec/cond expression or a
        predicate with the bindings applied."""
        for key, val in self.pairs:
            node = _subst(node, key, val)
        return node

    def apply_located(self, la: LocatedAction) -> LocatedAction:
        return LocatedAction(la.source, la.policy, self.apply(la.action),
                             self.apply(la.continuation))


def subst_term(t: Term, key: str, val: Term) -> Term:
    """val if t is the variable or binder keyed key, else t."""
    if isinstance(t, Var) and t.name == key:
        return val
    if isinstance(t, BindVar) and "!" + t.name == key:
        return val
    return t


def _subst(x, key: str, val: Term):
    """x with val for the variable or binder keyed key, x itself when
    the key is not free in it."""
    if key not in x.free:
        return x
    cls = x.__class__
    if cls is Sum:
        branches = []
        for action, cont in x.branches:
            # a binder of the same name shadows the binding below it
            if BindVar(key) not in action.args:
                cont = _subst(cont, key, val)
            branches.append((_subst(action, key, val), cont))
        return Sum(tuple(branches))
    if cls is Action:
        return Action(x.cap, tuple(subst_term(t, key, val) for t in x.args),
                      subst_term(x.target, key, val))
    if cls is Par:
        return Par(_subst(x.left, key, val), _subst(x.right, key, val))
    if cls is Repl:
        return Repl(_subst(x.body, key, val))
    if cls is ENot:
        return ENot(_subst(x.body, key, val))
    if cls is EBin:
        return EBin(x.op, _subst(x.left, key, val), _subst(x.right, key, val))
    if cls is EEqual or cls is PGeq:
        return cls(subst_term(x.left, key, val), subst_term(x.right, key, val))
    if cls is ETest or cls is PTestPost:
        return cls(tuple(subst_term(t, key, val) for t in x.args),
                   subst_term(x.at, key, val))
    if cls is EOccursIn:
        return EOccursIn(_subst(x.action, key, val), x.var)
    if cls is PForall or cls is PExists:
        # a quantifier of the same name shadows: the key is not free then
        return cls(x.var, _subst(x.body, key, val))
    raise TypeError(f"cannot substitute in {x!r}")


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
    outputs to it, which the congruence rules never do; a net without
    a nil entry skips the rule.  A `CanonicalNet` is already in normal
    form and comes back itself.
    """
    if net.__class__ is CanonicalNet:
        return net
    flat: list = []
    nils = False            # whether some entry is nil
    for e in net.entries:
        body = e.body
        if isinstance(body, Par):
            start = len(flat)
            split_entry(e.location, e.policy, body, flat)
            nils = nils or any(x.body is NIL for x in flat[start:])
        else:
            flat.append(e)      # the same object, so its key is rendered once
            nils = nils or body is NIL
    if nils:
        flat = drop_nils(flat, lambda e: (e.location, e.sort_key[3]),
                         lambda e: e.body is NIL)
    flat.sort(key=attrgetter("sort_key"))
    return CanonicalNet(tuple(flat))


# ---------------------------------------------------------------------------
# validation

def _count_repl(p: Process) -> int:
    """The number of replications in p, counted by a loop at any depth."""
    count, todo = 0, [p]
    while todo:
        p = todo.pop()
        if p.__class__ is Sum:
            for _, c in p.branches:
                todo.append(c)
        elif p.__class__ is Par:
            todo += (p.left, p.right)
        elif p.__class__ is Repl:
            count += 1
            todo.append(p.body)
    return count


def _replications(net: Net) -> list:
    """(entry, number of replications in its body) for each process
    entry whose body holds some, in order; entries that share a body
    walk it once."""
    counts: dict = {}            # id of a body -> its replications
    found = []
    for e in net.entries:
        if e.sort_key[1] != "data":          # `is_data`, read off the key
            n = counts.get(id(e.body))
            if n is None:
                n = counts[id(e.body)] = _count_repl(e.body)
            if n:
                found.append((e, n))
    return found


def has_replication(net: Net) -> bool:
    return bool(_replications(net))


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
            diags.append(Diagnostic(
                f"location {loc} carries inconsistent policies"))
    for e, n in _replications(net):
        diags += [Diagnostic(f"replication at {e.location} is outside the "
                             "checkable fragment")] * n
    return diags


def policies_by_location(net: Net) -> dict:
    """Location -> the one policy of its entries.  Raises AkblError
    with `validate`'s message on the first location whose entries
    differ in policy, so the checkers hold the invariant the CLI does."""
    pols: dict = {}
    for e in net.entries:
        pol = pols.setdefault(e.location, e.policy)
        if pol is not e.policy and pol != e.policy:
            raise AkblError(
                f"location {e.location} carries inconsistent policies")
    return pols


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
    order, paired with its hosting location, policy and continuation.
    Entries that share a body walk it once and share its action and
    continuation objects."""
    walked: dict = {}            # id of a body -> its (action, continuation)s
    located = []
    for e in net.entries:
        if e.sort_key[1] != "data":
            pairs = walked.get(id(e.body))
            if pairs is None:
                pairs = walked[id(e.body)] = list(process_actions(e.body))
            located += [LocatedAction(e.location, e.policy, action, cont)
                        for action, cont in pairs]
    return located
