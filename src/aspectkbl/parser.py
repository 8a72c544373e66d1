"""Concrete syntax: lexer, recursive descent parser and renderer.

Network files use one entry per location joined by ||, with ::[policy]
attaching a policy expression, <a, b> for data tuples, | for parallel
processes, + for sums, * for replication and 0 for the inert process.
Policies are built from aspects [rec if cut : cond] and the spelled
operators oplus, otimes, and, or, not, implies, pref.  Obligation
files hold a single AG [label-pattern] predicate form.  $-variables
belong to obligations, #-variables to aspects, !x binds in input and
read templates and _ is the pattern wildcard.  // starts a comment.

One regular expression, _TOKEN, lexes: a single findall over the whole
source gives the text of every token, comment and text that is no
token, and one dict lookup per distinct text gives its kind.  The
parser reads two parallel lists, kinds and texts, and names a token by
its index.  Lines and columns are worked out only for diagnostics, by
_positions, which runs the same expression with finditer.  Input is
ASCII; any other character is a stray character.

One precedence table, _PREC, orders the binary operators of policies,
rec/cond expressions and obligation predicates.  The parser reads it
in its one infix rule and the renderer in its one binary renderer, so
the two agree on where parentheses are needed.  The three syntaxes
build one node per constant and connective, and one rule reads true,
false, not and parentheses for all of them.

A network repeats itself: role-based nets run one process at many
locations.  So a parse reads each distinct entry body once, and later
copies are the same node (hash-consing at the parser, where the
repetition shows in the tokens).  _Parser.bodies maps the token texts
of each body that parsed, up to the next || or the end of input, to
its node; a body whose whole slice is a recorded one is that node, and
anything else is parsed by the rules below.  A body is recorded only
when its parse ended exactly at the ||.  This is sound because the
parser is deterministic in the tokens it reads and its one lookahead
token, the || or end of input ends a body before any rule looks
beyond it, and a body starts with no binder in scope.  A recorded
slice parsed without error, so a hit hides no diagnostic, and the
lexer's diagnostics are raised whatever the table holds.  Nodes are
immutable and their memos are only ever filled, so sharing shows only
to `is`, and a shared node brings its memoised text, hash, constants
and free keys along: sort keys, canonical forms, location sets, action
lists and the certifier's substitutions work once per distinct body,
not once per entry.

The full grammar is documented in docs/grammar.md.
"""
from __future__ import annotations

import re
import string
from functools import partial
from typing import NamedTuple, Optional

from .model import (Action, Aspect, AspectPol, BindVar, Const, Cut,
                    Diagnostic, EBin, EEqual, EFalse, ENot, EOccursIn, ETest,
                    ETrue, FALSE, LabelPattern, LETTER_CAP, Net, NetEntry,
                    Nil, NIL, Obligation, PExists, PForall, PGeq, PTestPost,
                    Par, Repl, Sum, TRUE, Var, WILDCARD, canonicalize,
                    render_term)


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0].format() if self.diagnostics else "parse error"
        super().__init__(first)


class _Stop(Exception):
    pass


KEYWORDS = {"out", "in", "read", "test", "AG", "forall", "exists", "true",
            "false", "not", "and", "or", "oplus", "otimes", "implies",
            "pref", "if"}

# The binary operators of policies, expressions and predicates, from
# loosest to tightest.  All associate to the left except implies.
# Quantifiers (predicates only) bind looser than any of them, `not`
# tighter, and atoms tightest.
_PREC = {"implies": 1, "or": 2, "and": 3, "oplus": 4, "otimes": 5, "pref": 6}
_QUANT, _NOT, _ATOM = 0, 7, 8

# The binary operators each syntax admits; every syntax admits `not`.
_POLICY = frozenset(_PREC)
_EXPR = _POLICY - {"pref"}
_PRED = _POLICY & {"and", "or"}
_CAPS = ("out", "in", "read")
_BINDING = ("in", "read")       # the capabilities whose templates bind !x


class _Row(NamedTuple):
    """How one term position reads each kind of token.

    A name or number gives name(text), or a Var when a binder in scope
    names it.  A token of kind sigil gives a Var, whose name joins the
    set of names the caller passes or, in a bound row, must be in it.
    _ is the wildcard where wild is set, and !x, under a capability in
    bind, a binder whose name joins the set too.  Any other token is
    rejected with the message rejects holds for its kind, else with
    other; {} in a message stands for the token's text.
    """
    other: str
    rejects: dict
    name: type = Const
    sigil: str = ""
    bound: bool = False
    wild: bool = False
    bind: tuple = ()


_IN_PROCESS = {
    "_": "wildcards belong in policy and obligation patterns only",
    **dict.fromkeys(("dollar", "hash"),
                    "{} is a pattern variable and cannot occur in a process")}
_IN_CUT = {"_": "wildcards are only allowed in argument positions here",
           "!": "binders are only allowed in in and read templates",
           "dollar": "{} is an obligation variable; aspect variables use #"}
_IN_LABEL = {"_": _IN_CUT["_"],
             "hash": "{} is an aspect variable; obligation variables use $"}

# One row per term position; docs/grammar.md has the same table.
_TERMS = {
    "data field": _Row("data tuples hold constants only", {}, name=str),
    "process argument": _Row("expected a term", {
        **_IN_PROCESS, "!": "binders are not allowed in out arguments"},
        bind=_BINDING),
    "process target": _Row("expected a term", {
        **_IN_PROCESS, "!": "binders are not allowed in a target position"}),
    "cut subject or target": _Row("expected a pattern term", _IN_CUT,
                                  sigil="hash"),
    "cut argument": _Row("expected a pattern term", _IN_CUT, sigil="hash",
                         wild=True, bind=_BINDING),
    "expression term": _Row("expected a constant or an aspect variable", {
        "_": "wildcards cannot occur in recommendations or conditions"},
        sigil="hash"),
    "occurs-in argument": _Row("expected a term in an action template", {},
                               sigil="hash", wild=True, bind=_BINDING),
    "occurs-in target": _Row("expected a term in an action template", {},
                             sigil="hash"),
    "label subject": _Row("expected a pattern term", _IN_LABEL,
                          sigil="dollar"),
    "label argument": _Row("expected a pattern term", _IN_LABEL,
                           sigil="dollar", wild=True),
    "label target": _Row("expected a location constant, found {!r}", {
        **dict.fromkeys(("dollar", "_"),
                        "the cut target must be a location constant"),
        "kw": "{!r} is a reserved word"}),
    "predicate term": _Row("expected a constant or an obligation variable", {
        "dollar": "{} is not bound by the cut or a quantifier",
        "hash": _IN_LABEL["hash"]}, sigil="dollar", bound=True),
}


# One match per token, comment or text that is no token (an underscore
# name or a stray character); blanks and newlines match nothing.  Input
# is ASCII, so \w is [A-Za-z0-9_].
_TOKEN = re.compile(r"""
    occurs-in(?!\w) | [A-Za-z]\w* | [0-9]+ | [$\#][A-Za-z]\w*
  | \|\| | :: | >= | [|+*:.,()<>\[\]@!='] | _(?!\w)
  | //.* | _\w+ | [^ \t\r\n]""", re.ASCII | re.VERBOSE)

# A match's kind by its text, else by its first character; None for a
# comment and for text that is no token, a sigil with no name among it.
# The end of input is the text "".
_KIND = {**dict.fromkeys(KEYWORDS, "kw"), "occurs-in": "occursin",
         **{p: p for p in ("||", "::", ">=", *"|+*:.,()<>[]@!=_'")},
         "$": None, "#": None, "": "eof"}
_KIND_BY_FIRST = {**dict.fromkeys(string.ascii_letters, "ident"),
                  **dict.fromkeys(string.digits, "number"),
                  "$": "dollar", "#": "hash"}


def _kind(text: str):
    return _KIND[text] if text in _KIND else _KIND_BY_FIRST.get(text[0])


def _lex(src: str, diags: list) -> tuple:
    """The kinds and the texts of the tokens of src, each list ending
    with the end of input.  Positions are left to _positions."""
    texts = _TOKEN.findall(src)
    texts.append("")
    kind_of = {text: _kind(text) for text in set(texts)}
    if None in kind_of.values():        # a comment or text that is no token
        if any(kind is None and not text.startswith("//")
               for text, kind in kind_of.items()):
            _positions(src, diags)
        texts = [text for text in texts if kind_of[text]]
    return list(map(kind_of.__getitem__, texts)), texts


def _positions(src: str, diags=None) -> list:
    """The (line, column) of each token of src, then of the end of
    input; with diags, also a diagnostic for each text that is no
    token.  Only diagnostics read positions, so they are worked out
    here, from the same matches as _lex, and only when needed."""
    spots = []
    line, line_start, last = 1, 0, 0
    m = None
    for m in _TOKEN.finditer(src):
        at = m.start()
        breaks = src.count("\n", last, at)
        if breaks:
            line += breaks
            line_start = src.rfind("\n", last, at) + 1
        last = at
        text = m.group()
        if _kind(text):
            spots.append((line, at - line_start + 1))
        elif diags is not None and not text.startswith("//"):
            msg = ("names may not start with an underscore" if text[0] == "_"
                   else f"expected a name after {text}" if text in "$#"
                   else f"stray character {text!r}")
            diags.append(Diagnostic(msg, line, at - line_start + 1))
    if m is not None and m.end() == len(src) and m.group().startswith("//"):
        # after a trailing comment, end of input sits where it starts
        spots.append((line, last - line_start + 1))
    else:
        spots.append((line + src.count("\n", last),
                      len(src) - src.rfind("\n")))
    return spots


class _Parser:
    """Recursive descent over the parallel lists kinds and texts; a
    token is named by its index in them."""

    def __init__(self, src: str):
        self.src = src
        self.diags: list = []
        self.kinds, self.texts = _lex(src, self.diags)
        self.end = len(self.texts) - 1      # the index of the end of input
        self.i = 0
        self.bodies: dict = {}

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> int:
        """The index of the current token, which is then passed unless
        it is the end of input."""
        i = self.i
        if i < self.end:
            self.i = i + 1
        return i

    def at(self, text: str) -> bool:
        return self.texts[self.i] == text

    def accept(self, text: str) -> bool:
        """Whether the current token has this text, which is not that
        of the end of input; if so, it is passed."""
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def error(self, msg: str, at=None):
        """Stop with msg at the token with index at, else the current one."""
        line, col = _positions(self.src)[self.i if at is None else at]
        self.diags.append(Diagnostic(msg, line, col))
        raise _Stop()

    def fail(self, what: str):
        got = self.texts[self.i] or "end of input"
        self.error(f"expected {what}, found {got!r}")

    def expect(self, text: str, what=None) -> int:
        """The index of the current token, which must have this text
        ("" for the end of input), else fail expecting what or text."""
        i = self.i
        if self.texts[i] != text:
            self.fail(what or text)
        if i < self.end:
            self.i = i + 1
        return i

    def expect_name(self, what: str) -> str:
        i = self.i
        if self.kinds[i] == "ident":
            self.i = i + 1
            return self.texts[i]
        if self.kinds[i] == "kw":
            self.error(f"{self.texts[i]!r} is a reserved word")
        self.fail(what)

    def at_cap(self) -> bool:
        return self.texts[self.i] in _CAPS

    # -- the shared rules -----------------------------------------------------

    def parse_infix(self, syntax, group, atom, level=1):
        """Operands joined by those binary operators of syntax that bind
        at least as tightly as level.  group() parses what parentheses
        hold and atom() an atom that is not true, false or ( group )."""
        left = self.parse_unary(group, atom)
        while True:
            op = self.texts[self.i]
            if _PREC.get(op, 0) < level or op not in syntax:
                return left
            self.advance()
            tighter = _PREC[op] + (op != "implies")
            left = EBin(op, left, self.parse_infix(syntax, group, atom, tighter))

    def parse_unary(self, group, atom):
        if self.accept("not"):
            return ENot(self.parse_unary(group, atom))
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.accept("("):
            inner = group()
            self.expect(")")
            return inner
        return atom()

    def parse_list(self, close, row, names=None, cap=None, scope=frozenset()):
        """term, ... up to the token close, which may come at once, as
        in data tuples and argument lists; parse_term reads each term
        with the other arguments."""
        terms = []
        if not self.at(close):
            terms.append(self.parse_term(row, names, cap, scope))
            while self.accept(","):
                terms.append(self.parse_term(row, names, cap, scope))
        self.expect(close)
        return tuple(terms)

    def parse_args(self, arg, target, names=None, cap=None, scope=frozenset()):
        """( arg, ... ) @ target, as in actions, cuts, tests and label
        patterns; arg and target name the rows of _TERMS that read
        their terms, and parse_term gets the other arguments too."""
        self.expect("(")
        args = self.parse_list(")", _TERMS[arg], names, cap, scope)
        self.expect("@")
        return args, self.parse_term(_TERMS[target], names, cap, scope)

    def parse_term(self, row, names=None, cap=None, scope=frozenset()):
        """One term in the position row describes (see _Row): names is
        the set its variables join, or must be in; cap is the
        capability of the template it is in; scope holds the names that
        enclosing binders bind."""
        i = self.i
        self.i = i + 1          # the end of input is rejected below
        kind, text = self.kinds[i], self.texts[i]
        if kind == "ident" or kind == "number":
            return Var(text) if text in scope else row.name(text)
        if kind == row.sigil and (not row.bound or text in names):
            if not row.bound and names is not None:
                names.add(text)
            return Var(text)
        if kind == "_" and row.wild:
            return WILDCARD
        if kind == "!" and cap in row.bind:
            name = self.expect_name("a binder name")
            if names is not None:
                names.add(name)
            return BindVar(name)
        msg = row.rejects.get(kind, row.other)
        self.error(msg.format(text or "end of input"), i)

    # -- networks -----------------------------------------------------------

    def parse_net(self) -> Net:
        entries = [self.parse_entry()]
        while self.accept("||"):
            entries.append(self.parse_entry())
        self.expect("", "|| or end of input")
        return Net(tuple(entries))

    def parse_entry(self) -> NetEntry:
        """One entry; a body already read is that body's node."""
        loc = self.expect_name("a location name")
        self.expect("::")
        self.expect("[")
        pol = self.parse_policy()
        self.expect("]")
        start = self.i
        try:
            stop = self.texts.index("||", start)
        except ValueError:
            stop = self.end
        key = tuple(self.texts[start:stop])
        body = self.bodies.get(key)
        if body is not None:
            self.i = stop
        else:
            if self.accept("<"):
                body = self.parse_list(">", _TERMS["data field"])
            else:
                body = self.parse_process(frozenset())
            if self.i == stop:
                self.bodies[key] = body
        return NetEntry(loc, pol, body)

    def parse_process(self, scope):
        left = self.parse_sum(scope)
        while self.accept("|"):
            left = Par(left, self.parse_sum(scope))
        return left

    def parse_sum(self, scope):
        first = self.parse_term_proc(scope)
        if not self.at("+"):
            return first
        branches = [self.as_branch(first)]
        while self.accept("+"):
            branches.append(self.as_branch(self.parse_term_proc(scope)))
        return Sum(tuple(branches))

    def as_branch(self, p):
        if isinstance(p, Sum) and len(p.branches) == 1:
            return p.branches[0]
        self.error("summands must be action-prefixed")

    def parse_term_proc(self, scope):
        if self.accept("0"):
            return NIL
        if self.accept("*"):
            return Repl(self.parse_term_proc(scope))
        if self.accept("("):
            p = self.parse_process(scope)
            self.expect(")")
            return p
        if self.at_cap():
            action, binders = self.parse_proc_action(scope)
            self.expect(".")
            inner = scope | binders if action.cap in ("in", "read") else scope
            cont = self.parse_term_proc(inner)
            return Sum(((action, cont),))
        self.error("expected a process")

    def parse_proc_action(self, scope):
        cap = self.texts[self.advance()]
        binders: set = set()
        args, target = self.parse_args("process argument", "process target",
                                       binders, cap, scope)
        return Action(cap, args, target), frozenset(binders)

    # -- policies ------------------------------------------------------------

    def parse_policy(self):
        return self.parse_infix(_POLICY, self.parse_policy, self.parse_pol_atom)

    def parse_pol_atom(self):
        if self.at("["):
            return AspectPol(self.parse_aspect())
        self.error("expected a policy")

    def parse_aspect(self) -> Aspect:
        opened = self.expect("[")
        rec = self.parse_expr()
        self.expect("if")
        cut, cut_vars = self.parse_cut()
        self.expect(":")
        cond = self.parse_expr()
        self.expect("]")
        self._check_expr(rec, "recommendation", cut_vars, cut.cont_var,
                         allowed_ops=("oplus", "otimes", "and", "or", "implies"),
                         at=opened)
        self._check_expr(cond, "condition", cut_vars, cut.cont_var,
                         allowed_ops=("and", "or"), at=opened)
        return Aspect(rec, cut, cond)

    def parse_cut(self):
        cut_vars: set = set()
        subject = self.parse_term(_TERMS["cut subject or target"], cut_vars)
        self.expect("::")
        if not self.at_cap():
            self.error("expected out, in or read in a cut")
        cap = self.texts[self.advance()]
        args, target = self.parse_args("cut argument", "cut subject or target",
                                       cut_vars, cap)
        self.expect(".")
        cont = self.expect_name("a continuation variable")
        return Cut(subject, Action(cap, args, target), cont), cut_vars

    # rec and cond expressions

    def parse_expr(self):
        return self.parse_infix(_EXPR, self.parse_expr, self.parse_e_atom)

    def parse_e_atom(self):
        if self.accept("test"):
            if self.at("'"):
                self.error("test' belongs to obligation predicates")
            return ETest(*self.parse_args("expression term", "expression term"))
        if self.at_cap():
            cap = self.texts[self.advance()]
            template = Action(cap, *self.parse_args(
                "occurs-in argument", "occurs-in target", None, cap))
            self.expect("occurs-in")
            var = self.expect_name("a continuation variable")
            return EOccursIn(template, var)
        term = _TERMS["expression term"]
        left = self.parse_term(term)
        self.expect("=", "= in a comparison")
        return EEqual(left, self.parse_term(term))

    def _check_expr(self, e, what, cut_vars, cont_var, allowed_ops, at):
        if isinstance(e, ENot):
            self._check_expr(e.body, what, cut_vars, cont_var, allowed_ops, at)
        elif isinstance(e, EBin):
            if e.op not in allowed_ops:
                self.error(f"operator {e.op} is not allowed in a {what}", at)
            self._check_expr(e.left, what, cut_vars, cont_var, allowed_ops, at)
            self._check_expr(e.right, what, cut_vars, cont_var, allowed_ops, at)
        elif isinstance(e, EEqual):
            self._check_terms((e.left, e.right), cut_vars, at)
        elif isinstance(e, ETest):
            self._check_terms(e.args + (e.at,), cut_vars, at)
        elif isinstance(e, EOccursIn):
            if e.var != cont_var:
                self.error(f"occurs-in refers to {e.var}, but the cut binds "
                           f"{cont_var}", at)
            self._check_terms(e.action.args + (e.action.target,),
                              cut_vars, at)

    def _check_terms(self, terms, cut_vars, at):
        for t in terms:
            if isinstance(t, Var) and t.name not in cut_vars:
                self.error(f"{t.name} is not bound by the cut", at)

    # -- obligations ----------------------------------------------------------

    def parse_obligation(self) -> Obligation:
        self.expect("AG")
        self.expect("[")
        bound: set = set()
        subject = self.parse_term(_TERMS["label subject"], bound)
        self.expect(":")
        if self.kinds[self.i] != "ident":
            self.fail("a capability letter (o, i or r)")
        at = self.advance()
        letter = self.texts[at]
        if letter not in LETTER_CAP:
            self.error(f"unknown capability {letter!r}, expected o, i or r", at)
        args, target = self.parse_args("label argument", "label target", bound)
        self.expect("]")
        pred = self.parse_pred(frozenset(bound))
        self.expect("", "end of input")
        return Obligation(LabelPattern(subject, letter, args, target), pred)

    def parse_pred(self, bound):
        if self.texts[self.i] in ("forall", "exists"):
            cls = PForall if self.texts[self.advance()] == "forall" else PExists
            if self.kinds[self.i] != "dollar":
                self.error("quantified variables carry a $ sigil")
            var = self.texts[self.advance()]
            self.expect(":")
            return cls(var, self.parse_pred(bound | {var}))
        return self.parse_infix(_PRED, partial(self.parse_pred, bound),
                                partial(self.parse_p_atom, bound))

    def parse_p_atom(self, bound):
        if self.accept("test"):
            post = self.accept("'")
            args, at = self.parse_args("predicate term", "predicate term", bound)
            return PTestPost(args, at) if post else ETest(args, at)
        term = _TERMS["predicate term"]
        left = self.parse_term(term, bound)
        if self.accept("="):
            return EEqual(left, self.parse_term(term, bound))
        if self.accept(">="):
            return PGeq(left, self.parse_term(term, bound))
        self.error("expected = or >= in a comparison")


def _run(parser: _Parser, entry):
    try:
        result = entry()
    except _Stop:
        raise ParseError(parser.diags) from None
    if parser.diags:
        raise ParseError(parser.diags)
    return result


def parse_net(src: str) -> Net:
    """Parse a network and return its canonical form."""
    p = _Parser(src)
    return canonicalize(_run(p, p.parse_net))


def parse_policy(src: str):
    p = _Parser(src)

    def entry():
        pol = p.parse_policy()
        p.expect("", "end of input")
        return pol
    return _run(p, entry)


def parse_obligation(src: str) -> Obligation:
    p = _Parser(src)
    return _run(p, p.parse_obligation)


# ---------------------------------------------------------------------------
# rendering

def _render_args(args, target) -> str:
    return f"({', '.join(map(render_term, args))})@{render_term(target)}"


def render_action(a: Action) -> str:
    return a.cap + _render_args(a.args, a.target)


# where each node that is not a binary operator sits in the table _PREC
_LEVEL = {ENot: _NOT, PForall: _QUANT, PExists: _QUANT}


def _level(node) -> int:
    if isinstance(node, EBin):
        return _PREC[node.op]
    return _LEVEL.get(type(node), _ATOM)


def _wrap(node, text, level) -> str:
    """text, in parentheses if node binds more loosely than level."""
    return f"({text})" if _level(node) < level else text


def _binary(e, render) -> str:
    """The text of a binary operator node.  A run of one operator is
    read down its spine in a loop, the right spine of right-associative
    `implies` and the left one of the others, so such a chain costs no
    frame per operator."""
    op = e.op
    prec = _PREC[op]
    right = op == "implies"
    operands = []
    while isinstance(e, EBin) and e.op == op:
        operands.append(e.left if right else e.right)
        e = e.right if right else e.left
    parts = [_wrap(x, render(x), prec + 1) for x in operands]
    end = _wrap(e, render(e), prec)
    return f" {op} ".join(parts + [end] if right else [end] + parts[::-1])


def render_process(p, term: bool = False, memo: Optional[dict] = None) -> str:
    """The source text of a process; a term, the continuation of a
    prefix or the body of a replication, has a parallel or a choice in
    parentheses.

    A chain of single prefixes is walked down in a loop to the first
    process that is not one, or whose text memo holds.  Without a memo
    the chain's action texts are then joined once, so that a chain's
    text costs time linear in its length; with one, its texts are
    built back up in a loop, a prefix's text its action's text joined
    to its continuation's.  So a chain costs no frame, and a choice, a
    parallel or a replication one frame each.  With a dict memo, which
    maps id(node) to the text of the node as a process, not as a term,
    every text built is kept in it and no process found there is
    rendered again; the caller keeps the nodes alive while memo is in
    use."""
    chain = []
    while (p.__class__ is Sum and len(p.branches) == 1
           and (memo is None or id(p) not in memo)):
        chain.append(p)
        p = p.branches[0][1]
    text = None if memo is None else memo.get(id(p))
    if text is None:
        if isinstance(p, Nil):
            text = "0"
        elif isinstance(p, Sum):
            parts = []
            for a, c in p.branches:
                parts.append(
                    f"{render_action(a)} . {render_process(c, True, memo)}")
            text = " + ".join(parts)
        elif isinstance(p, Par):
            text = (f"{render_process(p.left, False, memo)} | "
                    f"{render_process(p.right, False, memo)}")
        elif isinstance(p, Repl):
            text = f"* {render_process(p.body, True, memo)}"
        else:
            raise TypeError(f"not a process: {p!r}")
        if memo is not None:
            memo[id(p)] = text
    if (term or chain) and (isinstance(p, Par) or isinstance(p, Sum)
                            and len(p.branches) > 1):
        text = f"({text})"
    if memo is None:
        return " . ".join([render_action(node.branches[0][0])
                           for node in chain] + [text])
    for node in reversed(chain):
        text = f"{render_action(node.branches[0][0])} . {text}"
        memo[id(node)] = text
    return text


def render_cut(c: Cut) -> str:
    return (f"{render_term(c.subject)} :: {render_action(c.action)}"
            f" . {c.cont_var}")


def render_aspect(a: Aspect) -> str:
    return f"[{render_expr(a.rec)} if {render_cut(a.cut)} : {render_expr(a.cond)}]"


def render_expr(e) -> str:
    """The source text of a policy or a rec/cond expression."""
    if isinstance(e, ETrue):
        return "true"
    if isinstance(e, EFalse):
        return "false"
    if isinstance(e, ENot):
        # a comparison or occurs-in under not is bracketed for the reader
        # only: the parser reads `not a = b` as not (a = b) either way
        if isinstance(e.body, (EEqual, EOccursIn)):
            return f"not ({render_expr(e.body)})"
        return f"not {_wrap(e.body, render_expr(e.body), _NOT)}"
    if isinstance(e, EBin):
        return _binary(e, render_expr)
    if isinstance(e, EEqual):
        return f"{render_term(e.left)} = {render_term(e.right)}"
    if isinstance(e, ETest):
        return "test" + _render_args(e.args, e.at)
    if isinstance(e, EOccursIn):
        return f"{render_action(e.action)} occurs-in {e.var}"
    if isinstance(e, AspectPol):
        return render_aspect(e.aspect)
    raise TypeError(f"not an expression: {e!r}")


def render_entry(e: NetEntry, memo: Optional[dict] = None) -> str:
    """The source text of an entry; memo is passed on to
    `render_process`."""
    pol = render_expr(e.policy)
    if e.is_data():
        return f"{e.location} ::[{pol}] <{', '.join(e.body)}>"
    return f"{e.location} ::[{pol}] {render_process(e.body, False, memo)}"


def render_net(n: Net) -> str:
    """The source text of a network, one entry per line, each after the
    first led by ||.  It is the inverse of `parse_net` up to canonical
    order: parsing the text gives back canonicalize(n), as the tests
    check on the corpus and on generated networks."""
    return "\n|| ".join(render_entry(e) for e in n.entries)


def render_pred(p) -> str:
    if isinstance(p, ENot):
        return f"not {_wrap(p.body, render_pred(p.body), _ATOM)}"
    if isinstance(p, EBin):
        return _binary(p, render_pred)
    if isinstance(p, (PForall, PExists)):
        word = "forall" if isinstance(p, PForall) else "exists"
        return f"{word} {p.var} : {render_pred(p.body)}"
    if isinstance(p, PGeq):
        return f"{render_term(p.left)} >= {render_term(p.right)}"
    if isinstance(p, PTestPost):
        return "test'" + _render_args(p.args, p.at)
    return render_expr(p)       # true, false, = and test


def render_obligation(o: Obligation) -> str:
    cut = o.cut
    pattern = (f"{render_term(cut.subject)} : {cut.cap}"
               + _render_args(cut.args, cut.target))
    return f"AG [{pattern}] {render_pred(o.pred)}"
