"""Independent re-derivations used as test oracles, and the helpers
the tests judge single steps, policies and predicates with.

The four-valued operators are recomputed here from the two Hasse
diagrams by brute force (reflexive-transitive closure, then minimal
upper bound / maximal lower bound search) so the tests do not merely
compare the implementation tables against themselves.
"""
from typing import NamedTuple

from aspectkbl import (BOT, TT, FF, TOP, VALUES, build_lts, data_index,
                       loc_set, match)
from aspectkbl.belnap import GRANTS, LIFTED
from aspectkbl.certify import (NOT_CERTIFIED, MutationInfo, StaticVerdict,
                               check_single_action)
from aspectkbl.exhaustive import TransitionCheck
from aspectkbl.model import (CAP_LETTER, Action, Aspect, AspectPol, BindVar,
                             Const, Cut, Diagnostic, EBin, EEqual, EFalse,
                             ENot, EOccursIn, ETest, ETrue, EvaluationError,
                             Label, LocatedAction, Net, NetEntry, Nil, Par,
                             PExists, PForall, PGeq, PTestPost, Repl,
                             Substitution, Sum, Var, Wildcard, canonicalize,
                             render_term, split_entry, subst_key)
from aspectkbl.parser import KEYWORDS, render_expr
from aspectkbl.semantics import (StateDomain, net_text, policies_by_location,
                                 policy_values, pred_values, quantified)

_TEXT = {BOT: "bot", TT: "tt", FF: "ff", TOP: "top"}

# knowledge order: bot below tt and ff, both below top
_K_HASSE = {("bot", "tt"), ("bot", "ff"), ("tt", "top"), ("ff", "top")}
# truth order: ff below bot and top, both below tt
_T_HASSE = {("ff", "bot"), ("ff", "top"), ("bot", "tt"), ("top", "tt")}


def _closure(hasse):
    rel = {(t, t) for t in _TEXT.values()} | set(hasse)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


_K = _closure(_K_HASSE)
_T = _closure(_T_HASSE)


def leq_k(a, b):
    return (_TEXT[a], _TEXT[b]) in _K


def leq_t(a, b):
    return (_TEXT[a], _TEXT[b]) in _T


def _lub(a, b, leq):
    ups = [c for c in VALUES if leq(a, c) and leq(b, c)]
    least = [c for c in ups if all(leq(c, d) for d in ups)]
    assert len(least) == 1, (a, b, least)
    return least[0]


def _glb(a, b, leq):
    downs = [c for c in VALUES if leq(c, a) and leq(c, b)]
    greatest = [c for c in downs if all(leq(d, c) for d in downs)]
    assert len(greatest) == 1, (a, b, greatest)
    return greatest[0]


def join_k(a, b):
    return _lub(a, b, leq_k)


def meet_k(a, b):
    return _glb(a, b, leq_k)


def join_t(a, b):
    return _lub(a, b, leq_t)


def meet_t(a, b):
    return _glb(a, b, leq_t)


def neg(a):
    return {BOT: BOT, TT: FF, FF: TT, TOP: TOP}[a]


def implies(a, b):
    # second operand if the first is at most tt in knowledge, else tt
    return b if leq_k(a, TT) else TT


def priority(a, b):
    return b if a == BOT else a


def grant(a):
    return leq_k(a, TT)


# ---------------------------------------------------------------------------
# syntax nodes

# The fields of each syntax node in order, as the frozen dataclasses
# that the nodes once were declared them.
NODE_FIELDS = {
    Const: ("name",), Var: ("name",), BindVar: ("name",), Wildcard: (),
    Action: ("cap", "args", "target"), Nil: (), Sum: ("branches",),
    Par: ("left", "right"), Repl: ("body",),
    Cut: ("subject", "action", "cont_var"),
    ETrue: (), EFalse: (), ENot: ("body",), EBin: ("op", "left", "right"),
    EEqual: ("left", "right"), ETest: ("args", "at"),
    EOccursIn: ("action", "var"), Aspect: ("rec", "cut", "cond"),
    AspectPol: ("aspect",), PForall: ("var", "body"),
    PExists: ("var", "body"), PTestPost: ("args", "at"),
    PGeq: ("left", "right"),
}


def node_text(x) -> str:
    """The text `repr` gives for a frozen dataclass with the node's
    fields, by a walk over the fields: names and other strings as
    their repr, tuples as Python prints them, nodes as Class(field=
    text, ...).  The nodes' memoised texts must equal it, since
    canonical order sorts by them."""
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, tuple):
        items = [node_text(i) for i in x]
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    fields = ", ".join(f"{f}={node_text(getattr(x, f))}"
                       for f in NODE_FIELDS[type(x)])
    return f"{type(x).__name__}({fields})"


def entry_key(e) -> tuple:
    """`NetEntry.sort_key` by the field walk."""
    return (e.location, "data" if isinstance(e.body, tuple) else "proc",
            node_text(e.body), node_text(e.policy))


def subnodes(x):
    """Every node in a tree, x first, then its fields' nodes in order."""
    if isinstance(x, tuple):
        for item in x:
            yield from subnodes(item)
    elif not isinstance(x, str):
        yield x
        for f in NODE_FIELDS[type(x)]:
            yield from subnodes(getattr(x, f))


def plain_process_text(p, term=False) -> str:
    """`render_process` by plain recursion, with no memo: a prefix is
    its action's text, " . " and its continuation's text as a term,
    where a choice of several branches or a parallel is bracketed."""
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Sum):
        text = " + ".join(
            f"{a.cap}({', '.join(render_term(t) for t in a.args)})"
            f"@{render_term(a.target)} . {plain_process_text(c, True)}"
            for a, c in p.branches)
        return f"({text})" if term and len(p.branches) > 1 else text
    if isinstance(p, Par):
        text = f"{plain_process_text(p.left)} | {plain_process_text(p.right)}"
        return f"({text})" if term else text
    if isinstance(p, Repl):
        return "* " + plain_process_text(p.body, True)
    raise TypeError(f"not a process: {p!r}")


def plain_entry_text(e) -> str:
    """`render_entry` with the body rendered by `plain_process_text`."""
    body = (f"<{', '.join(e.body)}>" if e.is_data()
            else plain_process_text(e.body))
    return f"{e.location} ::[{render_expr(e.policy)}] {body}"


def plain_consts(e) -> frozenset:
    """`entry_consts` by a walk over every node of the entry."""
    names = {e.location, *(e.body if e.is_data() else ())}
    for tree in (e.policy, () if e.is_data() else e.body):
        names.update(n.name for n in subnodes(tree) if isinstance(n, Const))
    return frozenset(names)


def plain_subst(x, key, val):
    """Substitute val for the variable or binder keyed key, rebuilding
    every node of x: the reference for the sharing substitution.  A
    binder !key shadows key in its continuation, and a quantifier of
    key its body."""
    if isinstance(x, tuple):
        return tuple(plain_subst(t, key, val) for t in x)
    if isinstance(x, Var) and x.name == key \
            or isinstance(x, BindVar) and "!" + x.name == key:
        return val
    if isinstance(x, (Const, Var, BindVar, Wildcard, Nil, ETrue, EFalse)):
        return x
    if isinstance(x, Sum):
        return Sum(tuple(
            (plain_subst(a, key, val),
             c if BindVar(key) in a.args else plain_subst(c, key, val))
            for a, c in x.branches))
    if isinstance(x, (PForall, PExists)) and x.var == key:
        return x
    fields = (getattr(x, f) for f in NODE_FIELDS[type(x)])
    return type(x)(*(f if isinstance(f, str) else plain_subst(f, key, val)
                     for f in fields))


def reference_actions(net) -> list:
    """`take_actions` by a walk of every entry's body on its own, in
    document order: the branches of a sum in turn, each action before
    those of its continuation, the left of a parallel composition
    first."""
    acts = []

    def walk(e, p):
        if isinstance(p, Sum):
            for action, cont in p.branches:
                acts.append(LocatedAction(e.location, e.policy, action, cont))
                walk(e, cont)
        elif isinstance(p, Par):
            walk(e, p.left)
            walk(e, p.right)
        elif isinstance(p, Repl):
            walk(e, p.body)

    for e in net.entries:
        if not e.is_data():
            walk(e, e.body)
    return acts


def reference_steps(net):
    """`step_candidates` of a network, (steps, denied), found by plain
    scans of the canonical state: the guard of a target is its first
    entry, an in or read tries every data entry at its target in state
    order, the policies are judged afresh and every successor is built
    as a `Net` and canonicalised whole.  Nothing is interned or cached,
    so this is the reference for the explorer's tables and bisections.
    """
    entries = canonicalize(net).entries
    here = data_index(Net(entries))
    steps: dict = {}            # (acting position, label, successor) -> None
    denied: dict = {}           # (label, value) -> None
    done = set()
    for p, e in enumerate(entries):
        if not isinstance(e.body, Sum) or e in done:
            continue
        done.add(e)
        rest = entries[:p] + entries[p + 1:]
        for action, cont in e.body.branches:
            tgt = action.target
            if not isinstance(tgt, Const):
                raise EvaluationError(f"unbound target in {action!r}")
            guard = next((g for g in entries if g.location == tgt.name), None)
            if guard is None:
                continue
            f = LIFTED["oplus"][
                policy_values(e.policy, e.location, action, cont,
                              StateDomain(here))][
                policy_values(guard.policy, e.location, action, cont,
                              StateDomain(here))]
            letter = CAP_LETTER[action.cap]
            if action.cap == "out":
                if not all(isinstance(t, Const) for t in action.args):
                    raise EvaluationError(f"unbound out argument in {action!r}")
                values = tuple(t.name for t in action.args)
                moves = [(values, rest, cont,
                          (NetEntry(tgt.name, guard.policy, values),))]
            else:
                moves = []
                consumed = set()
                for q, d in enumerate(rest):
                    if d.location != tgt.name or not d.is_data() \
                            or d.body in consumed:
                        continue
                    theta = match(action.args, d.body)
                    if theta is None:
                        continue
                    consumed.add(d.body)
                    kept = rest if action.cap == "read" \
                        else rest[:q] + rest[q + 1:]
                    moves.append((d.body, kept, theta.apply(cont), ()))
            for values, kept, after, put in moves:
                label = Label(e.location, letter, values, tgt.name)
                if not f & GRANTS:
                    denied[label, f] = None
                    continue
                flat: list = []
                split_entry(e.location, e.policy, after, flat)
                succ = canonicalize(Net(kept + tuple(flat) + put))
                steps[p, label, succ] = None
    return [(label, succ) for _, label, succ in steps], list(denied)


def enabled_steps(net):
    """The (label, successor) pairs of the steps a network can take."""
    return reference_steps(net)[0]


def _unify_pair(p, a):
    """The substitution unifying one pattern term with one action term,
    None on a mismatch."""
    if isinstance(p, Wildcard):
        return Substitution()
    if isinstance(p, Const):
        if isinstance(a, Const):
            return Substitution() if p.name == a.name else None
        if isinstance(a, (Var, BindVar)):
            return Substitution(((subst_key(a), p),))
        return None
    if isinstance(a, (Const, Var, BindVar)):
        return Substitution(((subst_key(p), a),))
    return None


def findsubs_stepwise(pattern, action):
    """`findsubs` as first written: each pair of terms, under the
    substitution built so far, is unified into a substitution of its
    own, which is then appended to it."""
    if len(pattern) != len(action):
        return None
    theta = Substitution()
    for p, a in zip(pattern, action):
        step = _unify_pair(theta.apply_term(p), theta.apply_term(a))
        if step is None:
            return None
        theta = Substitution(theta.pairs + step.pairs)
    return theta


def eval_policy(pol, trapped, net):
    """Judge an attempted action (a LocatedAction) under a policy in
    the network's state.  The action is the template as written, with
    input binders still unsubstituted.  The value is a singleton."""
    return policy_values(pol, trapped.source, trapped.action,
                         trapped.continuation, StateDomain(data_index(net)))


def sat_pred(pair, theta, pred):
    """Satisfaction of a predicate on a transition's state pair, under
    the substitution that matched the obligation's pattern."""
    pre, post = pair
    return pred_values(theta.apply(pred),
                       StateDomain(data_index(pre), data_index(post)),
                       sorted(loc_set(pre) | loc_set(post))) == TT


def maximal_paths(lts):
    """All label sequences from the initial state, state 0, to a stuck
    state."""
    succ = {}
    for t in lts.transitions:
        succ.setdefault(t.src, []).append(t)
    done = []
    stack = [(0, ())]
    while stack:
        sid, path = stack.pop()
        if sid not in succ:
            done.append(path)
            continue
        for t in succ[sid]:
            stack.append((t.dst, path + (t.label.text(),)))
    return sorted(set(done))


def replay(net, witness):
    """Drive the network along the witness path by label text and
    confirm that the failing step is enabled at its end and that its
    predicate is not true on it.  Entries of one location may make
    steps of the same label, so every network the labels reach is
    followed."""
    nets = [net]
    for want in witness.path:
        nets = list(dict.fromkeys(s for n in nets for l, s in enabled_steps(n)
                                  if l.text() == want.text()))
    return any(l.text() == witness.label.text()
               and not sat_pred((n, s), witness.theta, witness.pred)
               for n in nets for l, s in enabled_steps(n))


def lts_document(lts):
    """The JSON document of an LTS as a dict, for `json.dumps`: the
    states with their `net_text` and the transitions with their label
    text, each in order.  `json_export` writes this document's text."""
    return {
        "states": [{"id": sid, "net": net_text(net)}
                   for sid, net in enumerate(lts.states)],
        "transitions": [{"from": t.src, "to": t.dst, "label": t.label.text()}
                        for t in lts.transitions],
    }


def check_whole(net, obl, **limits):
    """Check the obligation over the whole transition system, with no
    reduction and no early stop.  `sat_obl`'s reduced search takes the
    static certifier's word on which steps are visible, so this, not
    `sat_obl`, is the oracle the certifier is tested against.  The
    transitions are checked in discovery order up to the first that
    violates."""
    lts = build_lts(net, **limits)
    check = TransitionCheck(obl)
    for t in lts.transitions:
        if check(lts, t):
            break
    return check.verdict(lts)


def judge_each(net, obl):
    """`check_network`'s verdict with every located action judged on
    its own, none taking the renamed report of an interchangeable
    location: the reference for the certifier's per-class judging."""
    net = canonicalize(net)
    mut = MutationInfo(net)
    pols = policies_by_location(net)
    domain = sorted(loc_set(net)) if quantified(obl.pred) else ()
    reports = tuple(check_single_action(obl, act, pols, mut, domain)
                    for act in mut.actions)
    return StaticVerdict(all(r.outcome != NOT_CERTIFIED for r in reports),
                         reports, mut)


# A lexer that reads one character at a time: the reference that
# `parser._lex`, with the positions of `parser._positions`, must agree
# with on ASCII input.
class Token(NamedTuple):
    kind: str                # ident, number, kw, dollar, hash, occursin,
                             # punctuation text, or eof
    text: str
    line: int
    col: int


_PUNCT2 = ("||", "::", ">=")
_PUNCT1 = "|+*:.,()<>[]@!_='"


def reference_lex(src: str, diags: list) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)

    def push(kind, text, l, c):
        toks.append(Token(kind, text, l, c))

    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_l, start_c = line, col
        if src.startswith("occurs-in", i):
            after = i + len("occurs-in")
            if after >= n or not (src[after].isalnum() or src[after] == "_"):
                push("occursin", "occurs-in", start_l, start_c)
                i = after
                col += len("occurs-in")
                continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            push("kw" if word in KEYWORDS else "ident", word, start_l, start_c)
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            push("number", src[i:j], start_l, start_c)
            col += j - i
            i = j
            continue
        if ch in "$#":
            j = i + 1
            if j < n and src[j].isalpha():
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                kind = "dollar" if ch == "$" else "hash"
                push(kind, src[i:j], start_l, start_c)
                col += j - i
                i = j
                continue
            diags.append(Diagnostic(f"expected a name after {ch}",
                                    start_l, start_c))
            i += 1
            col += 1
            continue
        two = src[i:i + 2]
        if two in _PUNCT2:
            push(two, two, start_l, start_c)
            i += 2
            col += 2
            continue
        if ch == "_":
            j = i + 1
            if j < n and (src[j].isalnum() or src[j] == "_"):
                diags.append(Diagnostic(
                    "names may not start with an underscore",
                    start_l, start_c))
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                col += j - i
                i = j
                continue
            push("_", "_", start_l, start_c)
            i += 1
            col += 1
            continue
        if ch in _PUNCT1:
            push(ch, ch, start_l, start_c)
            i += 1
            col += 1
            continue
        diags.append(Diagnostic(f"stray character {ch!r}", start_l, start_c))
        i += 1
        col += 1
    toks.append(Token("eof", "", line, col))
    return toks
