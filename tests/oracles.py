"""Independent re-derivations used as test oracles, and the helpers
the tests judge single steps, policies and predicates with.

The four-valued operators are recomputed here from the two Hasse
diagrams by brute force (reflexive-transitive closure, then minimal
upper bound / maximal lower bound search) so the tests do not merely
compare the implementation tables against themselves.
"""
from aspectkbl import (BOT, TT, FF, TOP, VALUES, build_lts, data_index,
                       loc_set, step_candidates)
from aspectkbl.exhaustive import TransitionCheck
from aspectkbl.model import Diagnostic
from aspectkbl.parser import KEYWORDS, Token
from aspectkbl.semantics import StateDomain, policy_values, pred_values

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


def enabled_steps(net):
    """The (label, successor) pairs of the steps a network can take."""
    return step_candidates(net)[0]


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
    return pred_values(theta.apply_expr(pred),
                       StateDomain(data_index(pre), data_index(post)),
                       sorted(loc_set(pre) | loc_set(post))) == TT


def maximal_paths(lts):
    """All label sequences from the initial state to a stuck state."""
    succ = {}
    for t in lts.transitions:
        succ.setdefault(t.src, []).append(t)
    done = []
    stack = [(lts.initial, ())]
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


# A lexer that reads one character at a time: the reference that
# `parser._lex` must agree with on ASCII input.
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
            diags.append(Diagnostic("error", f"expected a name after {ch}",
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
                diags.append(Diagnostic("error",
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
        diags.append(Diagnostic("error", f"stray character {ch!r}",
                                start_l, start_c))
        i += 1
        col += 1
    toks.append(Token("eof", "", line, col))
    return toks
