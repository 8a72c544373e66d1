"""Seeded random generators for the fuzz and property tests.

Everything here is driven by an explicit random.Random so failures
reproduce from the seed printed by the failing test.
"""
import random

from aspectkbl.model import (Action, Aspect, AspectPol, BindVar, CAP_LETTER,
                             Const, Cut, EBin, EEqual, EFalse, ENot, EOccursIn,
                             ETest, ETrue, LabelPattern, Net, NetEntry, NIL,
                             Obligation, PExists, PForall, PTestPost, Par,
                             Repl, Sum, Var, WILDCARD, canonicalize,
                             take_actions)
from aspectkbl.parser import parse_net, parse_obligation, render_entry

LOCS = ("A", "B", "C")
CONSTS = ("k", "v", "w", "m", "n")
POL_OPS = ("oplus", "otimes", "and", "or", "implies", "pref")
REC_OPS = ("oplus", "otimes", "and", "or", "implies")
COND_OPS = ("and", "or")


def _par(parts):
    # rendered | chains reparse left-nested, so flatten and fold left
    leaves = []

    def flat(p):
        if isinstance(p, Par):
            flat(p.left)
            flat(p.right)
        else:
            leaves.append(p)

    for q in parts:
        flat(q)
    p = leaves[0]
    for q in leaves[1:]:
        p = Par(p, q)
    return p


# ---------------------------------------------------------------------------
# unrestricted ASTs for the renderer round-trip

def gen_action(rng, scope, fresh, pattern=False):
    cap = rng.choice(("out", "in", "read"))
    args = []
    new = []
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        if pattern and r < 0.2:
            args.append(WILDCARD)
        elif cap != "out" and r < 0.45:
            name = f"b{next(fresh)}"
            args.append(BindVar(name))
            new.append(name)
        elif scope and r < 0.7:
            args.append(Var(rng.choice(sorted(scope))))
        else:
            args.append(Const(rng.choice(CONSTS)))
    if scope and rng.random() < 0.3:
        target = Var(rng.choice(sorted(scope)))
    else:
        target = Const(rng.choice(LOCS))
    return Action(cap, tuple(args), target), new


def gen_process(rng, scope, fresh, depth=3):
    r = rng.random()
    if depth <= 0 or r < 0.15:
        return NIL
    if r < 0.25:
        return Repl(gen_process(rng, scope, fresh, depth - 1))
    if r < 0.40:
        return _par([gen_process(rng, scope, fresh, depth - 1)
                     for _ in range(2)])
    branches = []
    for _ in range(rng.randint(1, 2)):
        action, new = gen_action(rng, scope, fresh)
        cont = gen_process(rng, scope | set(new), fresh, depth - 1)
        branches.append((action, cont))
    return Sum(tuple(branches))


def gen_cut(rng):
    bound = []
    if rng.random() < 0.5:
        subject = Var("#s")
        bound.append("#s")
    else:
        subject = Const(rng.choice(LOCS))
    cap = rng.choice(("out", "in", "read"))
    args = []
    for i in range(rng.randint(1, 3)):
        r = rng.random()
        if r < 0.25:
            args.append(WILDCARD)
        elif r < 0.5:
            name = f"#a{i}"
            args.append(Var(name))
            bound.append(name)
        elif cap != "out" and r < 0.65:
            args.append(BindVar(f"p{i}"))
        else:
            args.append(Const(rng.choice(CONSTS)))
    if rng.random() < 0.3:
        target = Var("#t")
        bound.append("#t")
    else:
        target = Const(rng.choice(LOCS))
    cont = rng.choice(("X", "Y"))
    return Cut(subject, Action(cap, tuple(args), target), cont), bound


def _gen_eterm(rng, bound):
    if bound and rng.random() < 0.5:
        return Var(rng.choice(bound))
    return Const(rng.choice(CONSTS + LOCS))


def gen_expr(rng, bound, cont, ops, depth=2):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        pick = rng.randrange(5)
        if pick == 0:
            return ETrue()
        if pick == 1:
            return EFalse()
        if pick == 2:
            return EEqual(_gen_eterm(rng, bound), _gen_eterm(rng, bound))
        if pick == 3:
            args = tuple(_gen_eterm(rng, bound)
                         for _ in range(rng.randint(1, 2)))
            return ETest(args, _gen_eterm(rng, bound))
        args = tuple(rng.choice((WILDCARD, Const(rng.choice(CONSTS))))
                     for _ in range(rng.randint(1, 2)))
        template = Action(rng.choice(("out", "in", "read")), args,
                          Const(rng.choice(LOCS)))
        return EOccursIn(template, cont)
    if r < 0.45:
        return ENot(gen_expr(rng, bound, cont, ops, depth - 1))
    return EBin(rng.choice(ops),
                gen_expr(rng, bound, cont, ops, depth - 1),
                gen_expr(rng, bound, cont, ops, depth - 1))


def gen_aspect(rng):
    cut, bound = gen_cut(rng)
    rec = gen_expr(rng, bound, cut.cont_var, REC_OPS)
    cond = gen_expr(rng, bound, cut.cont_var, COND_OPS)
    return Aspect(rec, cut, cond)


def gen_policy(rng, depth=2):
    r = rng.random()
    if depth <= 0 or r < 0.4:
        pick = rng.randrange(4)
        if pick == 0:
            return ETrue()
        if pick == 1:
            return EFalse()
        return AspectPol(gen_aspect(rng))
    if r < 0.55:
        return ENot(gen_policy(rng, depth - 1))
    return EBin(rng.choice(POL_OPS), gen_policy(rng, depth - 1),
                gen_policy(rng, depth - 1))


def gen_net(rng):
    entries = []
    fresh = iter(range(1000))
    for _ in range(rng.randint(1, 4)):
        loc = rng.choice(LOCS)
        policy = gen_policy(rng)
        if rng.random() < 0.4:
            body = tuple(rng.choice(CONSTS + ("0", "12"))
                         for _ in range(rng.randint(1, 3)))
        else:
            body = gen_process(rng, set(), fresh)
        entries.append(NetEntry(loc, policy, body))
    return Net(tuple(entries))


def gen_pred(rng, bound, depth=2):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        pick = rng.randrange(5)
        if pick == 0:
            return ETrue()
        if pick == 1:
            return EFalse()
        if pick == 2:
            return EEqual(_gen_eterm(rng, bound), _gen_eterm(rng, bound))
        args = tuple(_gen_eterm(rng, bound)
                     for _ in range(rng.randint(1, 2)))
        at = Const(rng.choice(LOCS))
        return (ETest if pick == 3 else PTestPost)(args, at)
    if r < 0.5:
        return ENot(gen_pred(rng, bound, depth - 1))
    if r < 0.8:
        op = "and" if rng.random() < 0.5 else "or"
        return EBin(op, gen_pred(rng, bound, depth - 1),
                    gen_pred(rng, bound, depth - 1))
    var = f"$q{depth}"
    node = PForall if rng.random() < 0.5 else PExists
    return node(var, gen_pred(rng, bound + [var], depth - 1))


def gen_obligation(rng):
    bound = []
    if rng.random() < 0.7:
        subject = Var("$u")
        bound.append("$u")
    else:
        subject = Const(rng.choice(LOCS))
    args = []
    for i in range(rng.randint(1, 3)):
        r = rng.random()
        if r < 0.3:
            args.append(WILDCARD)
        elif r < 0.6:
            name = f"$a{i}"
            args.append(Var(name))
            bound.append(name)
        else:
            args.append(Const(rng.choice(CONSTS)))
    pattern = LabelPattern(subject, rng.choice("oir"), tuple(args),
                           Const(rng.choice(LOCS)))
    return Obligation(pattern, gen_pred(rng, bound))


# ---------------------------------------------------------------------------
# small executable nets for the soundness and congruence sweeps

def gen_small_aspect(rng, locs):
    bound = []
    if rng.random() < 0.6:
        subject = Var("#s")
        bound.append("#s")
    else:
        subject = Const(rng.choice(locs))
    cap = rng.choice(("out", "in", "read"))
    args = []
    for i in range(rng.randint(1, 2)):
        r = rng.random()
        # in and read templates may carry binders, so an argument
        # variable could end up bound to a formal; only out cuts get
        # argument variables that later flow into rec or cond
        if r < 0.4 or cap != "out":
            args.append(WILDCARD if r < 0.6 else Const(rng.choice(CONSTS)))
        elif r < 0.7:
            name = f"#a{i}"
            args.append(Var(name))
            bound.append(name)
        else:
            args.append(Const(rng.choice(CONSTS)))
    target = Const(rng.choice(locs)) if rng.random() < 0.7 else Var("#t")
    if isinstance(target, Var):
        bound.append("#t")
    cut = Cut(subject, Action(cap, tuple(args), target), "X")

    def atom():
        pick = rng.randrange(4)
        if pick == 0:
            return ETrue()
        if pick == 1:
            return EFalse()
        if pick == 2:
            args = tuple(Var(rng.choice(bound)) if bound and rng.random() < 0.4
                         else Const(rng.choice(CONSTS))
                         for _ in range(rng.randint(1, 2)))
            return ETest(args, Const(rng.choice(locs)))
        l = Var(rng.choice(bound)) if bound else Const(rng.choice(CONSTS))
        return EEqual(l, Const(rng.choice(CONSTS + locs)))

    rec = atom()
    if rng.random() < 0.3:
        rec = EBin(rng.choice(REC_OPS), rec, atom())
    cond = ETrue() if rng.random() < 0.6 else atom()
    return Aspect(rec, cut, cond)


def gen_small_policy(rng, locs):
    r = rng.random()
    if r < 0.4:
        return ETrue()
    if r < 0.8:
        return AspectPol(gen_small_aspect(rng, locs))
    return EBin("oplus", AspectPol(gen_small_aspect(rng, locs)),
                AspectPol(gen_small_aspect(rng, locs)))


def gen_small_process(rng, locs):
    scope = []
    actions = []
    for i in range(rng.randint(1, 2)):
        cap = rng.choice(("out", "in", "read"))
        args = []
        new = []
        for _ in range(rng.randint(1, 2)):
            if cap != "out" and rng.random() < 0.4:
                name = f"x{i}{len(args)}"
                args.append(BindVar(name))
                new.append(name)
            elif scope and rng.random() < 0.3:
                args.append(Var(rng.choice(scope)))
            else:
                args.append(Const(rng.choice(CONSTS)))
        scope.extend(new)
        actions.append(Action(cap, tuple(args), Const(rng.choice(locs))))
    proc = NIL
    for action in reversed(actions):
        proc = Sum(((action, proc),))
    return proc


def gen_small_net(rng):
    locs = tuple(rng.sample(LOCS, rng.randint(1, 3)))
    pols = {loc: gen_small_policy(rng, locs) for loc in locs}
    entries = []
    for loc in locs:
        for _ in range(rng.randint(0, 2)):
            data = tuple(rng.choice(CONSTS) for _ in range(rng.randint(1, 2)))
            entries.append(NetEntry(loc, pols[loc], data))
        for _ in range(rng.randint(0, 2)):
            entries.append(NetEntry(loc, pols[loc], gen_small_process(rng, locs)))
    if not entries:
        entries.append(NetEntry(locs[0], pols[locs[0]],
                                gen_small_process(rng, locs)))
    return Net(tuple(entries))


def gen_obligation_for(rng, net):
    locs = sorted({e.location for e in net.entries})
    bound = []
    if rng.random() < 0.7:
        subject = Var("$u")
        bound.append("$u")
    else:
        subject = Const(rng.choice(locs))
    args = []
    for i in range(rng.randint(1, 2)):
        r = rng.random()
        if r < 0.35:
            args.append(WILDCARD)
        elif r < 0.6:
            name = f"$a{i}"
            args.append(Var(name))
            bound.append(name)
        else:
            args.append(Const(rng.choice(CONSTS)))
    pattern = LabelPattern(subject, rng.choice("oir"), tuple(args),
                           Const(rng.choice(locs)))

    def atom(bound):
        pick = rng.randrange(4)
        if pick == 0:
            return ETrue()
        if pick == 1:
            l = Var(rng.choice(bound)) if bound and rng.random() < 0.6 \
                else Const(rng.choice(CONSTS + tuple(locs)))
            return EEqual(l, Const(rng.choice(CONSTS + tuple(locs))))
        args = tuple(Var(rng.choice(bound)) if bound and rng.random() < 0.4
                     else Const(rng.choice(CONSTS))
                     for _ in range(rng.randint(1, 2)))
        at = Const(rng.choice(locs))
        return (ETest if pick == 2 else PTestPost)(args, at)

    pred = atom(bound)
    r = rng.random()
    if r < 0.2:
        pred = ENot(pred)
    elif r < 0.4:
        pred = EBin("and" if rng.random() < 0.5 else "or", pred, atom(bound))
    elif r < 0.5:
        node = PForall if rng.random() < 0.5 else PExists
        pred = node("$q", atom(bound + ["$q"]))
    return Obligation(pattern, pred)


def gen_obligation_from_net(rng, net, quantify=False):
    """An obligation whose pattern and predicate constants come from
    the network's own actions and data: the pattern takes the shape of
    one of its actions, and the tests name tuples it holds or writes,
    with positions sometimes left to the pattern's variables.  So the
    pattern matches steps the network takes and the tests read tuples
    whose presence changes, where `gen_obligation_for` draws from
    CONSTS, which most networks never use.  With quantify, and when
    the network holds or writes a nonempty tuple, the predicate also
    has an exists or forall over one position of such a tuple, drawn
    after everything else, so the draws without it are unchanged."""
    acts = take_actions(net)
    locs = sorted({e.location for e in net.entries})
    tuples = [(e.location, e.body) for e in net.entries if e.is_data()]
    tuples += [(a.action.target.name, tuple(t.name for t in a.action.args))
               for a in acts if a.action.cap == "out"
               and all(isinstance(t, Const)
                       for t in (a.action.target,) + a.action.args)]
    names = sorted({n for _, body in tuples for n in body} | set(locs))
    bound = []

    def term(t):
        if isinstance(t, Const) and rng.random() < 0.7:
            return t
        return Const(rng.choice(names))

    if acts and rng.random() < 0.9:
        act = rng.choice(acts)
        subject = Const(act.source)
        if rng.random() < 0.7:
            subject = Var("$u")
            bound.append("$u")
        args = []
        for i, t in enumerate(act.action.args):
            r = rng.random()
            if r < 0.3:
                args.append(WILDCARD)
            elif r < 0.6:
                args.append(Var(f"$a{i}"))
                bound.append(f"$a{i}")
            else:
                args.append(term(t))
        target = act.action.target
        pattern = LabelPattern(subject, CAP_LETTER[act.action.cap],
                               tuple(args),
                               target if isinstance(target, Const)
                               else Const(rng.choice(locs)))
    else:
        pattern = LabelPattern(Const(rng.choice(locs)), rng.choice("oir"),
                               (WILDCARD,), Const(rng.choice(locs)))

    def atom():
        pick = rng.randrange(6)
        if pick == 0 or not tuples:
            return rng.choice((ETrue(), EFalse()))
        if pick == 1:
            left = Var(rng.choice(bound)) if bound else Const(rng.choice(names))
            return EEqual(left, Const(rng.choice(names)))
        at, body = rng.choice(tuples)
        args = tuple(Var(rng.choice(bound)) if bound and rng.random() < 0.3
                     else Const(n) for n in body)
        return (ETest if pick < 4 else PTestPost)(args, Const(at))

    pred = atom()
    r = rng.random()
    if r < 0.15:
        pred = ENot(pred)
    elif r < 0.45:
        pred = EBin("and" if rng.random() < 0.5 else "or", pred, atom())
    elif r < 0.55:
        pred = ENot(EBin("and" if rng.random() < 0.5 else "or", pred, atom()))
    tuples = [t for t in tuples if t[1]] if quantify else []
    if tuples:
        at, body = rng.choice(tuples)
        q = rng.randrange(len(body))
        args = tuple(Var("$q") if i == q else Var(rng.choice(bound))
                     if bound and rng.random() < 0.2 else Const(n)
                     for i, n in enumerate(body))
        test = (ETest if rng.random() < 0.7 else PTestPost)(args, Const(at))
        inner = ENot(test) if rng.random() < 0.3 else test
        quantified = rng.choice((PExists, PForall))("$q", inner)
        r = rng.random()
        pred = quantified if r < 0.3 else EBin(
            "and" if r < 0.65 else "or", pred, quantified)
    return Obligation(pattern, pred)


def gen_ward_net(rng):
    """A small ward in the shape of the benchmark's: staff read the
    notes of a guarded store, file a copy in an archive and maybe read
    its index, while an administrator changes roles in between, so the
    guard's test of a role changes from state to state."""
    staff = rng.sample(("Ann", "Bo", "Cy", "Di"), rng.randint(2, 3))
    roles = {s: rng.choice(("Doctor", "Nurse")) for s in staff}
    changes = []
    for s in rng.sample(staff, rng.randint(1, 2)):
        old, new = roles[s], "Nurse" if roles[s] == "Doctor" else "Doctor"
        changes += [f"in({old}, {s})@ROLES", f"out({new}, {s})@ROLES"]
    if rng.random() < 0.3:
        changes.append("read(Doctor, !d)@ROLES")
    guard = rng.choice((
        "[test(Doctor, #u)@ROLES if #u :: read(Notes, _)@Store . X : true]",
        "[test(Doctor, #u)@ROLES if #u :: read(Notes, _)@Store . X : true]"
        " oplus [not test(Nurse, #u)@ROLES if #u :: in(_, _)@Store . X"
        " : true]",
        "[test(Doctor, #u)@ROLES if #u :: read(Notes, _)@Store . X"
        " : out(Copy, _)@Archive occurs-in X]"))
    entries = [f"Store ::[{guard}] <Notes, n1>",
               "Archive ::[true] <Index, i1>",
               f"Admin ::[true] {' . '.join(changes)} . 0"]
    entries += [f"ROLES ::[true] <{roles[s]}, {s}>" for s in staff]
    for s in staff:
        steps = ["read(Notes, !c)@Store", "out(Copy, c)@Archive"]
        if rng.random() < 0.5:
            steps.append(rng.choice(("read(Index, !i)@Archive",
                                     f"out(Done, {s})@Store")))
        entries.append(f"{s} ::[true] {' . '.join(steps)} . 0")
    rng.shuffle(entries)
    return parse_net(" || ".join(entries))


def gen_guarded_net(rng):
    """A network whose processes at P and Q change the flags and roles
    at R that the policies at S and Q test, so the truth of those tests
    changes from state to state."""
    flags = ("a", "b", "P", "Q")

    def atom(bound):
        pick = rng.randrange(5)
        if pick == 0:
            return f"test({rng.choice(flags + bound)})@R"
        if pick == 1:
            return f"not test({rng.choice(flags)})@R"
        if pick == 2:
            return f"{rng.choice(bound)} = {rng.choice(flags)}"
        if pick == 3:
            cap = rng.choice(("out", "in"))
            return f"{cap}({rng.choice(flags + ('_',))})@R occurs-in X"
        return rng.choice(("true", "false"))

    def aspect(at):
        cap = rng.choice(("out", "in", "read"))
        arg = "#a" if cap == "out" and rng.random() < 0.5 else "_"
        bound = ("#u", "#a") if arg == "#a" else ("#u",)
        rec = atom(bound)
        if rng.random() < 0.5:
            rec = f"({rec}) {rng.choice(REC_OPS)} ({atom(bound)})"
        cond = "true" if rng.random() < 0.4 else atom(bound)
        return f"[{rec} if #u :: {cap}({arg})@{at} . X : {cond}]"

    def policy(at):
        pol = aspect(at)
        if rng.random() < 0.5:
            pol = f"{pol} {rng.choice(POL_OPS)} {aspect(at)}"
        return f"not {pol}" if rng.random() < 0.2 else pol

    def process():
        steps = []
        for _ in range(rng.randint(1, 3)):
            c = rng.choice(flags)
            steps.append(rng.choice((
                f"out({c})@R", f"in({c})@R", f"read({c})@R", f"out({c})@S",
                f"in(!x)@R . out(x)@S", f"read(!x)@S . out(x)@Q")))
        return " . ".join(steps) + " . 0"

    entries = [f"R ::[true] <{c}>" for c in flags if rng.random() < 0.5]
    entries += [f"S ::[{policy('S')}] <a>", f"P ::[true] {process()}",
                f"Q ::[{policy('Q')}] {process()}"]
    return parse_net(" || ".join(entries))


def congruent_variant(rng, net):
    """Rewrite the net with rules that preserve its canonical form."""
    entries = list(net.entries)
    for _ in range(rng.randint(1, 3)):
        pick = rng.randrange(5)
        if pick == 0:
            idxs = [i for i, e in enumerate(entries)
                    if isinstance(e.body, Par)]
            if idxs:
                i = rng.choice(idxs)
                e = entries[i]
                entries[i:i + 1] = [NetEntry(e.location, e.policy, e.body.left),
                                    NetEntry(e.location, e.policy, e.body.right)]
        elif pick == 1:
            groups = {}
            for i, e in enumerate(entries):
                if not e.is_data():
                    groups.setdefault((e.location, repr(e.policy)), []).append(i)
            pairs = [g for g in groups.values() if len(g) >= 2]
            if pairs:
                i, j = rng.choice(pairs)[:2]
                a, b = entries[i], entries[j]
                entries[i] = NetEntry(a.location, a.policy, Par(a.body, b.body))
                del entries[j]
        elif pick == 2:
            e = rng.choice(entries)
            entries.insert(rng.randrange(len(entries) + 1),
                           NetEntry(e.location, e.policy, NIL))
        elif pick == 3:
            idxs = [i for i, e in enumerate(entries) if not e.is_data()]
            if idxs:
                i = rng.choice(idxs)
                e = entries[i]
                body = Par(e.body, NIL) if rng.random() < 0.5 else Par(NIL, e.body)
                entries[i] = NetEntry(e.location, e.policy, body)
        else:
            rng.shuffle(entries)
    return Net(tuple(entries))


def separate_bodies(net):
    """The canonical form of the network with every entry parsed from
    its own text, so that no two entries share a body node, where one
    parse of the whole text shares one between entries whose bodies
    read the same."""
    return canonicalize(Net(tuple(e for x in net.entries
                                  for e in parse_net(render_entry(x)).entries)))


ROLES = ("Doctor", "Nurse", "Clerk")
STAFF = ("Ann", "Bo", "Cy", "Di", "Ed", "Flo", "Gus", "Hal", "Ida", "Jo",
         "Kit", "Lu", "Max", "Ned", "Oz")


def gen_role_net(rng):
    """A role-based ward: 1-3 roles of 1-5 principals each, every
    principal running its role's process, which reads the notes of a
    store whose guard tests the reader's role.  Roles often run one
    process, so that only their tuples at ROLES tell them apart.
    Principals of one role are interchangeable unless a symmetry
    breaker tells them apart: an admin whose process names one, a
    policy `#u = P`, a data tuple naming two, a second entry or another
    policy at one, or names that are numerals (`gen_role_obligation`
    reads them with >=).  The numerals are not names the grammar
    admits at a location, so such a network is built, not parsed."""
    roles = ROLES[:rng.randint(1, 3)]
    staff = iter(rng.sample(STAFF, len(STAFF)))
    members = {r: [next(staff) for _ in range(rng.randint(1, 5))]
               for r in roles}
    people = [p for r in roles for p in members[r]]
    steps = ("read(Index, !i)@Archive", "in(Notes, !d)@Store",
             f"read({roles[-1]}, !x)@ROLES", "out(Done, i1)@Store")
    shared = rng.random() < 0.6

    def process():
        tail = rng.sample(steps, rng.randint(0, 1))
        return " . ".join(["read(Notes, !c)@Store", "out(Copy, c)@Archive",
                           *tail, "0"])

    bodies = dict.fromkeys(roles, process()) if shared \
        else {r: process() for r in roles}
    guard = (f"[test({rng.choice(roles)}, #u)@ROLES if #u :: "
             "read(Notes, _)@Store . X : true]")
    if rng.random() < 0.3:
        guard += (f" oplus [not test({rng.choice(roles)}, #u)@ROLES if #u ::"
                  " in(_, _)@Store . X : true]")
    archive = "true"
    if rng.random() < 0.2:            # a policy names a principal
        archive = (f"[not #u = {rng.choice(people)} if #u :: "
                   "out(Copy, _)@Archive . X : true]")
    entries = [f"Store ::[{guard}] <Notes, n1>",
               f"Archive ::[{archive}] <Index, i1>"]
    if rng.random() < 0.2:            # an admin names a principal
        p = rng.choice(people)
        entries.append(f"Admin ::[true] in({rng.choice(roles)}, {p})@ROLES "
                       f". out(Clerk, {p})@ROLES . 0")
    if rng.random() < 0.2 and len(people) > 1:   # a tuple names two
        a, b = rng.sample(people, 2)
        entries.append(f"ROLES ::[true] <Mentor, {a}, {b}>")
    if rng.random() < 0.2:            # a tuple names some
        entries += [f"Archive ::[true] <Log, {p}>"
                    for p in rng.sample(people, rng.randint(1, len(people)))]
    for r in roles:
        for p in members[r]:
            entries.append(f"ROLES ::[true] <{r}, {p}>")
            pol = "true"
            if rng.random() < 0.1:
                pol = "[false if #u :: out(Copy, _)@Archive . X : true]"
            entries.append(f"{p} ::[{pol}] {bodies[r]}")
            if rng.random() < 0.1:    # a second entry, or another policy
                other = rng.choice(("true", "false"))
                entries.append(f"{p} ::[{other}] {bodies[r]}")
    rng.shuffle(entries)
    net = parse_net(" || ".join(entries))
    if rng.random() < 0.2:            # numerals for names
        numeral = {p: str(n) for n, p in enumerate(people, 1)}
        net = canonicalize(Net(tuple(
            NetEntry(numeral.get(e.location, e.location), e.policy,
                     tuple(numeral.get(v, v) for v in e.body)
                     if e.is_data() else e.body)
            for e in net.entries)))
    return net


def gen_role_obligation(rng, net):
    """An obligation on a `gen_role_net` ward: a role test on who reads
    the notes or files a copy, a quantified role test, a numeral bound
    on the reader, or a subject that names one principal."""
    roles = sorted({e.body[0] for e in net.entries
                    if e.location == "ROLES" and e.body[0] in ROLES})
    role = rng.choice(roles)
    staff = sorted({e.location for e in net.entries if not e.is_data()}
                   - {"Admin"})
    who = rng.choice(staff) if rng.random() < 0.15 else "$u"
    cut = rng.choice(("r(Notes, _)@Store", "o(Copy, _)@Archive"))
    pred = rng.choice((
        f"test({role}, {who})@ROLES",
        f"not test({role}, {who})@ROLES",
        f"test({role}, {who})@ROLES or test'(Clerk, {who})@ROLES",
        f"{who} >= 3"))
    if rng.random() < 0.05:
        pred = rng.choice((
            f"exists $x : test({role}, $x)@ROLES",
            f"forall $x : (not test({role}, $x)@ROLES"
            f" or test'({role}, $x)@ROLES)",
            f"{pred} and (exists $x : test(Clerk, $x)@ROLES)"))
    obl = parse_obligation(f"AG [$u : {cut}] {pred}\n")
    if who != "$u":
        obl = Obligation(obl.cut._replace(subject=Const(who)), obl.pred)
    return obl
