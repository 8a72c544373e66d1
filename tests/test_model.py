"""Structure layer: canonical forms, substitution, validation."""
import random

from aspectkbl.model import (Action, Const, BindVar, EEqual, EFalse, ETrue,
                             Net, NetEntry, NIL, Par, PForall, Repl,
                             Substitution, Sum, Var, WILDCARD, canonicalize,
                             has_replication, loc_set, subst_key,
                             take_actions, validate)
from aspectkbl import corpus_path, parse_net, parse_policy
import gen

T = ETrue()
F = EFalse()


def chain(*actions):
    p = NIL
    for a in reversed(actions):
        p = Sum(((a, p),))
    return p


OUT_K = Action("out", (Const("k"),), Const("B"))
IN_K = Action("in", (Const("k"),), Const("B"))


def test_top_level_par_is_split_into_entries():
    net = Net((NetEntry("A", T, Par(chain(OUT_K), chain(IN_K))),))
    got = canonicalize(net)
    assert len(got.entries) == 2
    assert all(e.location == "A" and e.policy == T for e in got.entries)


def test_nil_dropped_only_while_a_sibling_remains():
    keep = canonicalize(Net((NetEntry("A", T, NIL),)))
    assert [e.body for e in keep.entries] == [NIL]

    dropped = canonicalize(Net((NetEntry("A", T, NIL),
                                NetEntry("A", T, chain(OUT_K)))))
    assert [e.body for e in dropped.entries] == [chain(OUT_K)]

    # policies are part of the key, a differently guarded nil survives
    other = canonicalize(Net((NetEntry("A", F, NIL),
                              NetEntry("A", T, chain(OUT_K)))))
    assert len(other.entries) == 2


def test_duplicate_nils_collapse_to_one():
    net = Net((NetEntry("A", T, NIL), NetEntry("A", T, NIL),
               NetEntry("A", T, Par(NIL, NIL))))
    assert [e.body for e in canonicalize(net).entries] == [NIL]


def test_canonicalize_is_idempotent_and_order_insensitive():
    rng = random.Random(5)
    for _ in range(100):
        net = gen.gen_net(rng)
        c = canonicalize(net)
        assert canonicalize(c) == c
        shuffled = list(net.entries)
        rng.shuffle(shuffled)
        assert canonicalize(Net(tuple(shuffled))) == c


def test_sort_key_is_the_rendered_entry_and_survives_canonicalize():
    corpus = sorted(corpus_path("eq1.obl").parent.glob("*.akbl"))
    nets = [parse_net(f.read_text()) for f in corpus]
    for family in (gen.gen_small_net, gen.gen_guarded_net, gen.gen_ward_net):
        nets += [family(random.Random(seed)) for seed in range(100)]
    for net in nets:
        canonical = canonicalize(net)
        for e in net.entries + canonical.entries:
            kind = "data" if e.is_data() else "proc"
            assert e.sort_key == (e.location, kind, repr(e.body),
                                  repr(e.policy))
        # a canonical net keeps its entry objects, and so their keys
        again = canonicalize(canonical).entries
        assert len(again) == len(canonical.entries)
        assert all(a is b for a, b in zip(again, canonical.entries))


def test_data_entries_sort_before_processes():
    net = Net((NetEntry("A", T, chain(OUT_K)), NetEntry("A", T, ("k",))))
    got = canonicalize(net)
    assert got.entries[0].is_data() and not got.entries[1].is_data()


def test_validate_flags_inconsistent_policies():
    net = Net((NetEntry("A", T, ("k",)), NetEntry("A", F, ("v",))))
    diags = validate(net)
    assert [d.severity for d in diags] == ["error"]
    assert "A" in diags[0].message

    ok = Net((NetEntry("A", T, ("k",)), NetEntry("A", T, ("v",))))
    assert validate(ok) == []


def test_validate_flags_replication():
    net = Net((NetEntry("A", T, Repl(chain(OUT_K))),))
    assert has_replication(net)
    assert [d.severity for d in validate(net)] == ["error"]


def test_loc_set_covers_data_processes_and_policies():
    net = parse_net(
        "A ::[[test(x)@Roles if #u :: out(_)@Sink . X : #u = Admin]] <w>\n"
        "|| B ::[true] out(k)@C . 0")
    assert loc_set(net) == frozenset(
        {"A", "B", "C", "w", "k", "x", "Roles", "Sink", "Admin"})


def test_take_actions_in_document_order():
    net = parse_net("A ::[true] out(a)@B . in(b)@B . 0 + read(c)@B . 0\n"
                    "|| B ::[true] <x>")
    acts = take_actions(net)
    assert [(a.source, a.action.cap, a.action.args[0].name) for a in acts] \
        == [("A", "out", "a"), ("A", "in", "b"), ("A", "read", "c")]
    assert acts[0].continuation == chain(Action("in", (Const("b"),), Const("B")))


def test_subst_key_forms():
    assert subst_key(Var("$u")) == "$u"
    assert subst_key(Var("x")) == "x"
    assert subst_key(BindVar("x")) == "!x"


def test_substitution_application_and_composition():
    th = Substitution((("x", Const("k")),))
    assert th.apply_term(Var("x")) == Const("k")
    assert th.apply_term(Const("x")) == Const("x")
    assert th.apply_term(WILDCARD) == WILDCARD
    # composition applies left pairs first, then right pairs
    chained = Substitution((("x", Var("y")),)).then(
        Substitution((("y", Const("z")),)))
    assert chained.apply_term(Var("x")) == Const("z")


def test_substitution_stops_at_rebinding_action():
    proc = parse_net("A ::[true] in(!x)@B . out(x)@B . 0").entries[0].body
    th = Substitution((("x", Const("k")),))
    got = th.apply_process(proc)
    # the binder shadows the outer x, so the continuation is untouched
    assert got == proc

    # inside the continuation x is a free variable, so it is replaced there
    _, cont = proc.branches[0]
    assert cont.branches[0][0].args == (Var("x"),)
    got = th.apply_process(cont)
    assert got.branches[0][0].args == (Const("k"),)


def test_substitution_respects_quantifier_scope():
    pred = PForall("$x", EEqual(Var("$x"), Const("k")))
    th = Substitution((("$x", Const("v")),))
    assert th.apply_expr(pred) == pred

    free = PForall("$y", EEqual(Var("$x"), Const("k")))
    assert th.apply_expr(free) == PForall("$y", EEqual(Const("v"), Const("k")))


def test_policy_equality_is_structural():
    a = parse_policy("[true if #u :: out(_)@A . X : true] oplus false")
    b = parse_policy("[true if #u :: out(_)@A . X : true] oplus false")
    assert a == b
    assert a != parse_policy("false oplus [true if #u :: out(_)@A . X : true]")
