"""Obligation checking against fully explored state spaces."""
import random

import pytest

from aspectkbl import (EvaluationError, LimitExceeded, build_lts, check_lts,
                       enabled_steps, extract, findsubs, parse_net,
                       parse_obligation, sat_pred, sat_obl, unify_label)
from aspectkbl.model import (Const, Label, LabelPattern, PEqual, PGeq, PTest,
                             PTestPost, Substitution, Var, Wildcard, WILDCARD)
import corpusio
import gen


def lbl(subject, cap, args, target):
    return Label(subject, cap, tuple(args), target)


def test_unify_label_binds_pattern_variables():
    pat = LabelPattern(Var("$u"), "r", (WILDCARD, Const("PrivateNotes"),
                                        WILDCARD), Const("EHDB"))
    th = unify_label(pat, lbl("Hansen", "r",
                              ("Bob", "PrivateNotes", "bobtext"), "EHDB"))
    assert th.apply_term(Var("$u")) == Const("Hansen")

    assert unify_label(pat, lbl("Hansen", "o",
                                ("Bob", "PrivateNotes", "x"), "EHDB")) is None
    assert unify_label(pat, lbl("Hansen", "r",
                                ("Bob", "CarePlan", "x"), "EHDB")) is None
    assert unify_label(pat, lbl("Hansen", "r", ("Bob",), "EHDB")) is None
    assert unify_label(pat, lbl("Hansen", "r",
                                ("Bob", "PrivateNotes", "x"), "Olsen")) is None


def test_repeated_pattern_variables_must_agree():
    pat = LabelPattern(Var("$u"), "o", (Var("$u"),), Const("B"))
    assert unify_label(pat, lbl("A", "o", ("A",), "B")) is not None
    assert unify_label(pat, lbl("A", "o", ("C",), "B")) is None


def test_findsubs_grounds_the_pattern_up_to_wildcards():
    rng = random.Random(17)
    tried = 0
    for _ in range(300):
        obl = gen.gen_obligation(rng)
        pat = obl.cut
        subject = rng.choice(("A", "B", "C"))
        args = tuple(rng.choice(("k", "v", "w")) for _ in pat.args)
        target = pat.target.name if isinstance(pat.target, Const) else "A"
        ground = lbl(subject, pat.cap, args, target)
        th = unify_label(pat, ground)
        if th is None:
            continue
        tried += 1
        psub, pargs, ptgt = extract(pat)
        gsub, gargs, gtgt = extract(ground)
        for p, g in zip((psub,) + pargs + (ptgt,), (gsub,) + gargs + (gtgt,)):
            if isinstance(p, Wildcard):
                continue
            assert th.apply_term(p) == g
    assert tried > 50


def pair_for(src_text, steps=1):
    net = parse_net(src_text)
    for _ in range(steps):
        (label, net2), = enabled_steps(net)
        pre, net = net, net2
    return pre, net, label


def test_test_and_test_post_straddle_the_step():
    pre, post, _ = pair_for("A ::[true] out(k, v)@B . 0 || B ::[true] <seed>")
    th = Substitution()
    before = PTest((Const("k"), Const("v")), Const("B"))
    after = PTestPost((Const("k"), Const("v")), Const("B"))
    assert not sat_pred((pre, post), th, before)
    assert sat_pred((pre, post), th, after)
    # the seed tuple is present on both sides
    assert sat_pred((pre, post), th, PTest((Const("seed"),), Const("B")))


def test_unresolved_test_arguments_fail_soft():
    pre, post, _ = pair_for("A ::[true] out(k)@B . 0 || B ::[true] <seed>")
    th = Substitution()
    assert not sat_pred((pre, post), th, PTest((Var("$u"),), Const("B")))
    assert not sat_pred((pre, post), th, PTest((Const("seed"),), Var("$u")))


def test_equality_and_arithmetic_want_ground_terms():
    pre, post, _ = pair_for("A ::[true] out(k)@B . 0 || B ::[true] <seed>")
    th = Substitution()
    assert sat_pred((pre, post), th, PEqual(Const("k"), Const("k")))
    with pytest.raises(EvaluationError):
        sat_pred((pre, post), th, PEqual(Var("$u"), Const("k")))
    assert sat_pred((pre, post), th, PGeq(Const("12"), Const("3")))
    assert not sat_pred((pre, post), th, PGeq(Const("3"), Const("12")))
    with pytest.raises(EvaluationError):
        sat_pred((pre, post), th, PGeq(Const("k"), Const("3")))


def test_quantifiers_range_over_both_states_location_constants():
    pre, post, _ = pair_for("A ::[true] out(fresh)@B . 0 || B ::[true] <seed>")
    th = Substitution()
    obl = parse_obligation("AG [$u : o(_)@B] exists $v : $v = fresh")
    # fresh is only a constant of the post state, the domain still has it
    assert sat_pred((pre, post), th, obl.pred)
    missing = parse_obligation("AG [$u : o(_)@B] exists $v : $v = ghost")
    assert not sat_pred((pre, post), th, missing.pred)


def test_obligations_on_the_record_store():
    eq1 = corpusio.obl("eq1.obl")
    eq2 = corpusio.obl("eq2.obl")

    guarded = corpusio.net("tiny_with_policies.akbl")
    for obl in (eq1, eq2):
        v = sat_obl(guarded, obl)
        assert v.holds and v.witness is None
        assert v.states_explored == 2 and v.transitions_checked == 1

    open_net = corpusio.net("tiny_no_policies.akbl")
    v1 = sat_obl(open_net, eq1)
    assert not v1.holds
    assert v1.witness.path == ()
    assert v1.witness.label.text() == "Olsen:r(Bob,PrivateNotes,bobtext)@EHDB"

    v2 = sat_obl(open_net, eq2)
    assert not v2.holds
    assert [l.text() for l in v2.witness.path] == \
        ["Hansen:r(Bob,PrivateNotes,bobtext)@EHDB"]
    assert v2.witness.label.text() == "Hansen:o(Bob,PrivateNotes,bobtext)@Olsen"


def replay(net, witness):
    """Walk the witness path by label text and confirm the failing step
    is enabled at its end."""
    for want in witness.path:
        steps = enabled_steps(net)
        net = next(s for l, s in steps if l.text() == want.text())
    return any(l.text() == witness.label.text()
               for l, _ in enabled_steps(net))


def test_witnesses_replay_on_the_source_network():
    open_net = corpusio.net("tiny_no_policies.akbl")
    for name in ("eq1.obl", "eq2.obl"):
        v = sat_obl(open_net, corpusio.obl(name))
        assert replay(open_net, v.witness)


def test_witness_path_is_shortest():
    # two routes to the failing out: directly, or after a detour read
    net = parse_net(
        "A ::[true] read(seed)@B . out(k)@B . 0 + out(k)@B . 0\n"
        "|| B ::[true] <seed>")
    v = sat_obl(net, parse_obligation("AG [$u : o(_)@B] false"))
    assert not v.holds
    assert v.witness.path == ()


def test_instantiated_predicate_is_reported():
    open_net = corpusio.net("tiny_no_policies.akbl")
    v = sat_obl(open_net, corpusio.obl("eq1.obl"))
    assert v.witness.theta.apply_term(Var("$u")) == Const("Olsen")
    got = v.witness.pred
    assert isinstance(got, PTest)
    assert got.args == (Const("Doctor"), Const("Olsen"))


def test_limits_propagate():
    open_net = corpusio.net("tiny_no_policies.akbl")
    with pytest.raises(LimitExceeded):
        sat_obl(open_net, corpusio.obl("eq1.obl"), max_states=2)


def test_check_lts_counts_work():
    lts = build_lts(corpusio.net("tiny_no_policies.akbl"))
    v = check_lts(lts, parse_obligation("AG [$u : i(_)@EHDB] true"))
    assert v.holds
    assert v.transitions_checked == 7
    assert v.states_explored == 6
