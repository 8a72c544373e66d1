"""Operational layer: matching, policy evaluation, steps, state spaces."""
import random

import pytest

from aspectkbl import (BOT, FF, TOP, TT, EvaluationError, LimitExceeded,
                       ReplicationPresent, build_lts, data_index, dot_export,
                       json_export,
                       match, occurs_in, parse_net, parse_obligation,
                       parse_policy, sat_obl, step_candidates, take_actions)
from aspectkbl.semantics import ground_atom, net_text, numeral
from aspectkbl.model import (Action, BindVar, Const, ETrue, Net, NetEntry, NIL,
                             Par, Repl, Sum, Var, WILDCARD, canonicalize)
import corpusio
import gen
import oracles
from oracles import enabled_steps, eval_policy


def test_match_positionwise():
    tpl = (Const("k"), BindVar("x"), WILDCARD)
    th = match(tpl, ("k", "v", "w"))
    assert th.apply_term(Var("x")) == Const("v")
    assert match(tpl, ("m", "v", "w")) is None
    assert match(tpl, ("k", "v")) is None
    # a plain variable is not a template former
    assert match((Var("x"),), ("k",)) is None


def test_numerals_are_ascii_digit_constants():
    assert numeral(Const("12")) == 12
    # digits beyond ASCII are not numerals, although str.isdigit says so
    assert numeral(Const("\u00b2")) is None
    assert numeral(Const("\u0663")) is None
    assert numeral(Var("12")) is None


def test_occurs_in_scans_every_branch():
    proc = parse_net(
        "A ::[true] out(a)@B . 0 + in(!x)@B . read(c)@B . 0").entries[0].body
    assert occurs_in(Action("out", (WILDCARD,), Const("B")), proc)
    assert occurs_in(Action("read", (Const("c"),), Const("B")), proc)
    assert not occurs_in(Action("read", (Const("c"),), Const("C")), proc)
    assert not occurs_in(Action("out", (Const("a"), WILDCARD), Const("B")), proc)


def test_interp_test_wants_exact_data_entries():
    net = parse_net("R ::[true] <Doctor, Hansen> || R ::[true] out(k)@R . 0")
    data = data_index(net)
    doctor, hansen, r = Const("Doctor"), Const("Hansen"), Const("R")
    assert ground_atom((doctor, hansen), r) in data
    assert ground_atom((doctor,), r) not in data
    assert ground_atom((doctor, hansen), Const("S")) not in data
    assert ground_atom((Const("k"),), r) not in data
    # a test on an unbound term names no atom
    assert ground_atom((doctor, Var("$u")), r) is None
    assert ground_atom((doctor, hansen), Var("$u")) is None


def locate(net, source, cap):
    acts = [a for a in take_actions(net)
            if a.source == source and a.action.cap == cap]
    assert len(acts) == 1
    return acts[0]


def test_policies_judge_the_unsubstituted_template():
    net = corpusio.net("tiny_with_policies.akbl")
    ehdb_pol = next(e.policy for e in net.entries if e.location == "EHDB")
    hansen_pol = next(e.policy for e in net.entries if e.location == "Hansen")

    hansen_read = locate(net, "Hansen", "read")
    olsen_read = locate(net, "Olsen", "read")
    hansen_out = locate(net, "Hansen", "out")

    # the record store recommends by role lookup on the reader
    assert eval_policy(ehdb_pol, hansen_read, net) == TT
    assert eval_policy(ehdb_pol, olsen_read, net) == FF
    # an out never matches the read trap
    assert eval_policy(ehdb_pol, hansen_out, net) == BOT
    # the out trap fires even though the payload is still a variable
    assert eval_policy(hansen_pol, hansen_out, net) == FF


def test_step_yields_and_denials_on_the_guarded_record_store():
    net = corpusio.net("tiny_with_policies.akbl")
    steps, denied = step_candidates(net)
    assert [lbl.text() for lbl, _ in steps] == \
        ["Hansen:r(Bob,PrivateNotes,bobtext)@EHDB"]
    assert [(lbl.text(), f) for lbl, f in denied] == \
        [("Olsen:r(Bob,PrivateNotes,bobtext)@EHDB", TOP)]

    _, after = steps[0]
    steps2, denied2 = step_candidates(after)
    assert steps2 == []
    assert sorted((lbl.text(), f) for lbl, f in denied2) == [
        ("Hansen:o(Bob,PrivateNotes,bobtext)@Olsen", TOP),
        ("Olsen:r(Bob,PrivateNotes,bobtext)@EHDB", TOP),
    ]


def test_out_requires_an_entry_at_the_target():
    net = parse_net("A ::[true] out(k)@Nowhere . 0")
    steps, denied = step_candidates(net)
    assert steps == [] and denied == []


def test_out_data_adopts_the_target_policy():
    net = parse_net(
        "A ::[true] out(k)@B . 0\n"
        "|| B ::[[#u = A if #u :: in(_)@B . X : true]] <seed>")
    b_pol = next(e.policy for e in net.entries if e.location == "B")
    (label, succ), = enabled_steps(net)
    assert label.text() == "A:o(k)@B"
    new = [e for e in succ.entries if e.location == "B" and e.body == ("k",)]
    assert len(new) == 1 and new[0].policy == b_pol


def test_read_keeps_and_in_consumes():
    src = "A ::[true] <k> || B ::[true] {cap}(!x)@A . out(x)@B . 0"
    read_net = parse_net(src.format(cap="read"))
    (_, after_read), = enabled_steps(read_net)
    assert any(e.is_data() and e.body == ("k",) for e in after_read.entries)

    in_net = parse_net(src.format(cap="in"))
    (label, after_in), = enabled_steps(in_net)
    assert label.text() == "B:i(k)@A"
    assert not any(e.is_data() for e in after_in.entries)
    # the binder reached the continuation
    (label2, _), = enabled_steps(after_in)
    assert label2.text() == "B:o(k)@B"


def test_identical_tuples_give_one_step():
    net = parse_net("A ::[true] <k> || A ::[true] <k>\n"
                    "|| B ::[true] in(!x)@A . 0")
    steps, _ = step_candidates(net)
    assert len(steps) == 1
    # one copy is consumed, the other stays
    _, succ = steps[0]
    assert [e.body for e in succ.entries if e.is_data()] == [("k",)]


def test_identical_branches_give_one_step():
    net = parse_net("A ::[true] out(k)@B . 0 + out(k)@B . 0 || B ::[true] <v>")
    steps, _ = step_candidates(net)
    assert len(steps) == 1


def test_steps_of_a_network_are_those_of_its_canonical_form():
    # one entry whose body is a parallel composition steps as two
    out = lambda k: Sum(((Action("out", (Const(k),), Const("A")), NIL),))
    net = Net((NetEntry("A", ETrue(), Par(out("k"), out("v"))),))
    steps = enabled_steps(net)
    assert [label.text() for label, _ in steps] == ["A:o(k)@A", "A:o(v)@A"]
    assert steps == enabled_steps(canonicalize(net))
    assert len(build_lts(net).states) == 4


def test_unbound_target_is_an_evaluation_error():
    body = Sum(((Action("out", (Const("k"),), Var("x")), NIL),))
    net = Net((NetEntry("A", ETrue(), body),))
    with pytest.raises(EvaluationError):
        step_candidates(net)


def test_state_space_of_the_unguarded_record_store():
    lts = build_lts(corpusio.net("tiny_no_policies.akbl"))
    assert len(lts.states) == 6
    assert len(lts.transitions) == 7
    assert lts.initial == 0
    assert set(oracles.maximal_paths(lts)) == {
        ("Hansen:r(Bob,PrivateNotes,bobtext)@EHDB",
         "Hansen:o(Bob,PrivateNotes,bobtext)@Olsen",
         "Olsen:r(Bob,PrivateNotes,bobtext)@EHDB"),
        ("Hansen:r(Bob,PrivateNotes,bobtext)@EHDB",
         "Olsen:r(Bob,PrivateNotes,bobtext)@EHDB",
         "Hansen:o(Bob,PrivateNotes,bobtext)@Olsen"),
        ("Olsen:r(Bob,PrivateNotes,bobtext)@EHDB",
         "Hansen:r(Bob,PrivateNotes,bobtext)@EHDB",
         "Hansen:o(Bob,PrivateNotes,bobtext)@Olsen"),
    }


def test_state_space_of_the_guarded_record_store():
    lts = build_lts(corpusio.net("tiny_with_policies.akbl"))
    assert (len(lts.states), len(lts.transitions)) == (2, 1)


def test_exploration_limits():
    net = corpusio.net("tiny_no_policies.akbl")
    with pytest.raises(LimitExceeded) as exc:
        build_lts(net, max_states=3)
    assert "states" in str(exc.value)
    with pytest.raises(LimitExceeded) as exc:
        build_lts(net, max_depth=1)
    assert "depth" in str(exc.value)


def test_replication_is_rejected():
    net = Net((NetEntry("A", ETrue(),
                        Repl(Sum(((Action("out", (Const("k"),), Const("A")),
                                   NIL),)))),))
    obl = parse_obligation("AG [$u : o(k)@A] true")
    for check in (build_lts, lambda net: sat_obl(net, obl)):
        with pytest.raises(ReplicationPresent):
            check(net)


def test_exploration_counter():
    assert len(build_lts(corpusio.net("tiny_with_policies.akbl")).states) == 2
    assert len(build_lts(corpusio.net("tiny_no_policies.akbl")).states) == 6


def test_export_shapes():
    lts = build_lts(corpusio.net("tiny_no_policies.akbl"))
    doc = json_export(lts)
    assert {s["id"] for s in doc["states"]} == set(range(6))
    assert all("\n" not in s["net"] for s in doc["states"])
    assert len(doc["transitions"]) == 7
    assert doc["transitions"][0].keys() == {"from", "to", "label"}

    dot = dot_export(lts)
    assert dot.startswith("digraph lts {")
    assert dot.count("doublecircle") == 1
    assert dot.count("->") == 7

    one_line = net_text(lts.states[0])
    assert "\n" not in one_line and "||" in one_line


def test_policies_judging_binders_raise_evaluation_errors():
    # the trap binds #a to the input's binder, which names no value yet
    net = parse_net("A ::[true] in(!x)@B . 0 || B ::[true] <seed>")
    act, = take_actions(net)
    for rec in ("test(#a)@B", "test(k)@#a", "#a = k", "k = #a",
                "false and test(#a)@B"):
        pol = parse_policy(f"[{rec} if #u :: in(#a)@B . X : true]")
        with pytest.raises(EvaluationError):
            eval_policy(pol, act, net)
    pol = parse_policy("[true if #u :: in(#a)@B . X : #a = k]")
    with pytest.raises(EvaluationError):
        eval_policy(pol, act, net)
    # a condition that fails leaves the recommendation unevaluated
    pol = parse_policy("[test(#a)@B if #u :: in(#a)@B . X : false]")
    assert eval_policy(pol, act, net) == BOT


def test_policy_memo_matches_fresh_evaluation():
    # the run's verdict table, warmed by the exploration, gives the
    # steps and denials of a fresh Interner, whose table is empty
    states = repeated = read_apart = 0
    for seed in range(300):
        lts = build_lts(gen.gen_guarded_net(random.Random(seed)))
        space = lts.space
        for sid, ids in enumerate(lts.ids):
            steps, denied = step_candidates(ids, space)
            fresh = step_candidates(lts.states[sid])
            assert ([(label, space.net(succ)) for label, succ in steps],
                    denied) == fresh, (seed, sid)
            # the interner's nil rule, run over the groups a step
            # touches, agrees with the canonical form of the model
            assert all(canonicalize(succ) == succ for _, succ in fresh[0])
        states += len(lts.ids)
        for cached in space.verdicts.values():
            repeated += len(cached) > 1
            read_apart += len({present | absent
                               for present, absent, _ in cached}) > 1
    # the table was put to the test: keys whose verdict depends on the
    # state, some of them through different atoms
    assert states >= 3000
    assert repeated >= 1
    assert read_apart >= 1


def test_cached_verdicts_do_not_hide_evaluation_errors():
    # A's in is judged while flag is absent from B, and the trap's
    # condition is false; once C has put flag there, the recommendation
    # is evaluated and tests the binder #a is bound to
    net = parse_net(
        "B ::[[test(#a)@B if #u :: in(#a)@B . X : test(flag)@B]] <seed>\n"
        "|| A ::[true] in(!x)@B . 0 || C ::[true] out(flag)@B . 0")
    steps, _ = step_candidates(net)
    assert len(steps) == 2
    with pytest.raises(EvaluationError):
        build_lts(net)
