"""Obligation checking against fully explored state spaces."""
import random

import pytest

from aspectkbl import (EvaluationError, LimitExceeded, build_lts, check_lts,
                       check_network, exhaustive, parse_net, parse_obligation,
                       sat_obl, unify_label)
from aspectkbl.exhaustive import Reduction, TransitionCheck
from aspectkbl.model import (Const, EBin, EEqual, ETest, Label, LabelPattern,
                             Obligation, PExists, PForall, PGeq, PTestPost,
                             Substitution, Sum, Var, Wildcard, WILDCARD)
from aspectkbl.semantics import (Interner, StateDomain, meet, policy_values,
                                 quantified)
import corpusio
import gen
import oracles
from oracles import enabled_steps, sat_pred


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
        for p, g in zip((pat.subject, *pat.args, pat.target),
                        map(Const, (subject, *args, target))):
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
    before = ETest((Const("k"), Const("v")), Const("B"))
    after = PTestPost((Const("k"), Const("v")), Const("B"))
    assert not sat_pred((pre, post), th, before)
    assert sat_pred((pre, post), th, after)
    # the seed tuple is present on both sides
    assert sat_pred((pre, post), th, ETest((Const("seed"),), Const("B")))


def test_unresolved_test_arguments_fail_soft():
    pre, post, _ = pair_for("A ::[true] out(k)@B . 0 || B ::[true] <seed>")
    th = Substitution()
    assert not sat_pred((pre, post), th, ETest((Var("$u"),), Const("B")))
    assert not sat_pred((pre, post), th, ETest((Const("seed"),), Var("$u")))


def test_equality_and_arithmetic_want_ground_terms():
    pre, post, _ = pair_for("A ::[true] out(k)@B . 0 || B ::[true] <seed>")
    th = Substitution()
    assert sat_pred((pre, post), th, EEqual(Const("k"), Const("k")))
    with pytest.raises(EvaluationError):
        sat_pred((pre, post), th, EEqual(Var("$u"), Const("k")))
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


def test_witnesses_replay_on_the_source_network():
    open_net = corpusio.net("tiny_no_policies.akbl")
    for name in ("eq1.obl", "eq2.obl"):
        v = sat_obl(open_net, corpusio.obl(name))
        assert oracles.replay(open_net, v.witness)


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
    assert isinstance(got, ETest)
    assert got.args == (Const("Doctor"), Const("Olsen"))


def test_only_a_quantified_check_builds_location_constants(monkeypatch):
    net = corpusio.net("tiny_no_policies.akbl")
    asked = []
    constants = Interner.constants
    monkeypatch.setattr(Interner, "constants", lambda self, ids: asked.append(
        ids) or constants(self, ids))
    for name in ("eq1.obl", "eq2.obl"):
        v = check_lts(net, corpusio.obl(name))
        assert not v.holds and v.witness is not None
    assert not asked
    # the quantifier ranges over both states' location constants
    obl = parse_obligation(
        "AG [$u : r(_, PrivateNotes, _)@EHDB] exists $l : $l = EHDB")
    assert check_lts(net, obl).holds and asked


def test_limits_propagate():
    open_net = corpusio.net("tiny_no_policies.akbl")
    with pytest.raises(LimitExceeded):
        sat_obl(open_net, corpusio.obl("eq1.obl"), max_states=2)


def test_check_lts_counts_work():
    net = corpusio.net("tiny_no_policies.akbl")
    obl = parse_obligation("AG [$u : i(_)@EHDB] true")
    v = check_lts(net, obl)
    assert v == oracles.check_whole(net, obl)
    assert v.holds
    assert v.transitions_checked == 7
    assert v.states_explored == 6


# ---------------------------------------------------------------------------
# on-the-fly checking and the reduced search

def _outcome(check):
    try:
        return check()
    except EvaluationError as e:
        return e


def _agree(net, obl):
    """Compare sat_obl with a check of the whole transition system:
    the same verdict, or an EvaluationError from both, and for a
    violation a witness that replays in the whole semantics to a step
    whose predicate is not true, as long as the whole system's
    shortest.  Returns the verdict, or None when the whole system is
    too large."""
    try:
        want = _outcome(lambda: oracles.check_whole(
            net, obl, max_states=3000, max_depth=300))
    except LimitExceeded:
        return None
    got = _outcome(lambda: sat_obl(net, obl, max_states=3000, max_depth=300))
    if isinstance(want, EvaluationError) or isinstance(got, EvaluationError):
        assert isinstance(want, EvaluationError) \
            and isinstance(got, EvaluationError), (net, obl, want, got)
        return got
    assert got.holds == want.holds, (net, obl)
    assert got.states_explored <= want.states_explored
    if not got.holds:
        assert oracles.replay(net, got.witness), (net, obl, got.witness)
        assert len(got.witness.path) == len(want.witness.path), \
            (net, obl, got.witness, want.witness)
    return got, want


def _answered_reduced(net, obl, got) -> bool:
    """Did sat_obl answer a violation from the reduced search, without
    the unreduced one."""
    ample = Reduction.of(net, obl, None)
    if ample is None:
        return False
    try:
        reduced = check_lts(net, obl, 3000, 300, ample)
    except LimitExceeded:
        return False
    return reduced.witness is not None and reduced == got


# the two dependencies of the reduction that are easy to miss
TAKES_THE_LAST_ENTRY = (
    "P ::[true] out(P)@R . 0 || Q ::[true] in(b)@R . 0 || R ::[true] <b>",
    "AG [$u : o(P)@R] test(P)@R")
WRITES_WHAT_THE_PREDICATE_READS = (
    "P ::[true] out(c)@R . 0 || A ::[true] out(ok)@S . 0\n"
    "|| S ::[true] <x> || R ::[true] <y>",
    "AG [$u : o(c)@R] test(ok)@S")
QUANTIFIED = (
    "P ::[true] out(go)@S . 0 || Q ::[true] in(gone)@T . 0\n"
    "|| T ::[true] <gone> || S ::[true] <s>",
    "AG [$u : o(go)@S] forall $x : not $x = gone")
# a policy that raises once A reaches its in, after steps the
# reduction would take one at a time
RAISES_LATER = (
    "A ::[true] out(go)@D . in(!x)@B . 0\n"
    "|| B ::[[test(#a)@B if #u :: in(#a)@B . X : true]] <seed>\n"
    "|| C ::[true] out(k)@D . out(m)@D . 0 || D ::[true] <d>",
    "AG [$u : o(k)@D] true")


def test_reduced_search_agrees_with_the_whole_transition_system():
    pairs = [(corpusio.net(n), corpusio.obl(o))
             for n in corpusio.names(".akbl") for o in corpusio.names(".obl")]
    families = (gen.gen_small_net, gen.gen_guarded_net, gen.gen_ward_net)
    for seed in range(700):
        for family in families:
            rng = random.Random(seed)
            net = family(rng)
            obligation = gen.gen_obligation_from_net if seed % 2 \
                else gen.gen_obligation_for
            pairs.append((net, obligation(rng, net)))
    pairs += [(parse_net(n), parse_obligation(o))
              for n, o in (TAKES_THE_LAST_ENTRY, QUANTIFIED,
                           WRITES_WHAT_THE_PREDICATE_READS, RAISES_LATER)]
    compared = reduced = errors = violated = 0
    for net, obl in pairs:
        result = _agree(net, obl)
        if result is None:
            continue
        compared += 1
        if isinstance(result, EvaluationError):
            errors += 1
            continue
        got, want = result
        reduced += got.states_explored < want.states_explored
        violated += not got.holds and _answered_reduced(net, obl, got)
    assert compared >= 2100
    assert errors >= 1
    assert reduced >= 1000
    # violations answered from the reduced search, with no second search
    assert violated >= 300


def test_a_given_certifier_verdict_changes_no_check():
    pairs = [(corpusio.net(n), corpusio.obl(o))
             for n in corpusio.names(".akbl") for o in corpusio.names(".obl")]
    for seed in range(150):
        for family in (gen.gen_small_net, gen.gen_guarded_net,
                       gen.gen_ward_net):
            rng = random.Random(seed)
            net = family(rng)
            obligation = gen.gen_obligation_from_net if seed % 2 \
                else gen.gen_obligation_for
            pairs.append((net, obligation(rng, net)))
    def checked(net, obl, static=None):
        try:
            return sat_obl(net, obl, 3000, 300, static)
        except (EvaluationError, LimitExceeded) as e:
            return type(e), str(e)

    reduced = 0
    for net, obl in pairs:
        static = check_network(net, obl)
        assert checked(net, obl, static) == checked(net, obl), (net, obl)
        reduced += not static.certified \
            and Reduction.of(net, obl, static) is not None
    assert reduced >= 100


def test_sat_obl_leaves_the_given_verdict_as_it_was():
    # the reduction notes the atoms it asks in a domain of its own, so
    # the certification's notes survive the verdict being passed on
    def kept(v):
        return v.certified, v.actions, set(v.domain.asked), v.domain.sure

    reduced = 0
    for n in corpusio.names(".akbl"):
        for o in corpusio.names(".obl"):
            net, obl = corpusio.net(n), corpusio.obl(o)
            static = check_network(net, obl)
            before = kept(static)
            try:
                sat_obl(net, obl, 3000, 300, static)
            except (EvaluationError, LimitExceeded):
                pass
            assert kept(static) == before, (n, o)
            assert kept(static) == kept(check_network(net, obl)), (n, o)
            reduced += Reduction.of(net, obl, static) is not None
    assert reduced >= 1
    static = check_network(corpusio.net("tiny_with_policies.akbl"),
                           corpusio.obl("eq1.obl"))
    assert len(static.domain.asked) == 2
    sat_obl(corpusio.net("tiny_with_policies.akbl"), corpusio.obl("eq1.obl"),
            static=static)
    assert len(static.domain.asked) == 2


def test_footprints_cover_every_concrete_read():
    # every test atom the policies of a step read in a reachable state
    # is named by the footprint of the acting entry, which the reduction
    # reads in the certifier's domain
    nets = atoms = 0
    misses = []
    for family in (gen.gen_small_net, gen.gen_guarded_net, gen.gen_ward_net):
        for seed in range(300):
            rng = random.Random(seed)
            net = family(rng)
            obligation = gen.gen_obligation_from_net if seed % 2 \
                else gen.gen_obligation_for
            ample = Reduction.of(net, obligation(rng, net), None)
            if ample is None:
                continue
            try:
                lts = build_lts(net, max_states=400)
            except (EvaluationError, LimitExceeded):
                continue
            nets += 1
            space, reads = lts.space, {}
            for ids in lts.ids:
                data = space.data_index(ids)
                for i in ids:
                    e = space.entries[i]
                    if not isinstance(e.body, Sum):
                        continue
                    if i not in reads:
                        reads[i] = ample.footprint(e, e.body.branches).reads
                    for action, cont in e.body.branches:
                        target = ample.pols.get(action.target.name)
                        if target is None:
                            continue    # no entry there, so no step
                        here = StateDomain(data)
                        for pol in (e.policy, target):
                            try:
                                policy_values(pol, e.location, action, cont,
                                              here)
                            except EvaluationError:
                                pass
                        for atom in here.present | here.absent:
                            atoms += 1
                            if not any(meet(atom, r) for r in reads[i]):
                                misses.append((family.__name__, seed, atom))
    assert not misses, (len(misses), misses[:5])
    assert nets >= 800 and atoms >= 10000, (nets, atoms)


def test_a_false_condition_leaves_its_recommendation_unread():
    # S's trap recommends two tests at R for P's out, but only when its
    # condition holds; a false constant equality leaves them unread
    text = ("P ::[true] out(P)@S . out(P)@R . 0 || Q ::[true] in(!y)@R . 0\n"
            "|| R ::[true] <b>\n"
            "|| S ::[[not test(P)@R and not test(b)@R"
            " if #u :: out(#a)@S . X : #a = {}]] <a>")
    obl = parse_obligation("AG [$u : i(_)@R] true")
    for cond, reads in (("a", set()), ("P", {("R", ("P",)), ("R", ("b",))})):
        net = parse_net(text.format(cond))
        p, = [e for e in net.entries if e.location == "P"]
        ample = Reduction.of(net, obl, None)
        assert ample.footprint(p, p.body.branches).reads == reads


@pytest.mark.parametrize("case", [TAKES_THE_LAST_ENTRY,
                                  WRITES_WHAT_THE_PREDICATE_READS])
def test_reduction_keeps_the_violation_a_dependency_hides(case):
    # ordering the other entry's step first would make the obligation
    # hold: an in that takes R's last entry disables the out aimed at
    # R, and A's out makes the predicate true
    net, obl = parse_net(case[0]), parse_obligation(case[1])
    v = sat_obl(net, obl)
    assert not v.holds
    assert v.witness == oracles.check_whole(net, obl).witness


def test_the_cut_keeps_an_out_that_keeps_a_location():
    # Q's in takes R's only tuple unless P's out has added another, and
    # with R gone Q's out to R cannot fire; P's out writes nothing that
    # a later step reads, yet the witness needs it
    net = parse_net("P ::[true] out(b)@R . 0\n"
                    "|| Q ::[true] in(Q)@R . out(a)@R . 0 || R ::[true] <Q>")
    obl = parse_obligation("AG [$u : o(a)@R] false")
    v = sat_obl(net, obl)
    assert [l.text() for l in v.witness.path] == ["P:o(b)@R", "Q:i(Q)@R"]
    assert v.witness.label.text() == "Q:o(a)@R"
    assert _answered_reduced(net, obl, v)


def test_reduction_skips_quantifiers_and_mixed_policies():
    outs = ("A ::[true] out(a)@S . 0 || B ::[true] out(b)@S . 0\n"
            "|| C ::[true] out(c)@S . 0 || S ::[true] <s>")
    whole = len(build_lts(parse_net(outs)).states)
    assert whole == 8
    plain = parse_obligation("AG [$u : o(_)@S] true")
    assert sat_obl(parse_net(outs), plain).states_explored == 4
    # quantifiers range over the location constants of the states:
    # Q's in removes the constant gone, and moving it before P's out
    # would make the predicate true there
    net, obl = parse_net(QUANTIFIED[0]), parse_obligation(QUANTIFIED[1])
    v = sat_obl(net, obl)
    assert not v.holds and v.witness.path == ()
    assert v.witness == oracles.check_whole(net, obl).witness
    holds = parse_obligation("AG [$u : o(_)@S] exists $x : $x = S")
    v = sat_obl(parse_net(outs), holds)
    assert v.holds and v.states_explored == whole
    # S's first entry, whose policy guards S, changes with the states
    mixed = parse_net(outs + "\n|| S ::[[true if #u :: in(_)@S . X : true]] <t>")
    assert len({e.policy for e in mixed.entries if e.location == "S"}) == 2
    v = sat_obl(mixed, plain)
    assert v.holds and v.states_explored == len(build_lts(mixed).states)


def test_violation_is_found_within_a_state_budget_the_whole_system_exceeds():
    net = parse_net("A ::[true] out(bad)@S . 0\n|| "
                    + "\n|| ".join(f"B{i} ::[true] out(k)@S . 0"
                                   for i in range(5))
                    + "\n|| S ::[true] <s>")
    obl = parse_obligation("AG [$u : o(bad)@S] false")
    with pytest.raises(LimitExceeded):
        build_lts(net, max_states=10)
    v = sat_obl(net, obl, max_states=10)
    assert not v.holds
    assert v.witness.path == () and v.witness.label.text() == "A:o(bad)@S"
    assert v.states_explored <= 10


def test_on_the_fly_check_stops_at_the_first_violation():
    # A violates at once; the policy of B raises only after C's step,
    # a state that the whole transition system holds and the check of
    # it meets, but the on-the-fly check never reaches
    net = parse_net(
        "A ::[true] out(bad)@S . 0 || S ::[true] <s>\n"
        "|| C ::[true] out(flag)@B . in(!x)@B . 0\n"
        "|| B ::[[test(#a)@B if #u :: in(#a)@B . X : test(flag)@B]] <seed>")
    obl = parse_obligation("AG [$u : o(bad)@S] false")
    with pytest.raises(EvaluationError):
        build_lts(net)
    v = sat_obl(net, obl)
    assert not v.holds and v.witness.label.text() == "A:o(bad)@S"
    assert (v.states_explored, v.transitions_checked) == (2, 1)


def test_a_violation_in_a_large_ward_is_answered_from_the_reduced_search():
    # 8 doctors and 9 nurses each read the private notes and file a
    # copy, while an administrator promotes two nurses and then demotes
    # a doctor, who may have read the notes already.  The unreduced
    # search meets the violation only after 4918 states, so a budget of
    # 500 is met only if it never runs.
    doctors = [f"D{i}" for i in range(8)]
    nurses = [f"N{i}" for i in range(9)]
    changes = ("in(Nurse, N0)@ROLES . out(Doctor, N0)@ROLES . "
               "in(Nurse, N1)@ROLES . out(Doctor, N1)@ROLES . "
               "in(Doctor, D0)@ROLES . out(Nurse, D0)@ROLES")
    net = parse_net("\n|| ".join(
        ["EHDB ::[[test(Doctor, #u)@ROLES if "
         "#u :: read(_, PrivateNotes, _)@EHDB . X : true]] "
         "<Bob, PrivateNotes, n1>",
         "Archive ::[true] <Index, i1>",
         f"Admin ::[true] {changes} . 0"]
        + [f"ROLES ::[true] <Doctor, {d}>" for d in doctors]
        + [f"ROLES ::[true] <Nurse, {n}>" for n in nurses]
        + [f"{s} ::[true] read(Bob, PrivateNotes, !c)@EHDB . "
           "out(Bob, Copy, c)@Archive . read(Index, !i)@Archive . 0"
           for s in doctors + nurses]))
    obl = parse_obligation(
        "AG [$u : o(Bob, Copy, _)@Archive] test(Doctor, $u)@ROLES")
    with pytest.raises(LimitExceeded):
        check_lts(net, obl, max_states=500)
    v = sat_obl(net, obl, max_states=500)
    assert not v.holds
    assert len(v.witness.path) == 6
    assert v.witness.label.text() == "D0:o(Bob,Copy,n1)@Archive"
    assert oracles.replay(net, v.witness)


# ---------------------------------------------------------------------------
# quantified checks

def _quantify(rng, net, obl):
    # obl with its predicate joined to a quantified test of a tuple of
    # the network, one position of it left to the quantifier
    at, body = rng.choice([(e.location, e.body) for e in net.entries
                           if e.is_data()])
    i = rng.randrange(len(body))
    args = tuple(Var("$q") if j == i else Const(v) for j, v in enumerate(body))
    q = rng.choice((PExists, PForall))("$q", ETest(args, Const(at)))
    return Obligation(obl.cut, EBin(rng.choice(("and", "or")), obl.pred, q))


def test_quantified_checks_evaluate_as_each_step_alone():
    # a quantified check keeps its value by the step's label, data and
    # range; on every matched step of the whole system the kept value is
    # the plain evaluation of the step's predicate on its two states,
    # and verdicts and witnesses are those of the whole system's check
    pairs = []
    for seed in range(300):
        rng = random.Random(seed)
        net = gen.gen_small_net(rng)
        obl = gen.gen_obligation_for(rng, net)
        while not quantified(obl.pred):
            obl = gen.gen_obligation_for(rng, net)
        pairs.append((net, obl))
        if seed % 3 == 0:
            net = gen.gen_ward_net(rng)
            pairs.append((net, _quantify(
                rng, net, gen.gen_obligation_from_net(rng, net))))
    compared = steps = violated = 0
    for net, obl in pairs:
        result = _agree(net, obl)
        if result is None or isinstance(result, EvaluationError):
            continue
        compared += 1
        violated += not result[0].holds
        lts = build_lts(net, max_states=3000, max_depth=300)
        check, states = TransitionCheck(obl), lts.states
        for t in lts.transitions:
            th = unify_label(obl.cut, t.label)
            if th is None:
                continue
            steps += 1
            got = _outcome(lambda: check.violates(
                lts.space, t.label, lts.ids[t.src], lts.ids[t.dst]))
            want = _outcome(lambda: not sat_pred(
                (states[t.src], states[t.dst]), th, obl.pred))
            assert type(got) is type(want), (net, obl, t)
            if not isinstance(got, EvaluationError):
                assert got == want, (net, obl, t)
    assert compared >= 350
    assert steps >= 1000
    assert violated >= 20


def _quantified_ward(doctors: int, nurses: int) -> tuple:
    # the benchmark's ward with two nurses promoted and no demotion,
    # under its copy obligation with a vacuous quantified conjunct
    docs = [f"D{i}" for i in range(doctors)]
    nurs = [f"N{i}" for i in range(nurses)]
    net = parse_net("\n|| ".join(
        ["EHDB ::[[test(Doctor, #u)@ROLES if "
         "#u :: read(_, PrivateNotes, _)@EHDB . X : true]] "
         "<Bob, PrivateNotes, n1>",
         "Archive ::[true] <Index, i1>",
         "Admin ::[true] in(Nurse, N0)@ROLES . out(Doctor, N0)@ROLES . "
         "in(Nurse, N1)@ROLES . out(Doctor, N1)@ROLES . 0"]
        + [f"ROLES ::[true] <Doctor, {d}>" for d in docs]
        + [f"ROLES ::[true] <Nurse, {n}>" for n in nurs]
        + [f"{s} ::[true] read(Bob, PrivateNotes, !c)@EHDB . "
           "out(Bob, Copy, c)@Archive . read(Index, !i)@Archive . 0"
           for s in docs + nurs]))
    return net, parse_obligation(
        "AG [$u : o(Bob, Copy, _)@Archive] test(Doctor, $u)@ROLES"
        " and (exists $x : test(Index, $x)@Archive)")


def test_a_quantified_ward_evaluates_each_distinct_step_once(monkeypatch):
    evaluated = []
    pred_values = exhaustive.pred_values
    monkeypatch.setattr(exhaustive, "pred_values",
                        lambda *args: evaluated.append(args)
                        or pred_values(*args))
    net, obl = _quantified_ward(3, 4)
    v = sat_obl(net, obl)
    assert v.holds and v.states_explored == 1664
    assert len(evaluated) <= 100
