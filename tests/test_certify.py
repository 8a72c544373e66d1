"""Static per-action certification."""
import random
from collections import Counter

import pytest

from aspectkbl import (BOT, FF, TT, ReplicationPresent, build_lts, certify,
                       canonicalize, check_network, check_single_action,
                       corpus_path, might_grant, parse_net,
                       parse_obligation, parse_policy, report_json, semantics,
                       take_actions)
from aspectkbl.belnap import GRANTS, members
from aspectkbl.certify import (DENIED, ENTAILED, IRRELEVANT, NOT_CERTIFIED,
                               MutationInfo)
from aspectkbl.model import (BindVar, Const, ETrue, LocatedAction, Net,
                             NetEntry, NIL, Par, Repl, Sum, loc_set)
from aspectkbl.parser import render_action
from aspectkbl.semantics import policies_by_location, pred_values
from aspectkbl.unification import findsubs
import corpusio
import gen
import oracles

def located(net, source, cap):
    acts = [a for a in take_actions(net)
            if a.source == source and a.action.cap == cap]
    assert len(acts) == 1
    return acts[0]


def test_mutation_info_tracks_tuple_shapes():
    net = parse_net("A ::[true] out(k, v)@B . 0 + in(m)@B . 0\n"
                    "|| B ::[true] <seed> || B ::[true] read(seed)@B . 0")
    mut = MutationInfo(net)
    assert mut.may_add("B", ("k", "v"))
    assert not mut.may_add("B", ("k", "w"))      # constant mismatch
    assert not mut.may_add("B", ("k",))          # arity mismatch
    assert not mut.may_add("C", ("k", "v"))      # target mismatch
    assert mut.may_remove("B", ("m",))
    assert not mut.may_remove("B", ("seed",))    # read does not consume


def test_mutation_info_treats_variables_as_may_touch():
    net = parse_net("A ::[true] in(!x)@A . out(x)@B . in(x, x)@x . 0\n"
                    "|| A ::[true] <k> || B ::[true] <seed>")
    mut = MutationInfo(net)
    assert mut.may_add("B", ("anything",))
    # both the arguments and the target are open
    assert mut.may_remove("Elsewhere", ("p", "q"))


def one_action_net(policy_src):
    return parse_net(
        f"A ::[{policy_src}] out(Bob, note)@B . 0\n"
        "|| B ::[true] <seed> || R ::[true] <Doctor, A>")


def test_might_grant_constants_and_missed_cuts():
    net = one_action_net("true")
    act, mut = located(net, "A", "out"), MutationInfo(net)
    g = might_grant(parse_policy("true"), act, mut)
    assert (g.constraints, g.values) == ((), TT)
    assert g.values & GRANTS
    g = might_grant(parse_policy("false"), act, mut)
    assert g.values == FF and not g.values & GRANTS
    # a trap for reads says nothing about an out, and silence grants
    g = might_grant(parse_policy("[true if #u :: read(_)@B . X : true]"),
                    act, mut)
    assert g.values == BOT and g.values & GRANTS


def test_might_grant_conditions_gate_the_trap():
    net = one_action_net("true")
    act, mut = located(net, "A", "out"), MutationInfo(net)
    down = parse_policy("[false if #u :: out(_, _)@B . X : k = v]")
    assert might_grant(down, act, mut).values == BOT
    up = parse_policy("[false if #u :: out(_, _)@B . X : Bob = Bob]")
    assert might_grant(up, act, mut).values == FF


def test_might_grant_collects_unconditional_ground_tests():
    net = one_action_net("true")
    act = located(net, "A", "out")
    pol = parse_policy("[test(Doctor, #u)@R if #u :: out(_, _)@B . X : true]")
    g = might_grant(pol, act, MutationInfo(net))
    assert g.constraints == (("R", ("Doctor", "A")),)
    # the tuple is present and nothing can remove it
    assert g.values == TT


def test_might_grant_withholds_constraints_from_partial_traps():
    # the trap grounds the action's own payload variable, so it only
    # covers some firings; a bottom escape appears and no constraint
    net = parse_net("A ::[true] in(!x)@A . out(x)@B . 0 || A ::[true] <k>\n"
                    "|| B ::[true] <seed> || R ::[true] <Doctor, A>")
    out_act = [a for a in take_actions(net) if a.action.cap == "out"][0]
    pol = parse_policy("[test(Doctor, #u)@R if #u :: out(k)@B . X : true]")
    g = might_grant(pol, out_act, MutationInfo(net))
    assert g.constraints == ()
    assert BOT in members(g.values) and TT in members(g.values)


def test_might_grant_conditions_must_hold_to_constrain():
    net = parse_net("A ::[true] out(Bob)@B . 0 + in(flag)@B . 0\n"
                    "|| B ::[true] <seed> || B ::[true] <flag>\n"
                    "|| R ::[true] <Doctor, A>")
    act = located(net, "A", "out")
    # the condition is true now but an in can flip it, so the trap is
    # not guaranteed and only widens the value set
    pol = parse_policy(
        "[test(Doctor, #u)@R if #u :: out(_)@B . X : test(flag)@B]")
    g = might_grant(pol, act, MutationInfo(net))
    assert g.constraints == ()
    assert g.values == TT | BOT


def test_might_grant_negation_discards_constraints():
    net = one_action_net("true")
    act, mut = located(net, "A", "out"), MutationInfo(net)
    pol = parse_policy("not [test(Doctor, #u)@R if #u :: out(_, _)@B . X : true]")
    g = might_grant(pol, act, mut)
    assert g.constraints == ()
    assert g.values == FF         # a sure tt flips under negation

    # otimes is not a pure knowledge join, so constraints are dropped too
    pair = parse_policy(
        "[test(Doctor, #u)@R if #u :: out(_, _)@B . X : true] otimes true")
    assert might_grant(pair, act, mut).constraints == ()
    both = parse_policy(
        "[test(Doctor, #u)@R if #u :: out(_, _)@B . X : true] oplus "
        "[test(seed)@B if #u :: out(_, _)@B . X : true]")
    g = might_grant(both, act, mut)
    assert g.constraints == (("R", ("Doctor", "A")), ("B", ("seed",)))


def test_might_grant_occurs_in_refutation():
    net = parse_net("A ::[true] out(k)@B . in(stop)@A . 0\n"
                    "|| B ::[true] <seed>")
    act, mut = located(net, "A", "out"), MutationInfo(net)
    hit = parse_policy(
        "[in(stop)@A occurs-in X if #u :: out(_)@B . X : true]")
    assert might_grant(hit, act, mut).values == TT | FF
    miss = parse_policy(
        "[in(go)@A occurs-in X if #u :: out(_)@B . X : true]")
    assert might_grant(miss, act, mut).values == FF


def test_static_pred_respects_future_removals():
    net = parse_net("R ::[true] <Doctor, H> || Z ::[true] in(!a, !b)@R . 0")
    mut = MutationInfo(net)
    dom = sorted(loc_set(net))
    pred = parse_obligation("AG [$u : r(_)@R] test(Doctor, H)@R").pred
    assert pred_values(pred, mut, dom) == TT | FF

    frozen = parse_net("R ::[true] <Doctor, H>")
    assert pred_values(pred, MutationInfo(frozen),
                       sorted(loc_set(frozen))) == TT


def test_comparisons_are_decided_on_numerals_only():
    net = parse_net("A ::[true] out(K, 5)@A . out(K, x)@A . 0")
    for bound, five in (("3", ENTAILED), ("7", NOT_CERTIFIED)):
        obl = parse_obligation(f"AG [A : o(K, $v)@A] $v >= {bound}")
        outcomes = [r.outcome for r in check_network(net, obl).actions]
        # x is no numeral, so its comparison may take either value
        assert outcomes == [five, NOT_CERTIFIED], bound


def test_single_action_outcomes_on_the_record_store():
    net = corpusio.net("tiny_with_policies.akbl")
    eq1 = corpusio.obl("eq1.obl")
    outcomes = {(r.source, r.action.cap): r.outcome
                for r in check_network(net, eq1).actions}
    assert outcomes == {
        ("Hansen", "read"): ENTAILED,
        ("Hansen", "out"): IRRELEVANT,
        ("Olsen", "read"): DENIED,
    }
    assert check_network(net, eq1).certified


def test_entailment_by_constraint_when_truth_may_change():
    # the role tuple is removable, so initial truth is not enough; the
    # record store's own trap still guarantees it at every firing
    net = parse_net(
        "R ::[true] <Doctor, H>\n"
        "|| E ::[[test(Doctor, #u)@R if #u :: read(_)@E . X : true]] <secret>\n"
        "|| H ::[true] read(secret)@E . 0\n"
        "|| Z ::[true] in(!a, !b)@R . 0")
    obl = parse_obligation("AG [$u : r(_)@E] test(Doctor, $u)@R")
    act, mut = located(net, "H", "read"), MutationInfo(net)
    domain = sorted(loc_set(net))
    report = check_single_action(obl, act, policies_by_location(net), mut,
                                 domain)
    assert report.outcome == ENTAILED
    assert report.constraints == (("R", ("Doctor", "H")),)
    # the unrefined domain alone would not certify this
    pred0 = report.theta0.apply(obl.pred)
    assert pred_values(pred0, mut, domain) == TT | FF
    # one conjunct follows from the store's trap, the other from the
    # tuple no action can take: only the refined domain reads both
    net = parse_net(
        "ROLES ::[true] <Doctor, Ann>\n"
        "|| Admin ::[true] in(Doctor, Ann)@ROLES . 0\n"
        "|| Ann ::[true] read(Notes, !c)@Store . 0\n"
        "|| Store ::[[test(Doctor, #u)@ROLES if #u :: read(Notes, _)@Store"
        " . X : true]] <Notes, n1>")
    obl = parse_obligation("AG [$u : r(Notes, _)@Store] test(Doctor, $u)@ROLES"
                           " and test'(Notes, n1)@Store")
    verdict = check_network(net, obl)
    assert [r.outcome for r in verdict.actions
            if r.source == "Ann"] == [ENTAILED]
    assert verdict.certified
    assert oracles.check_whole(net, obl).holds


def test_sure_atoms_refine_test_but_not_test_post():
    # the store's trap makes the in fire only while <Doctor, H> is
    # there, but the in itself takes that tuple
    net = parse_net("R ::[[test(Doctor, H)@R if #u :: in(Doctor, H)@R . X"
                    " : true]] <Doctor, H>\n"
                    "|| Z ::[true] in(Doctor, H)@R . 0")
    before = parse_obligation("AG [$u : i(Doctor, H)@R] test(Doctor, H)@R")
    assert check_network(net, before).certified
    assert oracles.check_whole(net, before).holds
    after = parse_obligation("AG [$u : i(Doctor, H)@R] test'(Doctor, H)@R")
    report, = [r for r in check_network(net, after).actions
               if r.source == "Z"]
    assert report.outcome == NOT_CERTIFIED
    assert report.constraints == (("R", ("Doctor", "H")),)
    assert not oracles.check_whole(net, after).holds


def test_uncertified_action_on_the_open_store():
    net = corpusio.net("tiny_no_policies.akbl")
    eq1 = corpusio.obl("eq1.obl")
    verdict = check_network(net, eq1)
    assert not verdict.certified
    # Hansen's read still goes through, the role tuple is initially
    # present and nothing consumes it; only Olsen's read is undecided
    bad = [r.source for r in verdict.actions if r.outcome == NOT_CERTIFIED]
    assert bad == ["Olsen"]


def test_actions_aimed_nowhere_are_irrelevant():
    net = parse_net("A ::[true] out(k)@Ghost . 0 || B ::[true] <seed>")
    obl = parse_obligation("AG [$u : o(_)@Ghost] false")
    report, = check_network(net, obl).actions
    assert report.outcome == IRRELEVANT
    # and a check of the whole transition system agrees vacuously
    assert oracles.check_whole(net, obl).holds


def test_replication_is_rejected_statically():
    net = corpusio.net("tiny_with_policies.akbl")
    body = next(e.body for e in net.entries
                if e.location == "Hansen" and not e.is_data())
    repl = Net(net.entries + (NetEntry("Hansen", ETrue(), Repl(body)),))
    with pytest.raises(ReplicationPresent):
        check_network(repl, corpusio.obl("eq1.obl"))


def test_quantifiers_range_over_the_location_constants():
    # seed is a location constant of the network, Ghost is not, so only
    # the first two obligations' predicates come out false on a step
    net = parse_net("A ::[true] out(k)@B . 0 || B ::[true] <seed>")
    for pred, holds in (("forall $x : not $x = seed", False),
                        ("not (exists $x : $x = seed)", False),
                        ("forall $x : not $x = Ghost", True),
                        ("not (exists $x : $x = Ghost)", True)):
        obl = parse_obligation(f"AG [$u : o(k)@B] {pred}")
        report, = check_network(net, obl).actions
        assert report.outcome == (ENTAILED if holds else NOT_CERTIFIED), pred
        assert oracles.check_whole(net, obl).holds is holds


def test_a_net_is_certified_as_its_canonical_form():
    # entries out of order, a parallel body and a nil that the nil rule
    # drops, since another entry at B with B's policy stays
    a, seed, c_in, c_read = parse_net(
        "A ::[true] out(k)@B . 0 || B ::[true] <seed>\n"
        "|| C ::[true] in(seed)@B . out(k)@B . 0 || C ::[true] read(seed)@B . 0"
    ).entries
    net = Net((NetEntry("C", ETrue(), Par(c_read.body, c_in.body)),
               NetEntry("B", ETrue(), NIL), seed, a))
    canonical = canonicalize(net)
    assert canonical.entries == (a, seed, c_in, c_read)
    obl = parse_obligation("AG [$u : o(k)@B] test(seed)@B")
    verdict, want = check_network(net, obl), check_network(canonical, obl)
    assert verdict.actions == want.actions
    assert [(r.source, r.action.cap) for r in verdict.actions] \
        == [(la.source, la.action.cap) for la in take_actions(canonical)]
    assert report_json(verdict) == report_json(want)


def _same_verdict(got, want):
    # every field of the verdicts, the domain's included
    assert got.certified == want.certified
    assert got.actions == want.actions
    for field in MutationInfo.__slots__:
        assert getattr(got.domain, field) == getattr(want.domain, field), \
            field
    for explain in (False, True):
        doc = report_json(got, explain)
        assert doc == report_json(want, explain)
        assert [a["action_text"] for a in doc["actions"]] \
            == [render_action(r.action) for r in got.actions]


def test_shared_bodies_certify_as_separate_ones():
    # the parser makes entries whose bodies read the same share one
    # body node; the certifier's answer must not depend on it
    pairs = [(corpusio.net(n), corpusio.obl(o))
             for n in corpusio.names(".akbl") for o in corpusio.names(".obl")]
    for seed in range(300):
        rng = random.Random(seed)
        net = gen.gen_ward_net(rng)
        pairs.append((net, gen.gen_obligation_from_net(rng, net)))
    for seed in range(100):
        rng = random.Random(seed)
        net = gen.gen_guarded_net(rng)
        pairs.append((net, gen.gen_obligation_for(rng, net)))
    sharing = 0
    for net, obl in pairs:
        separate = gen.separate_bodies(net)
        assert separate == net
        bodies = [id(e.body) for e in separate.entries if not e.is_data()]
        assert len(set(bodies)) == len(bodies)
        sharing += len({id(e.body) for e in net.entries
                        if not e.is_data()}) < len(bodies)
        got = check_network(net, obl)
        _same_verdict(got, check_network(separate, obl))
        assert [(r.source, r.action) for r in got.actions] \
            == [(a.source, a.action) for a in oracles.reference_actions(net)]
    assert sharing > 100


def test_certifier_never_explores_states(monkeypatch):
    # every exploration, build_lts and step_candidates alike, starts an
    # Interner
    def explored():
        raise AssertionError("the certifier explored a state")

    monkeypatch.setattr(semantics, "Interner", explored)
    with pytest.raises(AssertionError):
        build_lts(corpusio.net("example1_policies.akbl"))
    for name in ("example1_policies.akbl", "example2_trivial.akbl"):
        for eq in ("eq5.obl", "eq6.obl", "eq7.obl", "eq8.obl"):
            check_network(corpusio.net(name), corpusio.obl(eq))


def test_report_json_shape():
    verdict = check_network(corpusio.net("tiny_with_policies.akbl"),
                            corpusio.obl("eq1.obl"))
    doc = report_json(verdict, explain=True)
    assert doc["certified"] is True
    outcomes = [a["outcome"] for a in doc["actions"]]
    assert outcomes == [ENTAILED, IRRELEVANT, DENIED]
    first = doc["actions"][0]
    assert first["source_loc"] == "Hansen"
    assert first["action_text"].startswith("read(")
    assert first["constraints"] == ["test(Doctor, Hansen)@ROLES"]
    assert first["source_values"] == ["bot"]
    assert first["target_values"] == ["tt"]
    denied = doc["actions"][2]
    assert denied["target_values"] == ["ff"]
    # irrelevant actions carry no value sets
    assert "source_values" not in doc["actions"][1]


def test_certified_networks_satisfy_their_obligations():
    rng = random.Random(314)
    certified = violations = 0
    for _ in range(150):
        net = gen.gen_small_net(rng)
        obl = gen.gen_obligation_for(rng, net)
        static = check_network(net, obl)
        verdict = oracles.check_whole(net, obl, max_states=3000,
                                      max_depth=300)
        if static.certified:
            certified += 1
            assert verdict.holds, (net, obl)
        if not verdict.holds:
            violations += 1
    assert certified > 50
    assert violations > 0
    # guarded networks give the certifier value sets of more than one
    # value, which small random networks almost never do
    certified = 0
    for seed in range(600):
        rng = random.Random(seed)
        net = gen.gen_guarded_net(rng)
        obl = gen.gen_obligation_for(rng, net)
        if check_network(net, obl).certified:
            certified += 1
            assert oracles.check_whole(net, obl).holds, (net, obl)
    assert certified > 400
    # obligations drawn from the networks' own actions and data, whose
    # patterns match steps the networks take: most certifications rest
    # on more than CertifiedIrrelevant
    relevant = 0
    for family in (gen.gen_small_net, gen.gen_guarded_net, gen.gen_ward_net):
        certified = 0
        for seed in range(300):
            rng = random.Random(seed)
            net = family(rng)
            obl = gen.gen_obligation_from_net(rng, net)
            static = check_network(net, obl)
            if static.certified:
                certified += 1
                relevant += any(r.outcome != IRRELEVANT
                                for r in static.actions)
                assert oracles.check_whole(net, obl, max_states=3000,
                                           max_depth=300).holds, (net, obl)
        assert certified > 100
    assert relevant > 200


def _branches(state, pols):
    # the located actions of the top-level entries of a state, aimed at
    # a location that holds entries
    for e in state.entries:
        if isinstance(e.body, Sum):
            for action, cont in e.body.branches:
                if action.target.name in pols:
                    yield LocatedAction(e.location, e.policy, action, cont)


def test_policy_values_are_sound_per_side():
    # every concrete verdict of either policy side on a step out of the
    # initial state lies in the certifier's value set for that side
    nets = [corpusio.net(p.name) for p in sorted(corpus_path("").iterdir())
            if p.name.endswith(".akbl")]
    nets += [gen.gen_small_net(random.Random(seed)) for seed in range(300)]
    checked, unsound = 0, []
    for net in map(canonicalize, nets):
        pols, mut = policies_by_location(net), MutationInfo(net)
        for act in _branches(net, pols):
            for pol in (act.policy, pols[act.action.target.name]):
                checked += 1
                if oracles.eval_policy(pol, act, net) \
                        not in members(might_grant(pol, act, mut).values):
                    unsound.append((net, act, pol))
    assert checked > 1000
    assert unsound == []


def _terms(la) -> tuple:
    return (Const(la.source), *la.action.args, la.action.target)


def _instance_of(act, template) -> bool:
    # binders are not instantiated, they stay binders
    th = findsubs(_terms(template), _terms(act))
    return th is not None and th.apply_located(template) == act \
        and all(v == BindVar(k[1:]) for k, v in th.pairs if k[0] == "!")


def test_policy_values_are_sound_in_every_reachable_state():
    # a step out of any reachable state instantiates syntactic actions
    # of the network, and the concrete verdict of either policy side
    # lies in the certifier's value set for each of them
    checked, unsound = Counter(), []
    nets = [(gen.gen_guarded_net, seed) for seed in range(300)]
    nets += [(gen.gen_ward_net, seed) for seed in range(100)]
    for family, seed in nets:
        net = canonicalize(family(random.Random(seed)))
        pols, mut = policies_by_location(net), MutationInfo(net)
        actions = take_actions(net)
        for state in build_lts(net).states:
            for act in _branches(state, pols):
                origins = [a for a in actions if a.action.cap == act.action.cap
                           and _instance_of(act, a)]
                assert origins, act
                for pol in (act.policy, pols[act.action.target.name]):
                    value = oracles.eval_policy(pol, act, state)
                    for origin in origins:
                        checked[family] += 1
                        if value not in members(
                                might_grant(pol, origin, mut).values):
                            unsound.append((net, state, act, pol))
    assert checked[gen.gen_guarded_net] > 10000
    assert checked[gen.gen_ward_net] > 20000
    assert unsound == []


# ---------------------------------------------------------------------------
# one judgement per class of interchangeable locations

def _counting(monkeypatch) -> list:
    """The sources of the located actions check_network judges itself,
    in the order it judges them."""
    judged = []

    def counted(obl, act, *rest):
        judged.append(act.source)
        return check_single_action(obl, act, *rest)

    monkeypatch.setattr(certify, "check_single_action", counted)
    return judged


def test_interchangeable_locations_certify_as_each_judged_alone(monkeypatch):
    # principals of one role swap onto each other; check_network judges
    # one of each class and renames its reports for the rest, which
    # must give every report and every slot of the domain that judging
    # each located action on its own gives
    judged = _counting(monkeypatch)
    renamed = relevant = 0
    for seed in range(1500):
        rng = random.Random(seed)
        net = gen.gen_role_net(rng)
        obls = [gen.gen_role_obligation(rng, net) for _ in range(3)]
        obls += [gen.gen_obligation_from_net(rng, net),
                 gen.gen_obligation_for(rng, net)]
        for obl in obls:
            judged.clear()
            got, want = check_network(net, obl), oracles.judge_each(net, obl)
            assert got.certified == want.certified, (seed, obl)
            assert got.actions == want.actions, (seed, obl)
            for field in MutationInfo.__slots__:
                assert getattr(got.domain, field) \
                    == getattr(want.domain, field), (seed, obl, field)
            renamed += len(got.actions) - len(judged)
            relevant += sum(r.outcome != IRRELEVANT for r in got.actions
                            if r.source not in judged)
    assert renamed > 10000
    assert relevant > 2000


def _ward(staff: int) -> tuple:
    # the shape of the benchmark's certify job: half the staff nurses,
    # every one reading the guarded store and filing a copy
    people = [f"S{n:03d}x" for n in range(staff)]
    entries = ["EHDB ::[[test(Doctor, #u)@ROLES if #u :: "
               "read(_, PrivateNotes, _)@EHDB . X : true]] "
               "<Bob, PrivateNotes, Text>", "Archive ::[true] <Index, Ix>"]
    for n, s in enumerate(people):
        entries += [f"ROLES ::[true] <{'Nurse' if n % 2 else 'Doctor'}, {s}>",
                    f"{s} ::[true] read(Bob, PrivateNotes, !c)@EHDB . "
                    "out(Bob, Copy, c)@Archive . 0"]
    random.Random(staff).shuffle(entries)
    return (parse_net("\n|| ".join(entries)),
            parse_obligation("AG [$u : r(_, PrivateNotes, _)@EHDB] "
                             "test(Doctor, $u)@ROLES"))


def test_a_role_ward_is_judged_once_per_role(monkeypatch):
    judged = _counting(monkeypatch)
    net, obl = _ward(400)
    verdict = check_network(net, obl)
    assert verdict.certified and len(verdict.actions) == 800
    assert len(judged) <= 10
    assert Counter(r.outcome for r in verdict.actions) \
        == {ENTAILED: 200, DENIED: 200, IRRELEVANT: 400}
    want = oracles.judge_each(net, obl)
    assert verdict.actions == want.actions
    assert verdict.domain.asked == want.domain.asked


_ROLE_WARD = (
    "Store ::[[test(Doctor, #u)@ROLES if #u :: read(Notes, _)@Store . X"
    " : true]] <Notes, n1>\n"
    "|| ROLES ::[true] <Doctor, A> || ROLES ::[true] <Doctor, B>\n"
    "|| ROLES ::[true] <Nurse, C> || ROLES ::[true] <Nurse, D>\n"
    "|| A ::[true] read(Notes, !c)@Store . 0"
    " || B ::[true] read(Notes, !c)@Store . 0\n"
    "|| C ::[true] read(Notes, !c)@Store . 0"
    " || D ::[true] read(Notes, !c)@Store . 0\n")
_ROLE_OBL = "AG [$u : r(Notes, _)@Store] test(Doctor, $u)@ROLES"


@pytest.mark.parametrize("extra, obl, least", [
    ("", _ROLE_OBL, {"B": "A", "D": "C"}),
    # a name in a body, a policy or the obligation is no candidate
    ("|| Admin ::[true] out(Nurse, B)@ROLES . 0", _ROLE_OBL, {"D": "C"}),
    ("|| Log ::[[not #u = B if #u :: out(_)@Log . X : true]] <seen>",
     _ROLE_OBL, {"D": "C"}),
    ("", "AG [$u : r(Notes, _)@Store] test(Doctor, $u)@ROLES or $u = D",
     {"B": "A"}),
    # a tuple naming two keeps them apart
    ("|| ROLES ::[true] <Mentor, A, B>", _ROLE_OBL, {"D": "C"}),
    # so do different entries, policies or counts of entries
    ("|| Archive ::[true] <Log, C>", _ROLE_OBL, {"B": "A"}),
    ("|| D ::[true] read(Notes, !c)@Store . 0", _ROLE_OBL, {"B": "A"}),
    ("|| B ::[true] out(Seen)@Store . 0", _ROLE_OBL, {"D": "C"}),
    # a location whose entries differ in policy leaves every one alone
    ("|| C ::[false] 0", _ROLE_OBL, {}),
])
def test_symmetry_breakers_keep_locations_apart(extra, obl, least):
    net = parse_net(_ROLE_WARD + extra)
    obl = parse_obligation(obl)
    assert certify.interchangeable(net, obl, policies_by_location(net)) \
        == least
    got, want = check_network(net, obl), oracles.judge_each(net, obl)
    assert got.actions == want.actions
    assert got.domain.asked == want.domain.asked


def test_numerals_and_quantified_predicates_are_judged_alone(monkeypatch):
    # >= reads a numeral's value, and a quantifier stops early in the
    # order of the names, so neither lets a report be renamed
    judged = _counting(monkeypatch)
    net = parse_net(_ROLE_WARD)
    numeral = {"A": "1", "B": "5", "C": "7", "D": "8"}
    numbered = canonicalize(Net(tuple(
        NetEntry(numeral.get(e.location, e.location), e.policy,
                 tuple(numeral.get(v, v) for v in e.body)
                 if e.is_data() else e.body) for e in net.entries)))
    geq = parse_obligation("AG [$u : r(Notes, _)@Store] $u >= 3")
    assert certify.interchangeable(numbered, geq,
                                   policies_by_location(numbered)) == {}
    verdict = check_network(numbered, geq)
    assert [r.outcome for r in verdict.actions] \
        == [NOT_CERTIFIED, ENTAILED, DENIED, DENIED]
    assert len(judged) == 4
    judged.clear()
    exists = parse_obligation("AG [$u : r(Notes, _)@Store] "
                              "exists $x : test(Doctor, $x)@ROLES")
    verdict = check_network(net, exists)
    assert len(judged) == 4
    assert verdict.actions == oracles.judge_each(net, exists).actions
    assert verdict.domain.asked == oracles.judge_each(net, exists).domain.asked
