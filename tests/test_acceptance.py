"""End-to-end acceptance runs.

Each test covers one numbered acceptance criterion and prints one
PASS/FAIL line with its runtime; run with -s to see the lines.
"""
import contextlib
import random
import time

import pytest

from aspectkbl import (BOT, FF, TOP, TT, VALUES, build_lts, canonicalize,
                       check_network, data_index, grant,
                       implies, interp_test, join_k, join_t, meet_k, meet_t,
                       neg, parse_net, parse_obligation, parse_policy,
                       priority, render_expr, render_net, render_obligation,
                       sat_obl, semantics)
import corpusio
import gen
import oracles

PAIRS = [(a, b) for a in VALUES for b in VALUES]


@contextlib.contextmanager
def criterion(n, limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    assert dt < limit, f"criterion {n} took {dt:.2f}s, limit {limit}s"
    print(f"[criterion {n}] PASS ({dt:.2f}s < {limit}s)")


def test_criterion_1_four_valued_operators():
    with criterion(1, 1.0):
        for a, b in PAIRS:
            assert join_k(a, b) is oracles.join_k(a, b)
            assert meet_k(a, b) is oracles.meet_k(a, b)
            assert join_t(a, b) is oracles.join_t(a, b)
            assert meet_t(a, b) is oracles.meet_t(a, b)
            assert implies(a, b) is oracles.implies(a, b)
            assert priority(a, b) is oracles.priority(a, b)
        for a in VALUES:
            assert neg(a) is oracles.neg(a)
        assert [grant(v) for v in (BOT, TT, FF, TOP)] == \
            [True, True, False, False]


def test_criterion_2_record_store_state_spaces():
    with criterion(2, 1.0):
        lts = build_lts(corpusio.net("tiny_no_policies.akbl"))
        paths = oracles.maximal_paths(lts)
        r_h = "Hansen:r(Bob,PrivateNotes,bobtext)@EHDB"
        o_h = "Hansen:o(Bob,PrivateNotes,bobtext)@Olsen"
        r_o = "Olsen:r(Bob,PrivateNotes,bobtext)@EHDB"
        assert sorted(paths) == sorted([(r_h, o_h, r_o), (r_h, r_o, o_h),
                                        (r_o, r_h, o_h)])
        # every interleaving drains into the same final state
        outgoing = {t.src for t in lts.transitions}
        stuck = [i for i in range(len(lts.states)) if i not in outgoing]
        assert len(stuck) == 1

        guarded = build_lts(corpusio.net("tiny_with_policies.akbl"))
        assert (len(guarded.states), len(guarded.transitions)) == (2, 1)
        assert oracles.enabled_steps(guarded.states[1]) == []


def test_criterion_3_role_obligations_on_the_record_store():
    guarded = corpusio.net("tiny_with_policies.akbl")
    open_net = corpusio.net("tiny_no_policies.akbl")
    for n, eq in ((3, "eq1.obl"), (3, "eq2.obl")):
        with criterion(f"{n}:{eq[:-4]}", 1.0):
            obl = corpusio.obl(eq)
            assert sat_obl(guarded, obl).holds
            v = sat_obl(open_net, obl)
            assert not v.holds
            assert oracles.replay(open_net, v.witness)


def both_checkers(net_name, obl_name):
    net = corpusio.net(net_name)
    obl = corpusio.obl(obl_name)
    certified = check_network(net, obl).certified
    holds = sat_obl(net, obl).holds
    return certified, holds


def test_criterion_4_role_example_matrix():
    with criterion(4, 5.0):
        eqs = ("eq5.obl", "eq6.obl", "eq7.obl", "eq8.obl")
        for n in (1, 2, 3):
            for eq in eqs:
                assert both_checkers(f"example{n}_policies.akbl", eq) == \
                    (True, True)
        failing = {1: set(), 2: {"eq6.obl"}, 3: {"eq5.obl"}}
        for n in (1, 2, 3):
            for eq in eqs:
                want = eq not in failing[n]
                # the static route gives up on exactly the violated cases
                assert both_checkers(f"example{n}_trivial.akbl", eq) == \
                    (want, want)


def test_criterion_5_cookie_exchange():
    with criterion(5, 5.0):
        for name in ("cookie_server_policy.akbl",
                     "cookie_badserver_policy.akbl"):
            assert both_checkers(name, "eq9.obl") == (True, True)
        bare = corpusio.net("cookie_badserver.akbl")
        v = sat_obl(bare, corpusio.obl("eq9.obl"))
        assert not v.holds
        assert v.witness.label.text() == "BadServer:o(Server,thirdpartydata)@Client"
        assert oracles.replay(bare, v.witness)


def test_criterion_6_static_certification_is_sound():
    with criterion(6, 60.0):
        rng = random.Random(2026)
        unsound = []
        for _ in range(500):
            net = gen.gen_small_net(rng)
            obl = gen.gen_obligation_for(rng, net)
            static = check_network(net, obl)
            if not static.certified:
                continue
            verdict = oracles.check_whole(net, obl, max_states=3000,
                                          max_depth=300)
            if not verdict.holds:
                unsound.append((render_net(net), render_obligation(obl)))
        assert unsound == []


def test_criterion_7_congruent_rewrites_preserve_verdicts():
    with criterion(7, 30.0):
        rng = random.Random(7)
        for _ in range(200):
            net = gen.gen_small_net(rng)
            twin = gen.congruent_variant(rng, net)
            assert canonicalize(net) == canonicalize(twin)
            obl = gen.gen_obligation_for(rng, net)
            a = sat_obl(net, obl, max_states=3000, max_depth=300)
            b = sat_obl(twin, obl, max_states=3000, max_depth=300)
            assert a.holds == b.holds
            locs = sorted({e.location for e in net.entries})
            tuples = [e.body for e in net.entries if e.is_data()]
            for _ in range(5):
                at = rng.choice(locs)
                args = rng.choice(tuples) if tuples and rng.random() < 0.7 \
                    else (rng.choice(("k", "v", "w")),)
                assert interp_test(args, at, data_index(net)) \
                    == interp_test(args, at, data_index(twin))


def test_criterion_8_round_trips():
    with criterion(8, 30.0):
        rng = random.Random(99)
        for _ in range(500):
            net = gen.gen_net(rng)
            assert parse_net(render_net(net)) == canonicalize(net)
        for _ in range(250):
            pol = gen.gen_policy(rng, depth=3)
            assert parse_policy(render_expr(pol)) == pol
        for _ in range(250):
            obl = gen.gen_obligation(rng)
            assert parse_obligation(render_obligation(obl)) == obl


def test_static_route_builds_no_state_space(monkeypatch):
    # speed is not benchmarked, only that the fast route never touches
    # the exploration machinery; every exploration starts an Interner
    def explored():
        raise AssertionError("the static route explored a state")

    monkeypatch.setattr(semantics, "Interner", explored)
    with pytest.raises(AssertionError):
        build_lts(corpusio.net("example1_policies.akbl"))
    for n in (1, 2, 3):
        for kind in ("policies", "trivial"):
            for eq in ("eq5.obl", "eq6.obl", "eq7.obl", "eq8.obl"):
                check_network(corpusio.net(f"example{n}_{kind}.akbl"),
                              corpusio.obl(eq))
    print("[static smoke] PASS (0 states explored)")
