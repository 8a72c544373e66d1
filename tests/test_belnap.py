"""The operator tables against their order-theoretic definitions.

oracles.py rebuilds both orders from the Hasse diagrams and computes
bounds by brute force, so these tests do not compare the shipped
tables against themselves.
"""
import itertools

from aspectkbl import (BOT, FF, TT, TOP, VALUES, grant, implies, join_k,
                       join_t, leq_k, meet_k, meet_t, neg, priority)
from aspectkbl.belnap import (BINARY_OPS, GRANTS, LIFTED, NEG_SETS, members,
                              only, vset)
import oracles

PAIRS = list(itertools.product(VALUES, repeat=2))


def test_values_are_distinct_and_named():
    assert len(set(VALUES)) == 4
    assert [v.text for v in (BOT, TT, FF, TOP)] == ["bot", "tt", "ff", "top"]


def test_orders_match_the_closure_of_the_hasse_diagrams():
    for a, b in PAIRS:
        assert leq_k(a, b) == oracles.leq_k(a, b), (a, b)


def test_knowledge_bounds_over_all_pairs():
    for a, b in PAIRS:
        assert join_k(a, b) is oracles.join_k(a, b), (a, b)
        assert meet_k(a, b) is oracles.meet_k(a, b), (a, b)


def test_truth_bounds_over_all_pairs():
    for a, b in PAIRS:
        assert join_t(a, b) is oracles.join_t(a, b), (a, b)
        assert meet_t(a, b) is oracles.meet_t(a, b), (a, b)


def test_negation_implication_priority_over_all_pairs():
    for a in VALUES:
        assert neg(a) is oracles.neg(a)
        assert neg(neg(a)) is a
    for a, b in PAIRS:
        assert implies(a, b) is oracles.implies(a, b), (a, b)
        assert priority(a, b) is oracles.priority(a, b), (a, b)


def test_grant_table():
    assert grant(BOT) and grant(TT)
    assert not grant(FF) and not grant(TOP)
    for a in VALUES:
        assert grant(a) == oracles.grant(a)


def test_lattice_laws():
    for op, le in ((join_k, leq_k), (meet_k, leq_k), (join_t, oracles.leq_t),
                   (meet_t, oracles.leq_t)):
        for a, b in PAIRS:
            assert op(a, b) is op(b, a)
        for a, b, c in itertools.product(VALUES, repeat=3):
            assert op(op(a, b), c) is op(a, op(b, c))
    for a, b in PAIRS:
        # absorption ties each join to its meet
        assert join_k(a, meet_k(a, b)) is a
        assert meet_k(a, join_k(a, b)) is a
        assert join_t(a, meet_t(a, b)) is a
        assert meet_t(a, join_t(a, b)) is a


def test_negation_respects_the_orders():
    # de Morgan in the truth order, monotone in the knowledge order
    for a, b in PAIRS:
        assert neg(join_t(a, b)) is meet_t(neg(a), neg(b))
        assert neg(meet_t(a, b)) is join_t(neg(a), neg(b))
        if leq_k(a, b):
            assert leq_k(neg(a), neg(b))


def test_spelled_operator_names():
    assert set(BINARY_OPS) == {"oplus", "otimes", "and", "or", "implies",
                               "pref"}
    assert BINARY_OPS["oplus"](TT, FF) is TOP
    assert BINARY_OPS["pref"](BOT, FF) is FF


def test_value_sets_lift_every_operator_pointwise():
    sets = [frozenset(c) for n in range(1, 5)
            for c in itertools.combinations(VALUES, n)]
    assert len({vset(*s) for s in sets}) == 15
    for s in sets:
        assert members(vset(*s)) == s
        assert members(NEG_SETS[vset(*s)]) == {neg(a) for a in s}
        assert bool(GRANTS & vset(*s)) == any(grant(a) for a in s)
    for v in VALUES:
        assert only(vset(v)) is v
    for name, op in BINARY_OPS.items():
        for s, t in itertools.product(sets, repeat=2):
            got = members(LIFTED[name][vset(*s)][vset(*t)])
            assert got == {op(a, b) for a in s for b in t}, (name, s, t)
