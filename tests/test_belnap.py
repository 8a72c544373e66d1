"""The lifted operator tables against their order-theoretic definitions.

oracles.py rebuilds both orders from the Hasse diagrams and computes
bounds by brute force, so these tests do not compare the shipped
tables against themselves.  A single value is its own singleton set,
so the tables' singleton entries are the operators on single values.
"""
import itertools

from aspectkbl import BOT, FF, TT, TOP, VALUES
from aspectkbl.belnap import GRANTS, LIFTED, NEG_SETS, members, names
import oracles

PAIRS = list(itertools.product(VALUES, repeat=2))
JOIN_K, MEET_K = LIFTED["oplus"], LIFTED["otimes"]
JOIN_T, MEET_T = LIFTED["or"], LIFTED["and"]


def test_values_are_distinct_and_named():
    assert sorted(VALUES) == [1, 2, 4, 8]
    assert [names(v) for v in (BOT, TT, FF, TOP)] == \
        [["bot"], ["tt"], ["ff"], ["top"]]
    assert names(BOT | TT | FF | TOP) == ["bot", "ff", "top", "tt"]


def test_orders_match_the_closure_of_the_hasse_diagrams():
    # a is below b exactly when their join is b
    for a, b in PAIRS:
        assert (JOIN_K[a][b] == b) == oracles.leq_k(a, b), (a, b)
        assert (JOIN_T[a][b] == b) == oracles.leq_t(a, b), (a, b)


def test_knowledge_bounds_over_all_pairs():
    for a, b in PAIRS:
        assert JOIN_K[a][b] == oracles.join_k(a, b), (a, b)
        assert MEET_K[a][b] == oracles.meet_k(a, b), (a, b)


def test_truth_bounds_over_all_pairs():
    for a, b in PAIRS:
        assert JOIN_T[a][b] == oracles.join_t(a, b), (a, b)
        assert MEET_T[a][b] == oracles.meet_t(a, b), (a, b)


def test_negation_implication_priority_over_all_pairs():
    for a in VALUES:
        assert NEG_SETS[a] == oracles.neg(a)
        assert NEG_SETS[NEG_SETS[a]] == a
    for a, b in PAIRS:
        assert LIFTED["implies"][a][b] == oracles.implies(a, b), (a, b)
        assert LIFTED["pref"][a][b] == oracles.priority(a, b), (a, b)


def test_grant_table():
    assert GRANTS == BOT | TT
    for a in VALUES:
        assert bool(GRANTS & a) == oracles.grant(a)


def test_lattice_laws():
    for op in (JOIN_K, MEET_K, JOIN_T, MEET_T):
        for a, b in PAIRS:
            assert op[a][b] == op[b][a]
        for a, b, c in itertools.product(VALUES, repeat=3):
            assert op[op[a][b]][c] == op[a][op[b][c]]
    for a, b in PAIRS:
        # absorption ties each join to its meet
        assert JOIN_K[a][MEET_K[a][b]] == a
        assert MEET_K[a][JOIN_K[a][b]] == a
        assert JOIN_T[a][MEET_T[a][b]] == a
        assert MEET_T[a][JOIN_T[a][b]] == a


def test_negation_respects_the_orders():
    # de Morgan in the truth order, monotone in the knowledge order
    neg = NEG_SETS
    for a, b in PAIRS:
        assert neg[JOIN_T[a][b]] == MEET_T[neg[a]][neg[b]]
        assert neg[MEET_T[a][b]] == JOIN_T[neg[a]][neg[b]]
        if oracles.leq_k(a, b):
            assert oracles.leq_k(neg[a], neg[b])


def test_spelled_operator_names():
    assert set(LIFTED) == {"oplus", "otimes", "and", "or", "implies", "pref"}
    assert LIFTED["oplus"][TT][FF] == TOP
    assert LIFTED["pref"][BOT][FF] == FF


def test_value_sets_lift_every_operator_pointwise():
    sets = range(1, 16)
    for s in sets:
        assert sum(members(s)) == s
        assert set(members(NEG_SETS[s])) == {NEG_SETS[a] for a in members(s)}
        assert bool(GRANTS & s) == any(GRANTS & a for a in members(s))
    for name, op in LIFTED.items():
        for s, t in itertools.product(sets, repeat=2):
            got = set(members(op[s][t]))
            assert got == {op[a][b] for a in members(s) for b in members(t)}, \
                (name, s, t)
