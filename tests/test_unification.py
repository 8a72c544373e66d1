"""One-pass unification against the stepwise reference matcher."""
import random
from collections import Counter

from aspectkbl import (LimitExceeded, build_lts, findsubs, has_replication,
                       take_actions)
from aspectkbl.model import (AspectPol, BindVar, Const, EOccursIn, Var,
                             WILDCARD, process_actions)
import corpusio
import gen
import oracles
from oracles import findsubs_stepwise


def random_term(rng):
    r = rng.random()
    if r < 0.35:
        return Const(rng.choice(("A", "B", "k")))
    if r < 0.75:
        return Var(rng.choice(("$u", "$v", "#u", "#w", "x", "y")))
    if r < 0.9:
        return BindVar(rng.choice(("x", "y")))
    return WILDCARD


def test_findsubs_agrees_with_the_stepwise_matcher_on_random_tuples():
    rng = random.Random(18)
    matched = 0
    for _ in range(20000):
        n = rng.randint(2, 5)
        m = n if rng.random() < 0.95 else rng.randint(2, 5)
        pattern = tuple(random_term(rng) for _ in range(n))
        action = tuple(random_term(rng) for _ in range(m))
        want = findsubs_stepwise(pattern, action)
        assert findsubs(pattern, action) == want, (pattern, action)
        matched += want is not None
    assert 5000 < matched < 19000


def _pairs(net, obls) -> dict:
    """(pattern, action) term tuples as the checkers unify them, by
    kind: each aspect cut and each obligation's pattern with each
    action of the network, each obligation's pattern with each label of
    its LTS, and each occurs-in template with each action of its
    processes."""
    acts = [(Const(la.source), *la.action.args, la.action.target)
            for la in take_actions(net)]
    patterns = [(o.cut.subject, *o.cut.args, o.cut.target) for o in obls]
    cuts, templates, bodies = list(patterns), [], []
    for e in net.entries:
        for node in oracles.subnodes(e.policy):
            if isinstance(node, AspectPol):
                c = node.aspect.cut
                cuts.append((c.subject, *c.action.args, c.action.target))
            elif isinstance(node, EOccursIn):
                templates.append((*node.action.args, node.action.target))
        if not e.is_data():
            bodies += [(*a.args, a.target)
                       for a, _ in process_actions(e.body)]
    labels = [tuple(map(Const, (l.subject, *l.args, l.target)))
              for l in _labels(net)]
    return {"action": [(p, a) for p in cuts for a in acts],
            "label": [(p, l) for p in patterns for l in labels],
            "occurs-in": [(t, b) for t in templates for b in bodies]}


def _labels(net) -> set:
    if has_replication(net):
        return set()
    try:
        return {t.label for t in build_lts(net, max_states=300).transitions}
    except LimitExceeded:
        return set()


def test_findsubs_agrees_with_the_stepwise_matcher_on_checked_pairs():
    obls = [corpusio.obl(o) for o in corpusio.names(".obl")]
    cases = [(corpusio.net(n), obls) for n in corpusio.names(".akbl")]
    rng = random.Random(18)
    for _ in range(100):
        cases.append((gen.gen_net(rng), [gen.gen_obligation(rng)]))
    for family in (gen.gen_small_net, gen.gen_guarded_net, gen.gen_ward_net):
        for _ in range(100):
            net = family(rng)
            cases.append((net, [gen.gen_obligation_for(rng, net),
                                gen.gen_obligation_from_net(rng, net)]))
    compared, matched = Counter(), Counter()
    for net, obls in cases:
        for kind, pairs in _pairs(net, obls).items():
            for pattern, action in pairs:
                want = findsubs_stepwise(pattern, action)
                assert findsubs(pattern, action) == want, (pattern, action)
                compared[kind] += 1
                matched[kind] += want is not None
    assert all(matched[kind] > 100 for kind in ("action", "label",
                                                "occurs-in")), matched
