"""Structure layer: canonical forms, substitution, validation."""
import dataclasses
import json
import random
from pathlib import Path

import pytest

from aspectkbl.certify import ActionReport, MightGrant, StaticVerdict
from aspectkbl.exhaustive import Footprint, Verdict, Witness
from aspectkbl.model import (Action, AkblError, Aspect, Const, BindVar,
                             Diagnostic, EEqual, EFalse, ETrue, Label,
                             LabelPattern, LocatedAction, Net, NetEntry, NIL,
                             Obligation, Par, PForall, Repl, Substitution, Sum,
                             Var, WILDCARD, canonicalize, entry_consts,
                             has_replication, loc_set, subst_key, take_actions,
                             validate)
from aspectkbl.semantics import LTS, Transition
from aspectkbl import model
from aspectkbl import (build_lts, corpus_path, parse_net, parse_obligation,
                       parse_policy)
from aspectkbl.parser import ParseError
from oracles import (NODE_FIELDS, entry_key, node_text, plain_consts,
                     plain_subst, subnodes)
import gen
import oracles

GOLDEN = Path(__file__).resolve().parent / "golden"

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
        assert canonicalize(c) is c
        # the normal form of a canonical net's entries is those entries
        assert canonicalize(Net(c.entries)) == c
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
        again = canonicalize(Net(canonical.entries)).entries
        assert len(again) == len(canonical.entries)
        assert all(a is b for a, b in zip(again, canonical.entries))


def test_data_entries_sort_before_processes():
    net = Net((NetEntry("A", T, chain(OUT_K)), NetEntry("A", T, ("k",))))
    got = canonicalize(net)
    assert got.entries[0].is_data() and not got.entries[1].is_data()


def test_validate_flags_inconsistent_policies():
    net = Net((NetEntry("A", T, ("k",)), NetEntry("A", F, ("v",))))
    diags = validate(net)
    assert [d.format() for d in diags] == [
        "error: location A carries inconsistent policies"]

    ok = Net((NetEntry("A", T, ("k",)), NetEntry("A", T, ("v",))))
    assert validate(ok) == []


def test_validate_flags_replication():
    net = Net((NetEntry("A", T, Repl(chain(OUT_K))),))
    assert has_replication(net)
    assert [d.format() for d in validate(net)] == [
        "error: replication at A is outside the checkable fragment"]


def test_entries_sharing_a_replicated_body_walk_it_once(monkeypatch):
    # one diagnostic per replication per entry, in entry order, from
    # one walk of the shared body per call
    body = Repl(Par(Repl(chain(OUT_K)), NIL))
    net = Net((NetEntry("A", T, body), NetEntry("B", T, ("k",)),
               NetEntry("C", T, body), NetEntry("D", T, chain(OUT_K))))
    walked = []
    count = model._count_repl
    monkeypatch.setattr(model, "_count_repl",
                        lambda p: walked.append(p) or count(p))
    assert [d.format() for d in validate(net)] == [
        f"error: replication at {loc} is outside the checkable fragment"
        for loc in "AACC"]
    assert walked == [body, chain(OUT_K)]
    walked.clear()
    assert has_replication(net)
    assert walked == [body, chain(OUT_K)]


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


def test_take_actions_is_the_walk_of_each_entry():
    # the parser shares the body of entries that read the same, and
    # take_actions walks a shared body once
    nets = [parse_net(corpus_path(p.name).read_text())
            for p in sorted(corpus_path("").iterdir())
            if p.name.endswith(".akbl")]
    for seed in range(200):
        rng = random.Random(seed)
        nets += [gen.gen_net(rng), gen.gen_ward_net(rng),
                 gen.gen_guarded_net(rng)]
        nets.append(gen.congruent_variant(rng, nets[-2]))
    sharing = 0
    for net in nets:
        acts, want = take_actions(net), oracles.reference_actions(net)
        assert acts == want
        assert all(a.action is b.action and a.continuation is b.continuation
                   for a, b in zip(acts, want))
        bodies = [e.body for e in net.entries if not e.is_data()]
        sharing += len(set(map(id, bodies))) < len(bodies)
    assert sharing > 100


def test_subst_key_forms():
    assert subst_key(Var("$u")) == "$u"
    assert subst_key(Var("x")) == "x"
    assert subst_key(BindVar("x")) == "!x"


def test_substitution_application_and_composition():
    th = Substitution((("x", Const("k")),))
    assert th.apply_term(Var("x")) == Const("k")
    assert th.apply_term(Const("x")) == Const("x")
    assert th.apply_term(WILDCARD) == WILDCARD
    # the first pair's value is read by the second pair, not the reverse
    chained = Substitution((("x", Var("y")), ("y", Const("z"))))
    assert chained.apply_term(Var("x")) == Const("z")
    assert chained.apply_term(Var("y")) == Const("z")
    backwards = Substitution((("y", Const("z")), ("x", Var("y"))))
    assert backwards.apply_term(Var("x")) == Var("y")


def test_substitution_stops_at_rebinding_action():
    proc = parse_net("A ::[true] in(!x)@B . out(x)@B . 0").entries[0].body
    th = Substitution((("x", Const("k")),))
    got = th.apply(proc)
    # the binder shadows the outer x, so the continuation is untouched
    assert got == proc

    # inside the continuation x is a free variable, so it is replaced there
    _, cont = proc.branches[0]
    assert cont.branches[0][0].args == (Var("x"),)
    got = th.apply(cont)
    assert got.branches[0][0].args == (Const("k"),)


def test_substitution_respects_quantifier_scope():
    pred = PForall("$x", EEqual(Var("$x"), Const("k")))
    th = Substitution((("$x", Const("v")),))
    assert th.apply(pred) == pred

    free = PForall("$y", EEqual(Var("$x"), Const("k")))
    assert th.apply(free) == PForall("$y", EEqual(Const("v"), Const("k")))


def test_assigning_a_field_of_a_record_raises():
    # records are hashed and shared between states and steps, so a
    # field set after the fact would leave a stale hash behind
    theta = Substitution((("x", Const("k")),))
    label = Label("A", "o", ("k",), "B")
    cut = LabelPattern(Var("$u"), "o", (WILDCARD,), Const("B"))
    obl = Obligation(cut, T)
    net = Net((NetEntry("A", T, chain(OUT_K)),))
    none = frozenset()
    records = [
        Diagnostic("m", 1, 2), cut, obl, net, take_actions(net)[0], theta,
        label, Transition(0, 1, label), build_lts(net), MightGrant((), 1),
        ActionReport("A", OUT_K, "NotCertified", theta),
        StaticVerdict(False, (), None), Witness((), label, theta, F),
        Verdict(obl, False, None, 2, 1),
        Footprint("A", none, none, none, none)]
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def test_policy_equality_is_structural():
    a = parse_policy("[true if #u :: out(_)@A . X : true] oplus false")
    b = parse_policy("[true if #u :: out(_)@A . X : true] oplus false")
    assert a == b
    assert a != parse_policy("false oplus [true if #u :: out(_)@A . X : true]")


# ---------------------------------------------------------------------------
# syntax nodes against the oracles of tests/oracles.py

def _golden_texts():
    """The network and obligation texts the goldens hold as inputs."""
    root = corpus_path("eq1.obl").parent
    texts = [f.read_text() for f in sorted(root.iterdir())
             if f.suffix in (".akbl", ".obl")]
    for name in ("generated", "diagnostics", "terms"):
        cases = json.loads((GOLDEN / f"{name}.json").read_text()).values()
        texts += [c[k] for c in cases for k in ("net", "obligation") if k in c]
    return texts


def _trees():
    """Networks and obligations: the corpus and every golden input that
    parses, and every family of tests/gen.py.  Each call builds new
    nodes, so two calls give equal trees of distinct objects."""
    trees = []
    for text in _golden_texts():
        for parse in (parse_net, parse_obligation):
            try:
                trees.append(parse(text))
            except ParseError:
                pass
    for seed in range(60):
        rng = random.Random(seed)
        nets = [gen.gen_net(rng), gen.gen_small_net(rng), gen.gen_ward_net(rng),
                gen.gen_guarded_net(rng)]
        nets.append(gen.congruent_variant(rng, nets[1]))
        trees += nets
        trees += [gen.gen_obligation(rng), gen.gen_obligation_for(rng, nets[1]),
                  gen.gen_obligation_from_net(rng, nets[3])]
    return trees


def _entries(trees):
    """The entries of the networks, canonical or not, and of the states
    their explorations reach, where substitution made new nodes."""
    entries = []
    for net in trees:
        if isinstance(net, Net):
            entries += net.entries + canonicalize(net).entries
            if len(entries) < 20000 and not has_replication(net):
                try:
                    entries += build_lts(net, max_states=300).space.entries
                except AkblError:
                    pass
    return entries


def _nodes(trees):
    for tree in trees:
        if isinstance(tree, Net):
            for e in tree.entries:
                yield from subnodes(e.policy)
                if not e.is_data():
                    yield from subnodes(e.body)
        else:
            yield from subnodes(tree.cut.subject)
            yield from subnodes(tree.cut.args)
            yield from subnodes(tree.pred)


def test_node_text_is_the_dataclass_field_walk():
    trees = _trees()
    entries = _entries(trees)
    assert len(entries) > 5000
    seen = set()
    for node in _nodes(trees):
        assert repr(node) == node_text(node)
        seen.add(type(node))
    # one derived text serves most classes; each is checked here
    assert seen == set(NODE_FIELDS)
    for e in entries:
        assert e.sort_key == entry_key(e)
        assert entry_consts(e) == plain_consts(e)
        for node in (e.policy, e.body):
            assert repr(node) == node_text(node)
    for cls in NODE_FIELDS:
        assert not dataclasses.is_dataclass(cls)
        assert "__dict__" not in dir(cls), cls


def test_node_equality_and_hash_follow_the_text():
    trees, twin_trees = _trees(), _trees()   # equal nodes, other objects
    pool, twins = list(_nodes(trees)), list(_nodes(twin_trees))
    assert len(pool) == len(twins) > 20000
    by_class: dict = {}
    for node in pool + twins:
        by_class.setdefault(type(node), []).append(node)
    rng = random.Random(16)
    pairs = rng.sample(list(zip(pool, twins)), 5000) + [
        tuple(rng.sample(nodes, 2)) for nodes in by_class.values()
        if len(nodes) > 1 for _ in range(300)]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(3000)]
    equal = 0
    for a, b in pairs:
        same = node_text(a) == node_text(b)
        assert (a == b) is same and (a != b) is not same, (a, b)
        if same:
            assert hash(a) == hash(b)
            equal += 1
    assert 5000 < equal < len(pairs)
    entries = _entries(trees)
    for e, twin in zip(entries, _entries(twin_trees)):
        assert e == twin and hash(e) == hash(twin)
    for _ in range(5000):
        a, b = rng.choice(entries), rng.choice(entries)
        assert (a == b) is (entry_key(a) == entry_key(b))


def _keys(*trees) -> list:
    """Every substitution key that may occur in the trees, sorted."""
    keys = set()
    for node in (n for t in trees for n in subnodes(t)):
        if isinstance(node, Var):
            keys.add(node.name)
        elif isinstance(node, BindVar):
            keys.update((node.name, "!" + node.name))
    return sorted(keys)


def _same(got, want, tree) -> bool:
    """The sharing result equals the rebuilt one, and is the tree itself
    where the substitution changed nothing."""
    assert got == want and node_text(got) == node_text(want)
    assert (got is tree) is (node_text(want) == node_text(tree))
    return got is tree


def test_sharing_substitution_matches_a_rebuilding_one():
    trees = _trees()
    val = Const("v0")
    shared = changed = 0
    for tree in trees:
        if isinstance(tree, Net):
            pairs = [(a.action, a.continuation) for a in take_actions(tree)]
            exprs = [part for e in tree.entries for n in subnodes(e.policy)
                     if isinstance(n, Aspect) for part in (n.rec, n.cond)]
        else:
            pairs, exprs = [], [tree.pred]
        for action, cont in pairs:
            keys = _keys(action, cont)
            for key in keys:
                theta = Substitution(((key, val),))
                if _same(theta.apply(cont),
                         plain_subst(cont, key, val), cont):
                    shared += 1
                else:
                    changed += 1
                _same(theta.apply(action),
                      plain_subst(action, key, val), action)
            # two keys, applied front to back
            for k1, k2 in zip(keys, keys[1:]):
                theta = Substitution(((k1, Var(k2)), (k2, val)))
                _same(theta.apply(cont), plain_subst(
                    plain_subst(cont, k1, Var(k2)), k2, val), cont)
        for expr in exprs:
            for key in _keys(expr):
                _same(Substitution(((key, val),)).apply(expr),
                      plain_subst(expr, key, val), expr)
    assert shared > 100 and changed > 100
