"""Operational layer: matching, policy evaluation, steps, state spaces."""
import enum
import json
import random
import tracemalloc

import pytest

from aspectkbl import (BOT, FF, TOP, TT, AkblError, EvaluationError,
                       LimitExceeded, ReplicationPresent, build_lts,
                       data_index, dot_export, json_export, match, occurs_in,
                       parse_net, parse_obligation, parse_policy, sat_obl,
                       step_candidates, take_actions, validate)
from aspectkbl import parser, semantics
from aspectkbl.semantics import (Interner, ground_atom, json_text, net_text,
                                 numeral)
from aspectkbl.model import (Action, BindVar, Const, ETrue, Net, NetEntry, NIL,
                             Par, Repl, Sum, Var, WILDCARD, canonicalize)
from aspectkbl.parser import render_entry
import corpusio
import gen
import oracles
from oracles import enabled_steps, eval_policy, net_steps


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
    steps, denied = net_steps(net)
    assert [lbl.text() for lbl, _ in steps] == \
        ["Hansen:r(Bob,PrivateNotes,bobtext)@EHDB"]
    assert [(lbl.text(), f) for lbl, f in denied] == \
        [("Olsen:r(Bob,PrivateNotes,bobtext)@EHDB", TOP)]

    _, after = steps[0]
    steps2, denied2 = net_steps(after)
    assert steps2 == []
    assert sorted((lbl.text(), f) for lbl, f in denied2) == [
        ("Hansen:o(Bob,PrivateNotes,bobtext)@Olsen", TOP),
        ("Olsen:r(Bob,PrivateNotes,bobtext)@EHDB", TOP),
    ]


def test_out_requires_an_entry_at_the_target():
    net = parse_net("A ::[true] out(k)@Nowhere . 0")
    steps, denied = net_steps(net)
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
    steps, _ = net_steps(net)
    assert len(steps) == 1
    # one copy is consumed, the other stays
    _, succ = steps[0]
    assert [e.body for e in succ.entries if e.is_data()] == [("k",)]
    # copies that differ in policy are rejected, as `validate` rejects
    # them
    _assert_rejected("A ::[true] <k> || A ::[false or true] <k>\n"
                     "|| B ::[true] in(!x)@A . 0", net_steps)


def test_identical_branches_give_one_step():
    net = parse_net("A ::[true] out(k)@B . 0 + out(k)@B . 0 || B ::[true] <v>")
    steps, _ = net_steps(net)
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
        net_steps(net)


def test_state_space_of_the_unguarded_record_store():
    net = corpusio.net("tiny_no_policies.akbl")
    lts = build_lts(net)
    assert len(lts.states) == 6
    assert len(lts.transitions) == 7
    # state 0 is the initial network, which no transition discovers
    assert lts.states[0] == canonicalize(net)
    assert lts.discovered_by[0] is None
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
    doc = json.loads(json_export(lts))
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


def _escaping_net():
    # names with a quote, a backslash, a newline and non-ASCII letters
    loc = 'Zo\u00eb"\\'
    out = Sum(((Action("out", (Const('q"\\\u00e9\u2603'),), Const(loc)), NIL),))
    return Net((NetEntry(loc, ETrue(), ('x"y', "\u00e9\n")),
                NetEntry("B", ETrue(), out)))


def _generated_nets(small, ward, guarded):
    """Networks of the three generators, for the seeds in the ranges."""
    for make, seeds in ((gen.gen_small_net, small), (gen.gen_ward_net, ward),
                        (gen.gen_guarded_net, guarded)):
        for seed in seeds:
            yield make(random.Random(seed))


def _corpus_nets():
    return [corpusio.net(name) for name in corpusio.names(".akbl")]


def test_json_export_writes_the_document_json_dumps_writes():
    still = parse_net("A ::[true] <k> || B ::[true] in(j)@A . 0")
    # 961 states of about 50 entries each: many pieces when streamed
    chains = parse_net(gen.alternating_chains(30))
    nets = [*_corpus_nets(), *_generated_nets(range(50), range(30),
                                              range(50)),
            still, _escaping_net(), Net(()), chains]
    most = 0
    for n, net in enumerate(nets):
        lts = build_lts(net)
        text = json_export(lts)
        assert text == json.dumps(oracles.lts_document(lts), indent=2,
                                  sort_keys=True), n
        # streamed, the pieces join to the text, and none is empty
        pieces = []
        assert json_export(lts, write=pieces.append) is None
        assert "".join(pieces) == text and all(pieces), n
        most = max(most, len(pieces))
    assert most > 10
    assert json.loads(json_export(build_lts(Net(()))))["states"] == [
        {"id": 0, "net": ""}]
    assert not build_lts(still).transitions
    assert '"transitions": []' in json_export(build_lts(still))
    assert "\\u00e9" in json_export(build_lts(_escaping_net()))


def _assert_export_renders_as_the_plain_renderer(net):
    # every state's text joins the plain renderer's texts of its entries
    lts = build_lts(net)
    plain = [oracles.plain_entry_text(e) for e in lts.space.entries]
    states = json.loads(json_export(lts))["states"]
    assert [s["net"] for s in states] == [
        " || ".join(plain[j] for j in lts.space.flat(state))
        for state in lts.ids]


def _out(name, cont=NIL, at="A"):
    return Sum(((Action("out", (Const(name),), Const(at)), cont),))


def _hand_made_nets():
    """Continuations the generated nets lack: a choice and a parallel,
    a nil, and one node that is a continuation in one entry and the
    whole body of another, met as a body first and as a term first."""
    choice = Sum((*_out("b").branches, *_out("c").branches))
    shared = Sum(((Action("out", (Const("s"),), Const("A")), _out("t")),))
    nets = [parse_net("A ::[true] out(a)@A . (out(b)@A . 0 + out(c)@A . 0)"),
            parse_net("A ::[true] out(a)@A . (out(b)@A . 0 | out(c)@A . 0)"),
            parse_net("A ::[true] out(a)@A . 0 || B ::[true] <k>")]
    for first, second in (("A", "B"), ("B", "A")):
        for node in (choice, shared):
            nets.append(Net((NetEntry(first, ETrue(), _out("a", node)),
                             NetEntry(second, ETrue(), node))))
        nets.append(Net((NetEntry(first, ETrue(), _out("a", shared)),
                         NetEntry(second, ETrue(), _out("z", shared)))))
    return nets


def test_export_renders_each_entry_as_the_plain_renderer():
    for net in [*_corpus_nets(), *_generated_nets(range(300), range(300),
                                                  range(300)),
                *_hand_made_nets(), _escaping_net()]:
        _assert_export_renders_as_the_plain_renderer(net)
    # replications, parallels and choices nest in the nets of gen_net,
    # which no LTS is built for; one memo serves a whole net
    rng = random.Random(5)
    for _ in range(300):
        net, memo = gen.gen_net(rng), {}
        for e in net.entries:
            assert render_entry(e, memo) == oracles.plain_entry_text(e)


def test_export_renders_each_action_node_once(monkeypatch):
    chain = parse_net("A ::[true] " + " . ".join(
        f"out(k{i})@A" for i in range(200)) + " . 0")
    lts = build_lts(chain)
    actions = set()
    for e in lts.space.entries:
        p = e.body
        while isinstance(p, Sum):
            actions.add(id(p.branches[0][0]))
            p = p.branches[0][1]
    calls = []
    render_action = parser.render_action
    monkeypatch.setattr(parser, "render_action",
                        lambda a: calls.append(a) or render_action(a))
    states = json.loads(json_export(lts))["states"]
    assert len(states) == 201 and len(actions) == 200
    assert 0 < len(calls) <= len(actions)


def _sign(a, b) -> int:
    return (a > b) - (a < b)


def test_string_keys_order_entries_as_their_sort_keys():
    # keys order only the entries of one location, which share its one
    # policy; a key is the body's memoised text, not a copy, and data,
    # whose text starts with "(", sort before processes, whose text
    # starts with a capital, as in the sort key
    locs = ("A", "AB", "B")
    rng = random.Random(23)
    for _ in range(40):
        space = Interner()
        policy = gen.gen_small_policy(rng, locs)
        for _ in range(rng.randint(2, 12)):
            pick = rng.random()
            body = (tuple(rng.choice(("k", "k, v", "")) for _ in range(
                rng.randint(0, 2))) if pick < 0.45
                else NIL if pick < 0.55 else gen.gen_small_process(rng, locs))
            space.intern(NetEntry("A", policy, body))
        entries, keys = space.entries, space.keys
        assert all(k is e.sort_key[2] for k, e in zip(keys, entries))
        for i in range(len(entries)):
            for j in range(len(entries)):
                assert _sign(keys[i], keys[j]) == _sign(
                    entries[i].sort_key, entries[j].sort_key)


def _policies_held(lts) -> int:
    """The number of states of the LTS, after asserting that each one
    is canonical with every entry under its location's one policy."""
    space = lts.space
    for ids in lts.ids:
        entries = space.net(ids).entries
        assert all(e.policy == space.policies[e.location] for e in entries)
        assert list(entries) == sorted(entries, key=lambda e: e.sort_key)
    return len(lts.ids)


def test_every_reachable_state_holds_one_policy_per_location():
    # a key orders a location's entries as their sort keys only while
    # they share one policy: no step may add a second one
    states = 0
    roles = (gen.gen_role_net(random.Random(seed)) for seed in range(60))
    for net in [*_corpus_nets(), *_generated_nets(range(300), range(100),
                                                  range(300)),
                *roles, *_hand_made_nets(), *map(parse_net, _RUN_NETS)]:
        if not validate(net):
            states += _policies_held(build_lts(net))
    assert states >= 22000, states


def test_a_chains_lts_holds_no_copy_of_its_texts():
    # each suffix of a chain is an entry whose text is memoised once;
    # a key that copied it would hold the chain's length squared
    prefixes = " . ".join(f"out(k{i})@A" for i in range(400))
    net = parse_net(f"A ::[true] {prefixes} . 0")
    tracemalloc.start()
    try:
        lts = build_lts(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lts.ids) == 401
    assert peak < 3 << 20, peak


def test_a_deep_lts_tries_each_read_on_its_key_only(monkeypatch):
    # two processes read 15 keys each, one tuple per key, and write 15
    # copies under other keys: a read tries only the data of its key
    entries = []
    for p, (read, copy) in (("P", ("K", "C")), ("Q", ("L", "D"))):
        steps = []
        for i in range(30):
            if i % 2 == 0:
                entries.append(f"Store ::[true] <{read}{i}, {p}{i}>")
                steps.append(f"read({read}{i}, !d{i})@Store")
            else:
                steps.append(f"out({copy}{i}, d{i - 1})@Store")
        entries.append(f"{p} ::[true] {' . '.join(steps + ['0'])}")
    net = parse_net("\n|| ".join(entries))
    calls = []
    match = semantics.match
    monkeypatch.setattr(semantics, "match",
                        lambda *args: calls.append(args) or match(*args))
    lts = build_lts(net)
    assert (len(lts.ids), len(lts.transitions)) == (961, 1860)
    assert len(calls) < 200


# quotes, backslashes, control characters, DEL, non-ASCII text of one
# and two UTF-16 units, and plain text
JSON_PIECES = ('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
               "\u20ac", "\U0001f600", "/", " ", "a", "Doctor")


def _json_string(rng):
    return "".join(rng.choice(JSON_PIECES) for _ in range(rng.randrange(5)))


def _json_document(rng, depth=0):
    """A random document of nested dicts, lists and tuples holding the
    scalars a JSON report can: text, ints, bools and None."""
    pick = rng.randrange(8 if depth < 4 else 4)
    if pick == 0:
        return _json_string(rng)
    if pick == 1:
        return rng.choice((0, 7, -1, 10 ** 20, -(10 ** 30)))
    if pick == 2:
        return rng.choice((True, False, None))
    if pick == 3:
        return rng.choice(({}, [], ()))
    items = [_json_document(rng, depth + 1) for _ in range(rng.randrange(4))]
    if pick < 6:
        return {_json_string(rng): item for item in items}
    return items if pick == 6 else tuple(items)


class _Count(enum.IntEnum):
    NONE, SOME, LESS = 0, 7, -1


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


def _subclassed(doc):
    """doc with each dict, list and str, and each int of a _Count, a
    value of a subclass."""
    if isinstance(doc, str):
        return _Str(doc)
    if isinstance(doc, bool) or doc is None:
        return doc
    if isinstance(doc, int):
        return _Count(doc) if doc in (0, 7, -1) else doc
    if isinstance(doc, dict):
        return _Dict({_Str(k): _subclassed(v) for k, v in doc.items()})
    items = map(_subclassed, doc)
    return _List(items) if isinstance(doc, list) else tuple(items)


def test_json_text_writes_what_json_dumps_writes():
    rng = random.Random(11)
    for _ in range(5000):
        doc = _json_document(rng)
        want = json.dumps(doc, indent=2, sort_keys=True)
        assert json_text(doc) == want, doc
        assert json_text(doc, "\n    ") == want.replace("\n", "\n    "), doc
        # subclasses write as their base classes
        sub = _subclassed(doc)
        assert json_text(sub) == json.dumps(sub, indent=2, sort_keys=True) \
            == want, doc
    with pytest.raises(TypeError):
        json_text({"a": 1.5})


def _assert_steps_as_reference(lts):
    # the run's tables, warmed by the exploration, give the steps and
    # denials that the plain scans of the reference find
    space = lts.space
    for sid, ids in enumerate(lts.ids):
        steps, denied = step_candidates(ids, space)
        assert ([(label, space.net(succ)) for label, succ in steps],
                denied) == oracles.reference_steps(space.net(ids)), sid


def _outcome(build):
    try:
        return build()
    except (EvaluationError, LimitExceeded) as e:
        return type(e)


# hand-made nets for the runs of a state: an in that takes the last
# entry of a location, outs aimed at nil-guarded locations, and entries
# acting on their own location, so the acting run is the target run
_RUN_NETS = (
    "A ::[true] <k> || B ::[true] in(!x)@A . out(x)@A . 0",
    "A ::[true] <k> || B ::[true] in(k)@A . 0 || C ::[true] read(k)@A . 0",
    "A ::[true] 0 || B ::[true] out(k)@A . out(j)@A . 0",
    "A ::[true] <k> || A ::[true] in(!x)@A . out(x)@A . read(x)@A . 0",
    "C ::[true] out(b)@C . 0 || C ::[true] out(c)@C . in(a)@C . 0",
    "A ::[true] in(k)@A . 0 || A ::[true] <k> || A ::[true] <k>",
    "A ::[true] out(k)@A . in(k)@A . 0 || B ::[true] in(k)@A . 0",
    "A ::[true] out(a)@A . (out(b)@A . 0 | in(a)@A . 0)",
)

# nets whose location A holds two policies: a nil at the target beside
# data of another policy, and a nil guard of another policy than the
# process beside it
_MIXED_NETS = (
    "A ::[true] 0 || A ::[false or true] <j> || B ::[true] out(k)@A . 0",
    "A ::[false or true] 0 || A ::[true] out(z)@Q . 0\n"
    "|| B ::[true] out(k)@A . 0 || Q ::[true] <q>",
)


def _assert_rejected(source, explore):
    """explore raises on the network of source with `validate`'s one
    message, as akbl rejects it."""
    net = parse_net(source)
    (diag,) = validate(net)
    with pytest.raises(AkblError, match=f"^{diag.message}$"):
        explore(net)


def test_the_explorer_builds_the_state_space_of_the_reference():
    # the reference numbers the states it meets by equality of their
    # networks, with no interning, so two states the explorer merged
    # or split show as a different numbering, net or transition
    nets = [*_corpus_nets(), *_generated_nets(range(300), range(300),
                                              range(300)),
            *_hand_made_nets(), *map(parse_net, _RUN_NETS), _escaping_net(),
            Net(()), parse_net(gen.alternating_chains(30)),
            # a policy that raises in a later state, and a net past the
            # state budget
            parse_net(_RAISES_LATER), parse_net(gen.alternating_chains(40))]
    built = states = raised = 0
    for n, net in enumerate(nets):
        got = _outcome(lambda: json.loads(json_export(build_lts(
            net, max_states=1000))))
        want = _outcome(lambda: oracles.lts_document(oracles.reference_lts(
            net, max_states=1000)))
        assert got == want, n
        if isinstance(got, dict):
            built += 1
            states += len(got["states"])
        else:
            raised += 1
    assert built >= 900 and states >= 19000 and raised == 2, \
        (built, states, raised)
    # nets that mix policies at a location are rejected, not explored
    for source in _MIXED_NETS:
        _assert_rejected(source, build_lts)


def test_kernel_caches_never_change_a_step():
    states = 0
    # ward nets have the most states, some 45 each; the guarded nets of
    # seeds below 300 are compared in the test of the policy memo
    for net in [*_corpus_nets(), *_generated_nets(
            range(300), range(60), range(300, 540))]:
        lts = build_lts(net)
        _assert_steps_as_reference(lts)
        states += len(lts.ids)
    assert states >= 6500


def test_match_tables_follow_the_state():
    # C's read has matched k, which B's in then removed; the pairs at A
    # outnumber C's matches, so its table is what is walked
    gone = build_lts(parse_net(
        "A ::[true] <k> || A ::[true] <a, b> || A ::[true] <c, d>\n"
        "|| B ::[true] in(!x)@A . 0 || C ::[true] read(!y)@A . 0"))
    _assert_steps_as_reference(gone)
    assert len(gone.ids) == 4
    (found,) = [table[1] for (i, _), table in gone.space.matches.items()
                if gone.space.entries[i].location == "C"]
    assert any(set(found) - set(gone.space.flat(s)) for s in gone.ids)
    # an in consumes one of two identical tuples, and the next the other
    twice = build_lts(parse_net(
        "A ::[true] <k> || A ::[true] <k>\n"
        "|| B ::[true] in(!x)@A . in(!y)@A . 0"))
    _assert_steps_as_reference(twice)
    assert [sum(twice.space.data[j] is not None
                for j in twice.space.flat(s)) for s in twice.ids] == [2, 1, 0]
    # R's read(_, _) has matched more tuples than any state holds
    # entries, so most ids of its table are not in the state
    puts = " . ".join(f"out({n}, {n})@A . in(!a, !b)@A" for n in range(8))
    reader = NetEntry("R", ETrue(), Sum(((
        Action("read", (WILDCARD, WILDCARD), Const("A")), NIL),)))
    many = build_lts(Net(parse_net(
        f"A ::[true] <seed> || P ::[true] {puts} . 0").entries + (reader,)))
    _assert_steps_as_reference(many)
    (found,) = [table[1] for (i, _), table in many.space.matches.items()
                if many.space.entries[i].location == "R"]
    assert len(found) == 8 > max(len(many.space.flat(s)) for s in many.ids)


def _successors(source):
    """The interner, the entry ids of the initial state and {label
    text: entry ids of the successor} of a network, read through
    `Interner.flat`, whose steps from every state, the initial one with
    a fresh interner, are those of the reference."""
    net = parse_net(source)
    space = Interner()
    state = space.state(net)
    steps, denied = step_candidates(state, space)
    assert ([(label, space.net(succ)) for label, succ in steps],
            denied) == oracles.reference_steps(net)
    _assert_steps_as_reference(build_lts(net))
    return space, space.flat(state), {label.text(): space.flat(succ)
                                      for label, succ in steps}


def _ranks(space, ids, succ):
    """The rank of the entry that acted among the entries the step
    kept, and that of its continuation, for a step with one of each."""
    kept = set(ids) & set(succ)
    (p,) = [p for p, j in enumerate(ids)
            if j not in kept and space.data[j] is None]
    (c,) = [c for c, j in enumerate(succ)
            if j not in kept and space.data[j] is None]
    return sum(j in kept for j in ids[:p]), sum(j in kept for j in succ[:c])


def test_a_continuation_stays_in_its_slot_or_moves():
    space, ids, succ = _successors(
        "A ::[true] out(k)@B . in(j)@B . 0 || B ::[true] <v>\n"
        "|| C ::[true] out(b)@C . 0 || C ::[true] out(c)@C . in(a)@C . 0")
    # the only entry at A stays between B's data and C's entries
    rank, after = _ranks(space, ids, succ["A:o(k)@B"])
    assert rank == after == 0
    # in(a) sorts before out(b), the earlier process at C, and read(b)
    # after out(c), the later one
    assert _ranks(space, ids, succ["C:o(c)@C"]) == (3, 2)
    space, ids, succ = _successors(
        "C ::[true] out(b)@C . read(b)@C . 0 || C ::[true] out(c)@C . 0")
    assert _ranks(space, ids, succ["C:o(b)@C"]) == (0, 1)


@pytest.mark.parametrize("source, ranks", [
    # the tuple before the acting entry, the continuation in its slot
    # and then moved past B's out
    ("A ::[true] <k> || B ::[true] in(!x)@A . out(x)@A . 0", (0, 0)),
    ("A ::[true] <k> || B ::[true] in(!x)@A . read(x)@A . 0\n"
     "|| B ::[true] out(m)@A . 0", (0, 1)),
    # the tuple after it, the same two ways
    ("B ::[true] in(!x)@C . out(x)@C . 0 || C ::[true] <k>", (0, 0)),
    ("B ::[true] in(!x)@C . read(x)@C . 0 || B ::[true] out(m)@C . 0\n"
     "|| C ::[true] <k>", (0, 1)),
])
def test_an_in_consumes_the_tuple_before_or_after_it(source, ranks):
    space, ids, succ = _successors(source)
    step = next(text for text in succ if ":i(" in text)
    assert _ranks(space, ids, succ[step]) == ranks
    assert sum(space.data[j] is not None for j in succ[step]) == 0


def _nils(space, ids):
    return [space.entries[j].location for j in ids if space.nils[j]]


def test_nil_continuations_and_groups_whose_nil_the_state_holds():
    # a nil continuation goes while its group keeps another entry, and
    # the last one of the group stays
    space, ids, succ = _successors(
        "A ::[true] out(k)@B . 0 || A ::[true] in(v)@B . out(j)@B . 0\n"
        "|| B ::[true] <v>")
    assert _nils(space, succ["A:o(k)@B"]) == []
    space, ids, succ = _successors("A ::[true] out(k)@B . 0 || B ::[true] <v>")
    assert _nils(space, succ["A:o(k)@B"]) == ["A"]
    # a continuation joins the group of the entry that acted, whose nil
    # a canonical state cannot hold beside it; the data of an out join
    # the group of the target's guard, and when that is nil it goes
    space, ids, succ = _successors(
        "A ::[true] 0 || B ::[true] out(k)@A . out(j)@A . 0")
    assert _nils(space, ids) == ["A"]
    assert _nils(space, succ["B:o(k)@A"]) == []
    # a nil beside an entry of another policy at its location is
    # rejected, as its location mixes policies
    for source in _MIXED_NETS:
        _assert_rejected(source, lambda net: Interner().state(net))


def test_a_parallel_continuation_splits_into_two_entries():
    space, ids, succ = _successors(
        "A ::[true] out(k)@B . (out(a)@B . 0 | in(b)@B . 0)\n"
        "|| A ::[true] out(m)@B . 0 || B ::[true] <v>")
    after = succ["A:o(k)@B"]
    assert len(after) == len(ids) + 2
    assert [space.entries[j].location for j in after].count("A") == 3


@pytest.mark.parametrize("policy", ["true", "false or true"])
def test_one_read_of_two_identical_tuples_is_one_step(policy):
    # with one policy the two tuples are one entry, held twice; two
    # policies at one location are rejected
    source = (f"A ::[true] <k> || A ::[{policy}] <k>"
              " || B ::[true] read(!x)@A . 0")
    if policy != "true":
        _assert_rejected(source, net_steps)
        return
    space, ids, succ = _successors(source)
    assert list(succ) == ["B:r(k)@A"]


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
        space, nets = lts.space, lts.states
        for sid, ids in enumerate(lts.ids):
            steps, denied = step_candidates(ids, space)
            fresh = net_steps(nets[sid])
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


# A's in is judged while flag is absent from B, and the trap's condition
# is false; once C has put flag there, the recommendation is evaluated
# and tests the binder #a is bound to
_RAISES_LATER = (
    "B ::[[test(#a)@B if #u :: in(#a)@B . X : test(flag)@B]] <seed>\n"
    "|| A ::[true] in(!x)@B . 0 || C ::[true] out(flag)@B . 0")


def test_cached_verdicts_do_not_hide_evaluation_errors():
    net = parse_net(_RAISES_LATER)
    steps, _ = net_steps(net)
    assert len(steps) == 2
    with pytest.raises(EvaluationError):
        build_lts(net)
