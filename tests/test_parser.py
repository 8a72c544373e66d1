"""Parser, renderer, and the round trip between them."""
import json
import random
import re
import sys
from pathlib import Path

import pytest

from aspectkbl import (canonicalize, corpus_path, corpus_text, parse_net,
                       parse_obligation, parse_policy, render_expr,
                       render_net, render_obligation, ParseError)
from aspectkbl.model import (NIL, Action, Const, EBin, EFalse, ENot, ETrue,
                             Net, Nil, Sum, WILDCARD, validate)
from aspectkbl.parser import (_TERMS, _lex, _positions, render_entry,
                              render_process)
import gen
import oracles
from oracles import reference_lex

NET_FILES = sorted(f.name for f in corpus_path("eq1.obl").parent.iterdir()
                   if f.suffix == ".akbl")
OBL_FILES = sorted(f.name for f in corpus_path("eq1.obl").parent.iterdir()
                   if f.suffix == ".obl")


@pytest.mark.parametrize("name", NET_FILES)
def test_bundled_networks_parse_and_round_trip(name):
    from aspectkbl import corpus_text
    net = parse_net(corpus_text(name))
    assert parse_net(render_net(net)) == net


@pytest.mark.parametrize("name", OBL_FILES)
def test_bundled_obligations_parse_and_round_trip(name):
    from aspectkbl import corpus_text
    obl = parse_obligation(corpus_text(name))
    assert parse_obligation(render_obligation(obl)) == obl


def err(fn, text):
    with pytest.raises(ParseError) as exc:
        fn(text)
    return str(exc.value)


def test_sigil_restrictions():
    assert "binders are not allowed in out arguments" in \
        err(parse_net, "A ::[true] out(!x)@B . 0")
    assert "wildcards belong in policy and obligation patterns only" in \
        err(parse_net, "A ::[true] out(_)@B . 0")
    assert "pattern variable" in err(parse_net, "A ::[true] out($u)@B . 0")
    assert "data tuples hold constants only" in \
        err(parse_net, "A ::[true] <x, !y>")
    assert "wildcards belong" in err(parse_net, "A ::[true] in(x)@_ . 0")


def test_recommendation_and_condition_operator_fences():
    # condition expressions stay propositional: and/or only
    assert "oplus" in err(
        parse_policy, "[true if #u :: out(_)@A . X : #u oplus true]")
    # preference combines whole policies, not recommendation expressions
    assert "pref" in err(
        parse_policy, "[true pref false if #u :: out(_)@A . X : true]")
    assert "test' belongs to obligation predicates" in \
        err(parse_policy, "[test'(x)@A if #u :: out(_)@A . X : true]")
    parse_policy("[not test(k)@A implies false if #u :: out(_)@A . X : true]")
    parse_policy("[true if #u :: out(_)@A . X : not (#u = A) and true]")


def test_occurs_in_is_tied_to_the_cut_continuation():
    assert "occurs-in refers to Y, but the cut binds X" in \
        err(parse_policy, "[out(_)@A occurs-in Y if #u :: out(_)@A . X : true]")
    parse_policy("[out(_, k)@A occurs-in X if #u :: out(_)@A . X : true]")


def test_occurs_in_templates_accept_wildcard_arguments():
    pol = parse_policy("[in(_, k)@A occurs-in X if #u :: out(_)@A . X : true]")
    tpl = pol.aspect.rec.action
    assert tpl.args == (WILDCARD, Const("k"))


def test_occurs_in_lexes_as_one_token():
    # a plain name containing the words is just a name
    net = parse_net("A ::[true] <occursin>")
    assert net.entries[0].body == ("occursin",)
    # the hyphenated form is a keyword, not a constant
    assert "constants only" in err(parse_net, "A ::[true] <occurs-in>")


def test_numbers_are_constants_except_a_lone_process_zero():
    net = parse_net("A ::[true] <0> || B ::[true] out(0, 12)@A . 0")
    data, proc = net.entries
    assert data.body == ("0",)
    action, cont = proc.body.branches[0]
    assert action.args == (Const("0"), Const("12"))
    assert cont == Nil()


def test_obligation_binding_rules():
    assert "$v is not bound by the cut or a quantifier" in \
        err(parse_obligation, "AG [$u : r(_)@A] $v = k")
    assert "unknown capability 'z'" in \
        err(parse_obligation, "AG [$u : z(_)@A] true")
    parse_obligation("AG [$u : r(_)@A] forall $v : $v = $u or not ($v >= 3)")


def test_diagnostics_carry_position():
    msg = err(parse_net, "A ::[true] <x>\n|| B ::[true out(k)@A . 0")
    assert msg.startswith("2:14:")
    with pytest.raises(ParseError) as exc:
        parse_net("A ::[true] out(!x)@B . 0\n|| B ::[true] <y>")
    diags = exc.value.diagnostics
    assert [d.format() for d in diags] == [
        "1:16: error: binders are not allowed in out arguments"]


def test_policies_expressions_and_predicates_share_their_connectives():
    want = EBin("and", ETrue(), ENot(EFalse()))
    text = "true and not false"
    assert parse_policy(text) == want
    aspect = parse_policy(f"[{text} if A :: out(k)@B . X : {text}]").aspect
    assert aspect.rec == aspect.cond == want
    assert parse_obligation(f"AG [$u : o(k)@B] {text}").pred == want


def test_rendering_keeps_association_explicit():
    flat = parse_policy("true oplus false oplus true")
    nested = parse_policy("true oplus (false oplus true)")
    assert flat != nested
    assert parse_policy(render_expr(nested)) == nested
    assert "(" in render_expr(nested)

    mixed = parse_obligation("AG [$u : r(_)@A] ($u = a or $u = b) and $u = c")
    again = parse_obligation(render_obligation(mixed))
    assert again == mixed
    assert "(" in render_obligation(mixed)

    imp = parse_policy("true implies false implies true")
    assert imp == parse_policy("true implies (false implies true)")
    assert parse_policy(render_expr(imp)) == imp


def test_generated_networks_round_trip():
    from aspectkbl import canonicalize
    rng = random.Random(41)
    for _ in range(150):
        net = gen.gen_net(rng)
        # parse_net returns the canonical form, so compare up to it
        assert parse_net(render_net(net)) == canonicalize(net)


def test_generated_policies_and_obligations_round_trip():
    rng = random.Random(42)
    for _ in range(75):
        pol = gen.gen_policy(rng, depth=3)
        assert parse_policy(render_expr(pol)) == pol
    for _ in range(75):
        obl = gen.gen_obligation(rng)
        assert parse_obligation(render_obligation(obl)) == obl


# Pieces of text that the lexing rules treat specially when they meet:
# a comment at end of input, occurs-in before a name character or -,
# a sigil before a digit, _ or end of input, underscore names, blanks
# that are not newlines, halves of the two-character operators, and
# characters that are no token at all.
LEX_PIECES = ("//", "// c", "occurs-in", "occurs", "-", "in", "$", "#", "x",
              "1", "_", "_x", "__", "\r", "\t", " ", "\n", "|", ":", ">",
              "=", "\0", "~", "/", "0", "12", "out", "A_1", "(", ")", ",",
              "@", "!", "'", "[", "]", "<", "+", "*", ".")


def _random_source(rng):
    parts = [rng.choice(LEX_PIECES) if rng.random() < 0.9
             else chr(rng.randrange(128)) for _ in range(rng.randrange(13))]
    if rng.random() < 0.3:
        parts.append(rng.choice(("//", "// c", "$", "#", "occurs-in")))
    return "".join(parts)


def _staff_net(size, last="out(Bob, Copy, c)@Archive . 0"):
    entries = [f"S{k} ::[true] read(Bob, Notes, !c)@EHDB . "
               "out(Bob, Copy, c)@Archive . 0" for k in range(size - 1)]
    entries.append(f"S{size - 1} ::[true] read(Bob, Notes, !c)@EHDB . {last}")
    return "\r\n|| ".join(entries)


# Sources the random pieces do not reach: \r\n line ends, form feeds and
# vertical tabs (stray characters), a trailing comment with no final
# newline, blanks at the end of the last line, and long networks.
LEX_EDGES = ("A ::[true] <a, b>\r\n|| B ::[true] 0\r\n",
             "A ::[true]\f<a>\v|| B\f::[true] 0",
             "A ::[true] <a> // one\n|| B ::[true] 0 // no final newline",
             "A ::[true] <a>\n|| B ::[true] 0 \t \r",
             "A ::[true] <a>\r\n  // last\r\n  \t",
             "//\r\n\r\n  // c\r", "\r\n", " \t\r\n\f",
             _staff_net(200), _staff_net(200, "out(Bob, Copy, c)@ . 0 // x"))


def _lexed(text):
    diags = []
    kinds, texts = _lex(text, diags)
    spots = _positions(text)
    assert len(spots) == len(kinds) == len(texts), repr(text)
    return [(k, t, *at) for k, t, at in zip(kinds, texts, spots)], diags


def _reference_lexed(text):
    diags = []
    return reference_lex(text, diags), diags


def test_lexer_agrees_with_the_reference():
    golden = Path(__file__).resolve().parent / "golden" / "diagnostics.json"
    texts = [f.read_text() for f in corpus_path("eq1.obl").parent.iterdir()
             if f.suffix in (".akbl", ".obl")]
    texts += [case.get("net", case.get("obligation"))
              for case in json.loads(golden.read_text()).values()]
    rng = random.Random(9)
    texts += [_random_source(rng) for _ in range(20000)]
    texts += LEX_EDGES
    for text in texts:
        assert _lexed(text) == _reference_lexed(text), repr(text)


def test_a_parse_error_in_the_last_of_200_entries_is_placed_by_the_reference():
    src = _staff_net(200, "out(Bob, Copy, c)@ . 0 // x")
    with pytest.raises(ParseError) as err:
        parse_net(src)
    [d] = err.value.diagnostics
    dot = reference_lex(src, [])[-3]        # @ . 0 end of input
    assert (d.message, d.line, d.col) == ("expected a term", 200, dot.col)
    assert dot.text == "." and dot.line == 200


# The guard of example1_policies' EHDB store.
STORE_ASPECT = ("[test(Doctor, #u)@ROLES if #u :: read(_, #type, _, _, _)@EHDB"
                " . X : #type = PrivateNotes]")


STAFF_BODY = "read(Bob, Notes, !c)@EHDB . out(Bob, Copy, c)@Archive . 0"


def _store_net(size, policy=STORE_ASPECT, body=STAFF_BODY):
    """size look-alike entries at EHDB under the store's aspect, records
    and a staff process in turn, then a process with the policy and
    body given."""
    entries = [f"EHDB ::[{STORE_ASPECT}] " + (
        STAFF_BODY if k % 2 else f"<R{k}, PrivateNotes, O{k}, Recent, t>")
        for k in range(size - 1)]
    entries.append(f"EHDB ::[{policy}] {body}")
    return "\n|| ".join(entries)


def _one_at_a_time(parts):
    """The canonical net of the entries of parts, each parsed alone, so
    that no body is shared between them."""
    return canonicalize(Net(tuple(e for part in parts
                                  for e in parse_net(part).entries)))


def _sharing_cases():
    """Entry texts: each corpus net, as written, and 300 seeds of each
    generator, as rendered; each as it is, with every entry written
    twice, and with its process entries copied to fresh locations."""
    sources = [re.sub("//.*", "", corpus_text(name)).split("||")
               for name in NET_FILES]
    for family in (gen.gen_net, gen.gen_small_net, gen.gen_ward_net,
                   gen.gen_guarded_net):
        for seed in range(300):
            net = family(random.Random(seed))
            sources.append([render_entry(e) for e in net.entries])
    for parts in sources:
        yield parts
        yield [part for part in parts for _ in (0, 1)]
        copies = [re.sub(r"^\s*\w+", f"Copy{k}", part, count=1)
                  for k, part in enumerate(parts)
                  if not parse_net(part).entries[0].is_data()]
        yield parts + copies


def test_shared_bodies_give_the_net_of_separate_parses():
    cases = 0
    for parts in _sharing_cases():
        net = parse_net("\n|| ".join(parts))
        alone = _one_at_a_time(parts)
        assert net == alone, parts
        assert render_net(net) == render_net(alone), parts
        cases += 1
    assert cases == 3 * (len(NET_FILES) + 4 * 300)


def test_repeated_bodies_are_one_node():
    net = parse_net(_staff_net(50))
    assert len(net.entries) == 50
    assert len({id(e.body) for e in net.entries}) == 1
    store = parse_net(_store_net(20))
    assert len(store.entries) == 20
    assert len({id(e.body) for e in store.entries if not e.is_data()}) == 1


@pytest.mark.parametrize("first, second", [
    ("true", "true oplus false"),
    ("true oplus false", "true"),
    (STORE_ASPECT, f"{STORE_ASPECT} oplus {STORE_ASPECT}"),
    (f"{STORE_ASPECT} oplus {STORE_ASPECT}", STORE_ASPECT)],
    ids=["true", "true-first", "aspect", "aspect-first"])
def test_a_policy_that_extends_the_first_at_its_location_is_parsed(first,
                                                                    second):
    net = parse_net(f"A ::[{first}] <a> || A ::[{second}] <b>")
    assert [e.policy for e in net.entries] == [parse_policy(first),
                                              parse_policy(second)]
    assert [d.message for d in validate(net)] == [
        "location A carries inconsistent policies"]


@pytest.mark.parametrize("policy, body, after, message", [
    (f"{STORE_ASPECT} oplus", STAFF_BODY, "oplus", "expected a policy"),
    (STORE_ASPECT[:-1], STAFF_BODY, "]", "expected ], found 'read'"),
    (STORE_ASPECT, STAFF_BODY.replace("@Archive", "@"), "@",
     "expected a term"),
    (STORE_ASPECT, STAFF_BODY[:-1] + "*", "*", "expected a process")],
    ids=["policy-operand", "policy-bracket", "body", "body-end"])
def test_a_parse_error_in_the_last_of_200_look_alike_entries_is_placed(
        policy, body, after, message):
    """The error is at the token after the last `after`, as the
    reference lexer places it."""
    src = _store_net(200, policy, body)
    with pytest.raises(ParseError) as err:
        parse_net(src)
    [d] = err.value.diagnostics
    toks = reference_lex(src, [])
    at = toks[max(i for i, t in enumerate(toks) if t.text == after) + 1]
    assert (d.message, d.line, d.col) == (message, at.line, at.col)
    assert at.line == 200


def test_a_chain_of_one_operator_renders_in_a_loop():
    # the parser reads a run of implies, which is right-associative,
    # at a frame per operator, so that run is the shorter
    for op, operands in (("oplus", 3000), ("implies", 600)):
        ops = f" {op} ".join(["true"] * operands)
        assert render_expr(parse_policy(ops)) == ops
    obl = "AG [$u : o(_)@A] " + " and ".join(["test(a)@A"] * 3000)
    assert render_obligation(parse_obligation(obl)) == obl


def test_a_process_renders_without_a_memo_as_the_plain_renderer():
    nets = [parse_net(corpus_text(name)) for name in NET_FILES]
    for seed in range(300):
        nets += [gen.gen_net(random.Random(seed)),
                 gen.gen_small_net(random.Random(seed))]
    for net in nets:
        for e in net.entries:
            assert render_entry(e) == oracles.plain_entry_text(e)
    # a chain renders in time linear in its length, and in no frame per
    # prefix; the plain renderer takes a frame per prefix
    chain = NIL
    for i in reversed(range(4000)):
        chain = Sum(((Action("out", (Const(f"k{i}"), Const("v")),
                             Const("B")), chain),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 15000)
    try:
        want = oracles.plain_process_text(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert render_process(chain) == render_process(chain, True) == want
    assert want.count(" . ") == 4000


def test_grammar_documents_every_term_position():
    grammar = Path(__file__).resolve().parents[1] / "docs" / "grammar.md"
    table = grammar.read_text().split("## Terms by position")[1]
    table = table.split("\n## ")[0]
    rows = [line.split("|")[1].strip() for line in table.splitlines()
            if line.startswith("| ") and not line.startswith("| Position")]
    assert rows == list(_TERMS)
