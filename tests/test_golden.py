"""Byte-for-byte comparison of command line output with stored goldens.

The goldens under tests/golden/ hold the exit code, stdout and stderr
of `akbl` runs on the bundled corpus, on seeded generated networks, on
seeded token-level mutations of the corpus files and on every kind of
token in every term position, so any change to exploration order,
state numbering, witnesses, export formats or the parser's diagnostics
shows up as a difference here.

Regenerate them, only when an output change is intended, with

    PYTHONPATH=src:tests python tests/test_golden.py
"""
import contextlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from aspectkbl import Net, NetEntry, corpus_path, render_net, render_obligation
from aspectkbl.cli import main
from aspectkbl.parser import _TERMS
import gen

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = corpus_path("")
NETS = sorted(p.name for p in CORPUS.iterdir() if p.name.endswith(".akbl"))
OBLS = sorted(p.name for p in CORPUS.iterdir() if p.name.endswith(".obl"))
GEN_SEEDS = range(50)
WIDE_SEEDS = range(50, 70)      # each with extra processes: larger spaces
STATIC_SEEDS = range(1000, 1400)
# networks whose policies test changing tuples, with obligations drawn
# from their own actions and data: constraints and value sets of more
# than one value
STATIC_FAMILY_SEEDS = range(150)
# the certifier's own output: JSON with the abstract policy values, and text
STATIC_MODES = {
    "json": ["--mode", "static", "--json", "--explain-denied"],
    "text": ["--mode", "static", "--explain-denied"],
}
# token-level mutations of each corpus file, checked with --mode static
# (which explores no state) to pin the parser's diagnostics
DIAG_SEEDS = range(24)
DIAG_NET, DIAG_OBL = "tiny_with_policies.akbl", "eq1.obl"
DIAG_POOL = ("out", "in", "read", "test", "AG", "forall", "exists", "true",
             "false", "not", "and", "or", "oplus", "otimes", "implies",
             "pref", "if", "occurs-in", "||", "::", ">=", "|", "+", "*", ":",
             ".", ",", "(", ")", "<", ">", "[", "]", "@", "!", "_", "=", "'",
             "$x", "#x", "0")
# every position a term can take, with {} where the term goes, each
# filled with every kind of token, to pin what each position reads and
# every message it gives.  Cuts bind #x and label patterns $u, so a #x
# in an aspect is bound and a $x in a predicate is not, except under
# the quantifier.
TERM_NETS = {
    "data field": "A ::[true] <{}>",
    "second data field": "A ::[true] <k, {}>",
    "out argument": "A ::[true] out({})@A . 0",
    "second out argument": "A ::[true] out(k, {})@A . 0",
    "in argument": "A ::[true] in({})@A . 0",
    "out argument in the scope of !x": "A ::[true] read(!x)@A . out({})@A . 0",
    "process target": "A ::[true] out(k)@{} . 0",
    "cut subject": "A ::[[true if {} :: out(k)@A . X : true]] <k>",
    "cut out argument": "A ::[[true if #x :: out({})@A . X : true]] <k>",
    "cut in argument": "A ::[[true if #x :: in({})@A . X : true]] <k>",
    "cut target": "A ::[[true if #x :: out(k)@{} . X : true]] <k>",
    "comparison": "A ::[[{} = k if #x :: out(k)@A . X : true]] <k>",
    "test argument": "A ::[[true if #x :: out(k)@A . X : test({})@A]] <k>",
    "test target": "A ::[[true if #x :: out(k)@A . X : test(k)@{}]] <k>",
    "occurs-in out argument":
        "A ::[[out({})@A occurs-in X if #x :: out(k)@A . X : true]] <k>",
    "occurs-in in argument":
        "A ::[[in({})@A occurs-in X if #x :: out(k)@A . X : true]] <k>",
    "occurs-in target":
        "A ::[[out(k)@{} occurs-in X if #x :: out(k)@A . X : true]] <k>",
}
TERM_OBLS = {
    "label subject": "AG [{} : o(k)@A] true",
    "label argument": "AG [$u : o({})@A] true",
    "label target": "AG [$u : o(k)@{}] true",
    "predicate comparison": "AG [$u : o(k)@A] {} = k",
    "predicate comparison under forall $x":
        "AG [$u : o(k)@A] forall $x : {} >= 1",
    "test' argument": "AG [$u : o(k)@A] test'({})@A",
    "predicate test target": "AG [$u : o(k)@A] test(k)@{}",
}
TERM_TOKENS = {"name": "x", "number": "7", "keyword": "AG", "$x": "$x",
               "#x": "#x", "_": "_", "!x": "!x", ")": ")",
               "end of input": None}
_TOKEN = re.compile(r"//[^\n]*|occurs-in|[$#]?\w+|\|\||::|>=|\S")


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _corpus(name) -> str:
    return str(CORPUS / name)


def _lts_cases():
    return {n: _run(["lts", _corpus(n), "--json"]) for n in NETS}


def _dot_cases():
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        dot = Path(tmp) / "lts.dot"
        for n in NETS:
            case = _run(["lts", _corpus(n), "--dot", str(dot)])
            case["dot"] = dot.read_text()
            cases[n] = case
    return cases


def _check_cases():
    return {f"{n} {o}": _run(["check", _corpus(n), _corpus(o),
                              "--mode", "exhaustive", "--json"])
            for n in NETS if n.startswith("example") for o in OBLS}


def _trace_cases():
    return {f"{n} seed {s}": _run(["trace", _corpus(n), "--seed", str(s),
                                   "--explain-denied"])
            for n in NETS for s in range(3)}


def _widen(rng, net):
    pols = {e.location: e.policy for e in net.entries}
    locs = sorted(pols)
    extra = []
    for _ in range(rng.randint(3, 5)):
        loc = rng.choice(locs)
        proc = gen.gen_small_process(rng, locs)
        extra.append(NetEntry(loc, pols[loc], proc))
    return Net(net.entries + tuple(extra))


def _generated_inputs():
    for seed in [*GEN_SEEDS, *WIDE_SEEDS]:
        rng = random.Random(seed)
        net = gen.gen_small_net(rng)
        if seed in WIDE_SEEDS:
            net = _widen(rng, net)
        obl = gen.gen_obligation_for(rng, net)
        yield f"seed {seed}", render_net(net), render_obligation(obl)


def _generated_cases(inputs):
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        net_file, obl_file = Path(tmp) / "net.akbl", Path(tmp) / "obl.obl"
        for name, net_text, obl_text in inputs:
            net_file.write_text(net_text)
            obl_file.write_text(obl_text)
            cases[name] = {
                "net": net_text,
                "obligation": obl_text,
                "lts": _run(["lts", str(net_file), "--json"]),
                "check": _run(["check", str(net_file), str(obl_file),
                               "--mode", "exhaustive", "--json"]),
            }
    return cases


def _static_runs(net_file, obl_file) -> dict:
    return {mode: _run(["check", str(net_file), str(obl_file), *flags])
            for mode, flags in STATIC_MODES.items()}


def _static_inputs():
    for seed in STATIC_SEEDS:
        rng = random.Random(seed)
        net = gen.gen_small_net(rng)
        obl = gen.gen_obligation_for(rng, net)
        yield f"seed {seed}", render_net(net), render_obligation(obl)
    for family in (gen.gen_guarded_net, gen.gen_ward_net):
        for seed in STATIC_FAMILY_SEEDS:
            rng = random.Random(seed)
            net = family(rng)
            obl = gen.gen_obligation_from_net(rng, net)
            yield (f"{family.__name__} seed {seed}", render_net(net),
                   render_obligation(obl))


def _static_cases(inputs):
    cases = {f"{n} {o}": _static_runs(_corpus(n), _corpus(o))
             for n in NETS for o in OBLS}
    with tempfile.TemporaryDirectory() as tmp:
        net_file, obl_file = Path(tmp) / "net.akbl", Path(tmp) / "obl.obl"
        for name, net_text, obl_text in inputs:
            net_file.write_text(net_text)
            obl_file.write_text(obl_text)
            cases[name] = {"net": net_text, "obligation": obl_text,
                           **_static_runs(net_file, obl_file)}
    return cases


def _mutate(rng, text):
    """Delete, duplicate, swap or replace one token of the text."""
    spans = [m.span() for m in _TOKEN.finditer(text)
             if not m.group().startswith("//")]
    op = rng.choice(("delete", "duplicate", "swap", "replace"))
    i = rng.randrange(len(spans) - (op == "swap"))
    (a, b), tok = spans[i], text[slice(*spans[i])]
    if op == "delete":
        return op, text[:a] + text[b:]
    if op == "duplicate":
        return op, text[:b] + " " + tok + text[b:]
    if op == "swap":
        c, d = spans[i + 1]
        return op, text[:a] + text[c:d] + text[b:c] + tok + text[d:]
    return op, text[:a] + rng.choice(DIAG_POOL) + text[b:]


def _diagnostic_inputs():
    for name in [*NETS, *OBLS]:
        for seed in DIAG_SEEDS:
            op, text = _mutate(random.Random(seed),
                               (CORPUS / name).read_text())
            yield f"{name} seed {seed} {op}", name.endswith(".akbl"), text


def _diagnostic_cases(inputs):
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "mutated"
        for name, is_net, text in inputs:
            mutated.write_text(text)
            files = ((str(mutated), _corpus(DIAG_OBL)) if is_net
                     else (_corpus(DIAG_NET), str(mutated)))
            key = "net" if is_net else "obligation"
            cases[name] = {key: text, **_run(["check", *files,
                                              "--mode", "static"])}
    return cases


def _term_inputs():
    for is_net, positions in ((True, TERM_NETS), (False, TERM_OBLS)):
        for position, template in positions.items():
            for kind, token in TERM_TOKENS.items():
                text = (template.format(token) if token is not None
                        else template[:template.index("{}")])
                yield f"{position}: {kind}", is_net, text + "\n"


KINDS = {
    "lts": _lts_cases,
    "dot": _dot_cases,
    "check": _check_cases,
    "trace": _trace_cases,
    "generated": lambda: _generated_cases(_generated_inputs()),
    "static": lambda: _static_cases(_static_inputs()),
    "diagnostics": lambda: _diagnostic_cases(_diagnostic_inputs()),
    "terms": lambda: _diagnostic_cases(_term_inputs()),
}


def _load(kind) -> dict:
    return json.loads((GOLDEN / f"{kind}.json").read_text())


def _assert_matches(kind, got):
    want = _load(kind)
    assert sorted(got) == sorted(want)
    differ = [name for name in sorted(want) if got[name] != want[name]]
    assert not differ, f"{kind} output differs from the golden for {differ}"


def test_lts_json_matches_golden():
    _assert_matches("lts", _lts_cases())


def test_dot_export_matches_golden():
    _assert_matches("dot", _dot_cases())


def test_exhaustive_check_matches_golden():
    _assert_matches("check", _check_cases())


def test_trace_matches_golden():
    _assert_matches("trace", _trace_cases())


def test_generated_networks_match_golden():
    # the stored network texts are the inputs, so a later change to
    # the generators cannot move the goldens
    want = _load("generated")
    inputs = [(name, case["net"], case["obligation"])
              for name, case in want.items()]
    _assert_matches("generated", _generated_cases(inputs))


def test_static_certifier_matches_golden():
    want = _load("static")
    inputs = [(name, case["net"], case["obligation"])
              for name, case in want.items() if "net" in case]
    _assert_matches("static", _static_cases(inputs))


def test_parser_diagnostics_match_golden():
    want = _load("diagnostics")
    inputs = [(name, "net" in case, case.get("net", case.get("obligation")))
              for name, case in want.items()]
    assert len(inputs) >= 200
    _assert_matches("diagnostics", _diagnostic_cases(inputs))


def test_every_term_position_matches_golden():
    _assert_matches("terms", _diagnostic_cases(_term_inputs()))


def test_every_message_of_the_term_table_is_in_the_golden():
    errors = "".join(case["stderr"] for case in _load("terms").values())
    for row in _TERMS.values():
        for message in {row.other, *row.rejects.values()}:
            # {} stands for a token's text, {!r} for it quoted
            pattern = (re.escape(message).replace(r"\{!r\}", "'[^']+'")
                       .replace(r"\{\}", r"\S+"))
            assert re.search(pattern, errors), message


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for kind, make in KINDS.items():
        text = json.dumps(make(), indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{kind}.json").write_text(text)
        print(f"wrote {GOLDEN / kind}.json", file=sys.stderr)
