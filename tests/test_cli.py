"""The akbl command line: exit codes, output contracts, determinism."""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import aspectkbl
from aspectkbl import (build_lts, check_network, cli, exhaustive,
                       json_export, parse_net, parse_obligation, render_net,
                       render_obligation, report_json, semantics)
from aspectkbl.cli import main
import corpusio
import gen

WITH = corpusio.path("tiny_with_policies.akbl")
WITHOUT = corpusio.path("tiny_no_policies.akbl")
EQ1 = corpusio.path("eq1.obl")


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_check_modes_and_exit_codes(capsys):
    rc, out, _ = run(capsys, "check", WITH, EQ1, "--mode", "exhaustive")
    assert rc == 0
    assert "holds: yes (2 states, 1 transitions checked)" in out

    rc, out, _ = run(capsys, "check", WITH, EQ1, "--mode", "static")
    assert rc == 0
    assert "certified: yes" in out

    rc, out, _ = run(capsys, "check", WITHOUT, EQ1, "--mode", "exhaustive")
    assert rc == 1
    assert "holds: no" in out
    assert "failing step: Olsen:r(Bob,PrivateNotes,bobtext)@EHDB" in out
    assert "unsatisfied: test(Doctor, Olsen)@ROLES" in out

    # the static route alone gives up on the open store
    rc, out, _ = run(capsys, "check", WITHOUT, EQ1, "--mode", "static")
    assert rc == 2
    assert "certified: no" in out
    assert "NotCertified" in out


def test_check_auto_falls_back_to_exploration(capsys):
    rc, out, _ = run(capsys, "check", WITHOUT, EQ1)
    assert rc == 1
    # both phases are reported
    assert "certified: no" in out
    assert "counterexample:" in out
    assert "failing step: Olsen:r(Bob,PrivateNotes,bobtext)@EHDB" in out

    rc, out, _ = run(capsys, "check", WITH, EQ1)
    assert rc == 0
    assert "certified: yes" in out
    assert "holds:" not in out          # no exploration was needed


def test_check_certifies_once(capsys, monkeypatch):
    # auto mode hands its verdict to the reduced search; exhaustive mode
    # has none, and the reduction certifies
    calls = []

    def counted(net, obl):
        calls.append(obl)
        return check_network(net, obl)

    monkeypatch.setattr(cli, "check_network", counted)
    monkeypatch.setattr(exhaustive, "check_network", counted)
    for mode in ("auto", "exhaustive"):
        calls.clear()
        rc, out, _ = run(capsys, "check", WITHOUT, EQ1, "--mode", mode)
        assert rc == 1 and "holds: no" in out
        assert len(calls) == 1, mode


def test_a_counterexample_numbers_its_steps(capsys, tmp_path):
    net = tmp_path / "net.akbl"
    net.write_text("P ::[true] out(a)@R . out(c)@R . out(b)@R . 0"
                   " || R ::[true] <x>\n")
    obl = tmp_path / "obl.obl"
    obl.write_text("AG [$u : o(b)@R] test(d)@R\n")
    rc, out, _ = run(capsys, "check", str(net), str(obl))
    assert rc == 1
    assert out.split("holds: no\n")[1] == (
        "counterexample:\n"
        "  1. P:o(a)@R\n"
        "  2. P:o(c)@R\n"
        "failing step: P:o(b)@R\n"
        "with [$u=P]\n"
        "unsatisfied: test(d)@R\n")


def test_check_static_explanations(capsys):
    rc, out, _ = run(capsys, "check", WITH, EQ1, "--mode", "static",
                     "--explain-denied")
    assert rc == 0
    lines = out.splitlines()
    assert "CertifiedByEntailment Hansen: read(Bob, PrivateNotes, !content)@EHDB" in lines
    assert "  with [$u=Hansen]" in lines
    assert "  constraints: test(Doctor, Hansen)@ROLES" in lines
    assert "  source may evaluate to {bot}, target to {tt}" in lines
    assert "CertifiedDenied Olsen: read(Bob, PrivateNotes, !content)@EHDB" in lines
    assert "  source may evaluate to {tt}, target to {ff}" in lines


def test_check_json_shapes(capsys):
    rc, out, _ = run(capsys, "check", WITH, EQ1, "--mode", "static", "--json")
    doc = json.loads(out)
    assert rc == 0 and doc["certified"] is True

    rc, out, _ = run(capsys, "check", WITHOUT, EQ1, "--json")
    doc = json.loads(out)
    assert rc == 1
    assert doc["static"]["certified"] is False
    ex = doc["exhaustive"]
    assert ex["holds"] is False
    assert ex["witness"]["label"] == "Olsen:r(Bob,PrivateNotes,bobtext)@EHDB"
    assert ex["witness"]["path"] == []

    rc, out, _ = run(capsys, "check", WITH, EQ1, "--mode", "exhaustive",
                     "--json")
    doc = json.loads(out)
    assert rc == 0 and doc["holds"] is True and "witness" not in doc


def _json_layouts(capsys, net_path, obl_path) -> bool:
    """Check that both --json layouts of `check` print what json.dumps
    prints for the documents the library builds: the static report
    (--mode static, and --mode auto on a certified pair) and, on a pair
    the certifier leaves open, {"exhaustive", "static"}.  True when the
    pair was left open."""
    net = parse_net(Path(net_path).read_text())
    obl = parse_obligation(Path(obl_path).read_text())
    static = check_network(net, obl)
    fallback = None if static.certified else \
        cli._verdict_json(exhaustive.sat_obl(net, obl, static=static))
    for explain in ([], ["--explain-denied"]):
        doc = report_json(static, bool(explain))
        argv = ["check", str(net_path), str(obl_path), "--json", *explain]
        _, out, _ = run(capsys, *argv, "--mode", "static")
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if fallback is not None:
            doc = {"static": doc, "exhaustive": fallback}
        _, out, _ = run(capsys, *argv)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return fallback is not None


def test_both_json_layouts_are_the_documents_json_dumps_prints(capsys,
                                                               tmp_path):
    # no golden pins --mode static --json without --explain-denied, nor
    # the fallback document of --mode auto --json
    left_open = 0
    for n in corpusio.names(".akbl"):
        for o in corpusio.names(".obl"):
            left_open += _json_layouts(capsys, corpusio.path(n),
                                       corpusio.path(o))
    pairs = 0
    net_path, obl_path = tmp_path / "net.akbl", tmp_path / "obl.obl"
    for seed in range(250):
        rng = random.Random(seed)
        net = gen.gen_role_net(rng)
        obl = gen.gen_role_obligation(rng, net)
        # numerals at locations are built, not parsed, and the explorer
        # rejects >= on other names
        if any(e.location.isdigit() for e in net.entries) \
                or ">=" in render_obligation(obl):
            continue
        net_path.write_text(render_net(net))
        obl_path.write_text(render_obligation(obl))
        left_open += _json_layouts(capsys, net_path, obl_path)
        pairs += 1
    assert pairs >= 100 and left_open >= 80      # 138 and 99


def test_json_output_is_reproducible(capsys):
    first = run(capsys, "check", WITHOUT, EQ1, "--json")
    second = run(capsys, "check", WITHOUT, EQ1, "--json")
    assert first == second
    third = run(capsys, "lts", WITHOUT, "--json")
    fourth = run(capsys, "lts", WITHOUT, "--json")
    assert third == fourth


def _ward(staff: int) -> str:
    # every other member of staff a nurse, and nothing changes roles
    store = ("[[test(Doctor, #u)@ROLES if #u :: "
             "read(_, PrivateNotes, _)@EHDB . X : true]]")
    entries = [f"EHDB ::{store} <Bob, PrivateNotes, notes>",
               "Archive ::[true] <Index, idx>"]
    for n in range(staff):
        entries += [f"ROLES ::[true] <{('Doctor', 'Nurse')[n % 2]}, S{n}>",
                    f"S{n} ::[true] read(Bob, PrivateNotes, !c)@EHDB . "
                    f"out(Bob, Copy, c)@Archive . 0"]
    return "\n|| ".join(entries) + "\n"


def test_exhaustive_check_takes_independent_steps_one_order(capsys, tmp_path):
    # the ten doctors' steps are independent of each other and none can
    # violate the obligation, so one order of them is searched: 21
    # states where the whole transition system has 3^10
    ward = tmp_path / "ward.akbl"
    ward.write_text(_ward(20))
    rc, out, _ = run(capsys, "check", str(ward), EQ1, "--mode", "exhaustive",
                     "--json")
    doc = json.loads(out)
    assert rc == 0 and doc["holds"] is True
    assert doc["states_explored"] <= 41


def test_violation_beyond_the_state_budget_of_the_whole_system(capsys,
                                                                tmp_path):
    # the first step violates; the whole transition system has 64 states
    net = tmp_path / "net.akbl"
    net.write_text("A ::[true] out(bad)@S . 0\n|| "
                   + "\n|| ".join(f"B{i} ::[true] out(k)@S . 0"
                                  for i in range(5))
                   + "\n|| S ::[true] <s>\n")
    obl = tmp_path / "bad.obl"
    obl.write_text("AG [$u : o(bad)@S] false\n")
    rc, _, err = run(capsys, "lts", str(net), "--max-states", "10")
    assert rc == 3 and "limit" in err
    for mode in ("exhaustive", "auto"):
        rc, out, _ = run(capsys, "check", str(net), str(obl), "--mode", mode,
                         "--max-states", "10")
        assert rc == 1
        assert "failing step: A:o(bad)@S" in out


def test_lts_summary_exports_and_limits(capsys, tmp_path):
    rc, out, _ = run(capsys, "lts", WITHOUT)
    assert rc == 0
    assert out == "states: 6\ntransitions: 7\n"

    rc, out, _ = run(capsys, "lts", WITH)
    assert out == "states: 2\ntransitions: 1\n"

    dot_file = tmp_path / "tiny.dot"
    rc, out, _ = run(capsys, "lts", WITHOUT, "--dot", str(dot_file))
    text = dot_file.read_text()
    assert text.startswith("digraph lts {")
    assert text.count("->") == 7
    assert text.count("doublecircle") == 1

    rc, _, err = run(capsys, "lts", WITHOUT, "--max-states", "2")
    assert rc == 3
    assert "limit" in err

    data_only = tmp_path / "data.akbl"
    data_only.write_text("Shelf ::[true] <a, b>\n")
    rc, out, _ = run(capsys, "lts", str(data_only), "--json")
    doc = json.loads(out)
    assert len(doc["states"]) == 1 and doc["transitions"] == []


def test_trace_is_seeded_and_reproducible(capsys):
    rc, out, _ = run(capsys, "trace", WITHOUT, "--seed", "1")
    assert rc == 0
    labels = out.splitlines()
    assert labels[:3] == ["Hansen:r(Bob,PrivateNotes,bobtext)@EHDB",
                          "Hansen:o(Bob,PrivateNotes,bobtext)@Olsen",
                          "Olsen:r(Bob,PrivateNotes,bobtext)@EHDB"]
    assert labels[3].startswith("final: ")

    again = run(capsys, "trace", WITHOUT, "--seed", "1")
    assert (rc, out, "") == again

    different = any(run(capsys, "trace", WITHOUT, "--seed", str(s))[1] != out
                    for s in range(8))
    assert different

    rc, short, _ = run(capsys, "trace", WITHOUT, "--seed", "1",
                       "--max-depth", "2")
    assert rc == 0
    assert short.splitlines()[:2] == labels[:2]
    assert short.splitlines()[2].startswith("final: ")


def test_trace_reports_denials(capsys):
    rc, out, _ = run(capsys, "trace", WITH, "--seed", "0",
                     "--explain-denied")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "blocked: Olsen:r(Bob,PrivateNotes,bobtext)@EHDB (top)"
    assert lines[1] == "Hansen:r(Bob,PrivateNotes,bobtext)@EHDB"
    assert "blocked: Hansen:o(Bob,PrivateNotes,bobtext)@Olsen (top)" in lines
    # one granted step, then the run is stuck
    assert sum(1 for l in lines if not l.startswith(("blocked:", "final:"))) == 1


def test_trace_on_a_still_network(capsys, tmp_path):
    still = tmp_path / "still.akbl"
    still.write_text("Shelf ::[true] <a>\n")
    rc, out, _ = run(capsys, "trace", str(still))
    assert rc == 0
    assert out == "final: Shelf ::[true] <a>\n"


def test_input_errors_exit_three(capsys, tmp_path):
    rc, _, err = run(capsys, "check", "no_such.akbl", EQ1)
    assert rc == 3 and "no such file" in err

    bad = tmp_path / "bad.akbl"
    bad.write_text("A ::[true out(k)@B . 0\n")
    rc, _, err = run(capsys, "check", str(bad), EQ1)
    assert rc == 3 and "error:" in err and "1:11" in err

    looping = tmp_path / "loop.akbl"
    looping.write_text("A ::[true] *(out(k)@A . in(k)@A . 0)\n")
    for argv in (("check", str(looping), EQ1), ("lts", str(looping)),
                 ("trace", str(looping))):
        rc, _, err = run(capsys, *argv)
        assert rc == 3
        assert "replication at A is outside the checkable fragment" in err

    mixed = tmp_path / "mixed.akbl"
    mixed.write_text("A ::[true] <k> || A ::[false] <v>\n")
    rc, _, err = run(capsys, "lts", str(mixed))
    assert rc == 3
    assert "location A carries inconsistent policies" in err

    # an evaluation error names the source text: the read binds $u to
    # the reader, which is no numeral
    net, obl = tmp_path / "reader.akbl", tmp_path / "geq.obl"
    net.write_text("Bo ::[true] read(Notes, !c)@Store . 0\n"
                   "|| Store ::[true] <Notes, x>\n")
    obl.write_text("AG [$u : r(Notes, _)@Store] $u >= 3\n")
    for mode in ("auto", "exhaustive"):
        rc, _, err = run(capsys, "check", str(net), str(obl), "--mode", mode)
        assert (rc, err) == (3, "error: not a numeric constant: Bo\n"), mode
    rc, _, _ = run(capsys, "check", str(net), str(obl), "--mode", "static")
    assert rc == 2


@pytest.mark.parametrize("text, err", [
    ("A ::[[test(k)@#v if #u :: out(k)@A . X : true]] out(k)@A . 0",
     "1:6: error: #v is not bound by the cut"),
    ("A ::[[true if #u :: out(k)@A . X : true oplus true]] out(k)@A . 0",
     "1:6: error: operator oplus is not allowed in a condition"),
    # the lexer's diagnostic, after a net that otherwise parses
    ("A ::[true] out(k)@A . 0 ~", "1:25: error: stray character '~'"),
])
def test_rejected_nets_name_the_position(capsys, tmp_path, text, err):
    net = tmp_path / "net.akbl"
    net.write_text(text + "\n")
    assert run(capsys, "check", str(net), EQ1) == (3, "", err + "\n")


def test_non_ascii_input_is_a_positioned_error(capsys, tmp_path):
    # input is ASCII: a digit or letter beyond it is a stray character,
    # never a number or a name, in every mode
    obl = tmp_path / "geq.obl"
    obl.write_text("AG [A : o(K, $v)@A] $v >= 1\n")
    net = tmp_path / "net.akbl"
    for char in ("\u00b2", "\u00e9"):
        net.write_text(f"A ::[true] out(K, {char})@A . 0\n", encoding="utf-8")
        for mode in ("static", "exhaustive", "auto"):
            rc, out, err = run(capsys, "check", str(net), str(obl),
                               "--mode", mode)
            assert rc == 3 and out == "", (char, mode)
            assert err.startswith(f"1:19: error: stray character '{char}'")
            assert "internal error" not in err


def test_unreadable_files_exit_three(capsys, tmp_path):
    # a file that is no UTF-8 text, or a directory, is bad input named
    # in one line, never an internal error
    latin = tmp_path / "latin.akbl"
    latin.write_bytes("A ::[true] <caf\u00e9>\n".encode("latin-1"))
    obl = tmp_path / "latin.obl"
    obl.write_bytes(b"AG [$u : o(\xff)@A] true\n")
    for argv, path in ((("check", str(latin), EQ1), latin),
                       (("check", WITH, str(obl)), obl),
                       (("check", str(tmp_path), EQ1), tmp_path),
                       (("trace", str(tmp_path)), tmp_path),
                       (("lts", WITH, "--dot", str(tmp_path)), tmp_path)):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == "", argv
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_usage_errors_exit_three_and_help_exits_zero(capsys):
    # exit 2 means "the static certifier could not decide", never a usage error
    for argv in (("check", WITH), ("check", WITH, EQ1, "--mode", "bogus"),
                 ("bogus",), ("trace", WITH, "--max-states", "5"), ()):
        rc, out, err = run(capsys, *argv)
        assert rc == 3, argv
        assert out == "" and "usage: akbl" in err and "error:" in err

    rc, out, err = run(capsys, "check", "--help")
    assert rc == 0 and out.startswith("usage: akbl check") and err == ""


def test_one_arg_parser_serves_successive_calls(capsys, monkeypatch):
    # main parses every call with the parser built at import; a fresh
    # parser per call must give the same exit codes and output
    calls = [("check", WITH, EQ1, "--mode", "static", "--json",
              "--explain-denied"),
             ("lts", WITH),
             ("trace", WITHOUT, "--seed", "3", "--explain-denied"),
             ("check", WITHOUT, EQ1, "--max-depth", "5"),
             ("lts", WITH, "--json", "--max-states", "1"),
             ("check", WITH, EQ1, "--mode", "bogus"),
             ("lts", WITH, "--mode", "static"),
             ("check", WITH, EQ1)]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "ARG_PARSER", cli.build_arg_parser())
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 1, 3, 3, 3, 0]
    # no option of one subcommand reaches the next
    args = vars(cli.ARG_PARSER.parse_args(["lts", WITH]))
    assert args == {"command": "lts", "net": WITH, "json": False,
                    "dot": None, "max_states": 100000, "max_depth": 10000,
                    "fn": cli.cmd_lts}


def test_a_200_prefix_chain_gets_a_verdict_on_the_default_stack(capsys,
                                                                tmp_path):
    chain = tmp_path / "chain.akbl"
    prefixes = " . ".join(f"out(k{i})@A" for i in range(200))
    chain.write_text(f"A ::[true] {prefixes} . 0\n")
    holds = tmp_path / "holds.obl"
    holds.write_text("AG [$u : o(_)@A] true")
    fails = tmp_path / "fails.obl"
    fails.write_text("AG [$u : o(k150)@A] false")
    for mode, obl, key, want in (
            ("static", holds, ("certified",), True),
            ("exhaustive", holds, ("holds",), True),
            ("auto", fails, ("exhaustive", "holds"), False),
            ("exhaustive", fails, ("holds",), False)):
        rc, out, err = run(capsys, "check", str(chain), str(obl), "--mode",
                           mode, "--json")
        assert (rc, err) == (0 if want else 1, ""), (mode, obl.name, err)
        doc = json.loads(out)
        for k in key:
            doc = doc[k]
        assert doc is want, (mode, obl.name)
    rc, out, err = run(capsys, "lts", str(chain), "--json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert (len(doc["states"]), len(doc["transitions"])) == (201, 200)


def test_a_400_prefix_chain_gets_a_verdict_and_its_lts(capsys, tmp_path):
    # rendering a process takes one frame per prefix, so `lts --json`
    # goes as deep as `check` on the default stack
    chain = tmp_path / "chain.akbl"
    prefixes = " . ".join(f"out(k{i})@A" for i in range(400))
    chain.write_text(f"A ::[true] {prefixes} . 0\n")
    holds = tmp_path / "holds.obl"
    holds.write_text("AG [$u : o(_)@A] true")
    rc, out, err = run(capsys, "check", str(chain), str(holds), "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["certified"] is True
    rc, out, err = run(capsys, "lts", str(chain), "--json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert (len(doc["states"]), len(doc["transitions"])) == (401, 400)
    assert doc["states"][0]["net"] == chain.read_text().strip()


def cli_env() -> dict:
    """The environment in which `python -m aspectkbl.cli` imports this
    package."""
    return {**os.environ,
            "PYTHONPATH": str(Path(aspectkbl.__file__).parents[1])}


def run_akbl(*argv):
    """Run akbl in a fresh interpreter, whose stack holds none of the
    test runner's frames."""
    proc = subprocess.run([sys.executable, "-m", "aspectkbl.cli",
                           *map(str, argv)], capture_output=True, text=True,
                          env=cli_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_900_prefix_chain_gets_a_verdict_and_its_lts(tmp_path):
    # counting replications and filling the constant and free-key memos
    # take at most one frame per prefix
    chain = tmp_path / "chain.akbl"
    prefixes = " . ".join(f"out(k{i})@A" for i in range(900))
    chain.write_text(f"A ::[true] {prefixes} . 0\n")
    holds = tmp_path / "holds.obl"
    holds.write_text("AG [$u : o(_)@A] true")
    rc, out, err = run_akbl("check", chain, holds, "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["certified"] is True
    rc, out, err = run_akbl("lts", chain, "--json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert (len(doc["states"]), len(doc["transitions"])) == (901, 900)
    assert doc["states"][0]["net"] == chain.read_text().strip()


def test_a_480_operand_policy_gets_a_verdict_and_its_lts(tmp_path):
    net = tmp_path / "wide.akbl"
    net.write_text(f"A ::[{' oplus '.join(['true'] * 480)}] out(k)@A . 0\n")
    holds = tmp_path / "holds.obl"
    holds.write_text("AG [$u : o(_)@A] true")
    rc, out, err = run_akbl("check", net, holds, "--json")
    assert (rc, err) == (0, "")
    rc, out, err = run_akbl("lts", net, "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["states"][0]["net"] == net.read_text().strip()


def test_a_600_operand_policy_gets_a_verdict(tmp_path):
    # the entry's sort key renders a node at one frame, a child's
    # __repr__ called directly
    net = tmp_path / "wide.akbl"
    net.write_text(f"A ::[{' oplus '.join(['true'] * 600)}] out(k)@A . 0\n")
    holds = tmp_path / "holds.obl"
    holds.write_text("AG [$u : o(k)@A] true")
    for mode in ("auto", "exhaustive"):
        rc, out, err = run_akbl("check", net, holds, "--mode", mode)
        assert (rc, err) == (0, ""), mode


@pytest.mark.parametrize("op", ["oplus", "implies"])
def test_a_600_operand_policy_gets_its_lts(tmp_path, op):
    # the renderer reads a run of one operator in a loop, down its left
    # or its right spine, so the LTS's text costs no frame per operator
    net = tmp_path / "wide.akbl"
    net.write_text(f"A ::[{f' {op} '.join(['true'] * 600)}] out(k)@A . 0\n")
    rc, out, err = run_akbl("lts", net, "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["states"][0]["net"] == net.read_text().strip()


def test_deep_inputs_never_read_as_a_verdict(capsys, tmp_path):
    # a 300-prefix chain is deeper than the recursive tree walkers go;
    # it gets a verdict or is rejected as bad input, in one line and
    # without a traceback
    chain = tmp_path / "chain.akbl"
    prefixes = " . ".join(f"out(k{i})@A" for i in range(300))
    chain.write_text(f"A ::[true] {prefixes} . 0\n")
    for argv in (("lts", str(chain)), ("check", str(chain), EQ1)):
        rc, _, err = run(capsys, *argv)
        assert rc in (0, 3), (argv, rc, err)
        assert rc == 0 or err == "error: input nested too deeply\n"
        assert "Traceback" not in err
        assert len(err.splitlines()) <= 1


def test_a_closed_stdout_exits_141_in_silence(tmp_path):
    # each output is several times a pipe's buffer, so the writer is
    # still writing when the reader closes the pipe after one line
    nine = tmp_path / "nine.akbl"
    nine.write_text("\n|| ".join(f"A ::[true] out(k{i})@A . 0"
                                  for i in range(9)))
    many = tmp_path / "many.akbl"
    many.write_text("\n|| ".join(f"A ::[true] out(k{i})@A . 0"
                                  for i in range(2000)))
    outs = tmp_path / "outs.obl"
    outs.write_text("AG [$u : o(_)@A] true")
    for argv in (("lts", nine, "--json"), ("check", many, outs, "--json")):
        with subprocess.Popen(
                [sys.executable, "-m", "aspectkbl.cli", *map(str, argv)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=cli_env()) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141, (argv, err)
        assert err == b"", argv


def _chains(tmp_path):
    """A net file whose `lts --json` document is written in many
    pieces, and its LTS."""
    path = tmp_path / "chains.akbl"
    path.write_text(gen.alternating_chains(30))
    return path, build_lts(parse_net(path.read_text()))


def test_lts_json_streams_the_exported_text(tmp_path):
    path, lts = _chains(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "aspectkbl.cli", "lts",
                           str(path), "--json"], capture_output=True,
                          env=cli_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (json_export(lts) + "\n").encode()
    # the `lts` document of the closed-stdout test is written in
    # several pieces too, so the reader closes the pipe between writes
    nine = parse_net("\n|| ".join(f"A ::[true] out(k{i})@A . 0"
                                  for i in range(9)))
    pieces = []
    json_export(build_lts(nine), pieces.append)
    assert len(pieces) > 2


def test_an_export_that_fails_writes_nothing(capsys, monkeypatch, tmp_path):
    # the last interned entry is first met in a late state, long after
    # the first piece of the document would be due
    path, lts = _chains(tmp_path)
    last, render = lts.space.entries[-1], semantics.render_entry

    def render_entry(entry, memo=None):
        if entry == last:
            raise ValueError("cannot render")
        return render(entry, memo)

    monkeypatch.setattr(semantics, "render_entry", render_entry)
    rc, out, err = run(capsys, "lts", str(path), "--json")
    assert (rc, out) == (4, "")
    assert err == "internal error: ValueError: cannot render\n"


def test_lts_json_exports_through_the_cli_name_once(capsys, monkeypatch):
    # perfbench's tracer times the export by wrapping `cli.json_export`
    calls = []

    def export(lts, write=None):
        calls.append(write)
        return json_export(lts, write)

    monkeypatch.setattr(cli, "json_export", export)
    rc, out, _ = run(capsys, "lts", WITHOUT, "--json")
    assert rc == 0 and len(calls) == 1
    assert out == json_export(build_lts(cli._load_net(WITHOUT))) + "\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open descriptors")
def test_a_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out:
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", out)
            before = len(os.listdir("/proc/self/fd"))
            assert main(["lts", corpusio.path("tiny_no_policies.akbl"),
                         "--json"]) == 141
            assert len(os.listdir("/proc/self/fd")) == before
