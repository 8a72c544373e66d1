"""The akbl command line: exit codes, output contracts, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aspectkbl
from aspectkbl.cli import main
import corpusio

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
    env = {**os.environ,
           "PYTHONPATH": str(Path(aspectkbl.__file__).parents[1])}
    for argv in (("lts", nine, "--json"), ("check", many, outs, "--json")):
        with subprocess.Popen(
                [sys.executable, "-m", "aspectkbl.cli", *map(str, argv)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141, (argv, err)
        assert err == b"", argv
