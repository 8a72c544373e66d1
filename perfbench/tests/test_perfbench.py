"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import dataclasses
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for job in workloads.jobs(workload, 7):
        job.write(first)
    for job in workloads.jobs(workload, 7):
        job.write(second)
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_inputs_do_not_depend_on_the_interpreter_hash_seed():
    script = ("import hashlib, workloads; print(hashlib.sha256(repr("
              "[workloads.jobs(w, 3) for w in workloads.WORKLOADS])"
              ".encode()).hexdigest())")
    digests = {subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True,
        text=True, timeout=60, env={"PYTHONHASHSEED": h}).stdout
        for h in ("1", "2")}
    assert len(digests) == 1 and digests != {""}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs_of_the_same_sizes(workload):
    a, b = workloads.jobs(workload, 1), workloads.jobs(workload, 2)
    assert [j.net for j in a] != [j.net for j in b]
    assert sorted(len(j.net) for j in a) == sorted(len(j.net) for j in b)
    assert sorted(j.checks for j in a) == sorted(j.checks for j in b)
    # the first job is also the warm-up job that set-up time includes
    assert a[0].checks == b[0].checks and len(a[0].net) == len(b[0].net)


def test_ward_lists_demote_exactly_a_quarter():
    for seed in range(5):
        codes = [j.exit_code for j in workloads.jobs("ward", seed)]
        assert codes.count(1) * 4 == len(codes)


def test_deep_formulas_match_hand_counts():
    # one prefix each: positions 00, 10, 01, 11 and the four steps
    # 00->10, 00->01, 10->11, 01->11
    assert workloads.deep_counts(1) == (4, 4)
    # two prefixes each: a 3x3 grid, each row and column has 2 steps
    assert workloads.deep_counts(2) == (9, 12)
    # one process alone is a chain
    assert workloads.deep_counts(3, processes=1) == (4, 3)


def _answer(cli, job, tmp_path):
    runner = run.Runner(cli, [job], tmp_path)
    runner.run(0)
    return runner


@pytest.mark.parametrize("prefixes", [1, 2])
def test_smallest_deep_instances_get_their_answer(cli, tmp_path, prefixes):
    job = workloads.deep_job("d", random.Random(0), prefixes)
    assert job.checks == ((("states",), "len", (prefixes + 1) ** 2),
                          (("transitions",), "len",
                           2 * prefixes * (prefixes + 1)))
    assert _answer(cli, job, tmp_path).failures == []


@pytest.mark.parametrize("demote,code", [(False, 0), (True, 1)])
def test_smallest_ward_instances_get_their_answer(cli, tmp_path, demote, code):
    job = workloads.ward_job("w", random.Random(0), doctors=1, nurses=1,
                             promoted=1, demote=demote)
    assert job.exit_code == code
    assert _answer(cli, job, tmp_path).failures == []


def test_smallest_certify_instance_gets_its_answer(cli, tmp_path):
    job = workloads.certify_job("c", random.Random(0), 2)
    assert job.exit_code == 0
    assert _answer(cli, job, tmp_path).failures == []


@pytest.mark.parametrize("wrong", [
    {"exit_code": 1},
    {"checks": ((("exhaustive", "holds"), "eq", False),)},
])
def test_wrong_expected_answer_counts_as_failed(cli, tmp_path, wrong):
    job = workloads.ward_job("w", random.Random(0), doctors=1, nurses=1,
                             promoted=1)
    runner = _answer(cli, dataclasses.replace(job, **wrong), tmp_path)
    assert runner.attempted == 1
    assert len(runner.failures) == 1


def test_raising_job_counts_as_failed(cli, tmp_path):
    job = workloads.ward_job("w", random.Random(0), doctors=1, nurses=1,
                             promoted=1)
    runner = run.Runner(cli, [job], tmp_path)

    def explode(main, argv):
        raise RuntimeError("boom")
    runner.run(0, explode)
    assert runner.attempted == 1
    assert "boom" in runner.failures[0]


def test_job_without_answer_in_time_counts_as_failed(cli, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT", 0.2)
    job = workloads.ward_job("w", random.Random(0), doctors=1, nurses=1,
                             promoted=1)
    runner = run.Runner(cli, [job], tmp_path)
    elapsed = runner.run(0, lambda main, argv: time.sleep(5))
    assert elapsed < 2
    assert runner.attempted == 1
    assert "JobTimeout" in runner.failures[0]


def test_tracer_counts_layers_and_restores_the_package(cli, tmp_path):
    job = workloads.ward_job("w", random.Random(0), doctors=1, nurses=1,
                             promoted=1, demote=True)
    runner = run.Runner(cli, [job], tmp_path)
    original = cli.parse_net
    t = tracer.Tracer()
    t.install()
    try:
        runner.run(0, lambda main, argv: t.call(0, main, argv))
    finally:
        t.uninstall()
    assert cli.parse_net is original
    assert runner.failures == []
    m = tracer.layer_metrics(t, {0: 1.0})
    assert m["semantics.states"][0] > 0
    assert m["certify.not_certified"][0] >= 1
    assert m["exhaustive.transitions_checked"][0] > 0
    assert 0 < m["semantics.new_state_ratio"][0] <= 1
    # self times add up to the job's span
    job_span = next(s for s in t.spans if s[0] == "job")
    assert sum(t.self_times().values()) == pytest.approx(
        job_span[2] - job_span[1])


def test_tracer_skips_names_that_are_gone(cli, monkeypatch):
    from aspectkbl import semantics
    monkeypatch.delattr(semantics, "step_candidates")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert not hasattr(semantics, "step_candidates")
    assert tracer.layer_metrics(t, {})["semantics.step_s"] == (0.0, "s")


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ward", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
