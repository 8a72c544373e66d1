"""Benchmark whole `akbl check` and `akbl lts` runs.

Run from the repository root:

    python3 perfbench/run.py --workload ward --seed 1 --seconds 30 --trace 0

The harness imports aspectkbl from `src/` of the same checkout, writes
the seeded inputs of the workload (see workloads.py) to a private
directory and then, in one process and one thread, calls
`aspectkbl.cli.main` with the arguments a user would give `akbl`, one
job after the other, cycling through the job list until `--seconds`
have passed.  Every job's exit code and JSON output is checked against
the answer the generator knows; a job that raises or disagrees counts
as failed.  Before every job the harness runs an untimed
`gc.collect()`.

Host speed.  On a shared host the speed of the CPU drifts by up to a
factor of two within seconds.  Between jobs the harness therefore
times a fixed pure-Python loop that runs no program code (`ref_loop`),
for at least GAP_SHARE of the previous job's time, and reports times
in reference seconds: a job's wall time scaled by REF_S over the
loop's mean time in the gaps just before and just after it.  On a
host that runs the loop in REF_S seconds a reference second is a wall
second; when other tenants slow the host down, wall times grow and
reference times stay put.  The wall-clock figures are printed on the
line before the result.

With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics:

    jobs_per_s    jobs completed per reference second of job time
    job_s_p50     median time of one `cli.main` call
    job_s_p90     90th percentile of the same
    peak_rss_mb   peak resident set size of this process
    setup_s       median over SETUP_RUNS separate interpreters of the
                  time from launch to the first timed job: import,
                  input generation and one untimed warm-up job

With `--trace 1` each job is run twice in a row, once plain and once
with the layer spans of tracer.py installed, in alternating order.
The metrics are the per-layer ones, averaged per traced job, plus
`trace.overhead` (traced throughput over plain throughput) and
`host.ref_loop_s` (median wall time of the reference loop).  The spans
are written to .perfbench_out/ when the run ends.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"       # inputs, removed when a run ends
OUT = ROOT / ".perfbench_out"        # span files of traced runs

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REF_S = 0.015           # reference-loop time that makes a reference second
GAP_SHARE = 0.05        # reference-loop time between jobs, per job second
SETUP_RUNS = 3          # interpreters launched to time set-up
SETUP_GAP = 5           # reference loops before and after each of them
JOB_TIMEOUT = 20.0      # seconds after which a job counts as failed
SETUP_TIMEOUT = 150.0   # seconds one set-up interpreter may take


class SourceMissing(Exception):
    pass


class JobTimeout(Exception):
    pass


def _job_timeout(signum, frame):
    raise JobTimeout(f"no answer after {JOB_TIMEOUT} s")


def load_cli():
    """Import aspectkbl.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "aspectkbl" / "__init__.py").is_file():
        raise SourceMissing(f"no aspectkbl package under {SRC}")
    sys.path.insert(0, str(SRC))
    from aspectkbl import cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SourceMissing(f"aspectkbl was imported from {cli.__file__}")
    return cli


def ref_loop() -> float:
    """Time a fixed pure-Python loop of dict, tuple, string and sorting
    work, about the mix the program itself does."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(15000):
        key = (i % 211, str(i % 7))
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=repr)
    rows = [(i * 7919 % 10007, str(i)) for i in range(15000)]
    rows.sort()
    return time.perf_counter() - start


class Host:
    """Reference-loop samples taken between jobs."""

    def __init__(self):
        self.samples: list = []

    def gap(self, seconds: float, least: int = 1) -> float:
        """Run the loop at least `least` times and for at least
        `seconds`; return its mean time."""
        gap = []
        while len(gap) < least or sum(gap) < seconds:
            gap.append(ref_loop())
        self.samples.extend(gap)
        return statistics.fmean(gap)


class Runner:
    """Runs the jobs of one workload in this process and checks them."""

    def __init__(self, cli, jobs: list, directory: Path):
        self.cli = cli
        self.jobs = jobs
        self.argv = [job.write(directory) for job in jobs]
        self.attempted = 0
        self.failures: list = []
        signal.signal(signal.SIGALRM, _job_timeout)

    def run(self, index: int, call=None) -> float:
        """Run job `index`, check its answer and return its wall time.
        `call(main, argv)` replaces the plain `main(argv)` call."""
        job, argv = self.jobs[index], self.argv[index]
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT)
            start = time.perf_counter()
            try:
                code = (call(self.cli.main, argv) if call
                        else self.cli.main(argv))
            except (Exception, SystemExit) as e:  # a failed job, not a crash
                code = "".join(traceback.format_exception_only(e)).strip()
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        self.attempted += 1
        if isinstance(code, str):
            problem = f"raised {code}"
        else:
            problem = workloads.verdict_error(job, code, out.getvalue())
        if problem is not None:
            stderr = err.getvalue().strip()
            self.failures.append(
                f"{job.name}: {problem}" + (f" ({stderr})" if stderr else ""))
        return elapsed


def setup(cli, workload: str, seed: int, directory: Path) -> Runner:
    """Everything before the first timed job: generate and write the
    inputs, then run the first job once, untimed."""
    runner = Runner(cli, workloads.jobs(workload, seed), directory)
    runner.run(0)
    return runner


def time_setup(workload: str, seed: int, host: Host) -> tuple:
    """Launch a fresh interpreter that sets up and reports the moment it
    is ready.  Returns (wall seconds, reference seconds) from launch to
    that moment and whether its warm-up job got the right answer."""
    before = host.gap(0.0, SETUP_GAP)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=SETUP_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"set-up run exited with {proc.returncode}")
    wall = float(out.split()[-1]) - start
    after = host.gap(0.0, SETUP_GAP)
    return wall, wall * 2 * REF_S / (before + after), proc.returncode == 0


def cycle(runner: Runner, seconds: float, host: Host, tracer=None) -> list:
    """Cycle the job list for `seconds`.  With a tracer every job runs
    twice, once plain and once traced, in alternating order.

    Returns one (wall seconds, reference seconds, traced) triple per
    job run; the position of a traced run is its job id in the spans.
    """
    runs: list = []
    gaps = [host.gap(0.0)]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        index = i % len(runner.jobs)
        order = (False,) if tracer is None else (
            (False, True) if i % 2 == 0 else (True, False))
        for traced in order:
            call = None
            if traced:
                job_id = len(runs)
                call = lambda main, argv: tracer.call(job_id, main, argv)
                tracer.install()
            try:
                wall = runner.run(index, call)
            finally:
                if traced:
                    tracer.uninstall()
            runs.append((wall, traced))
            gaps.append(host.gap(GAP_SHARE * wall))
        i += 1
    return [(wall, wall * 2 * REF_S / (gaps[k] + gaps[k + 1]), traced)
            for k, (wall, traced) in enumerate(runs)]


def summary(times: list) -> tuple:
    """(jobs per second, median, 90th percentile) of job times."""
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    return len(times) / sum(times), statistics.median(times), p90


def measure(args, cli, directory: Path) -> tuple:
    """Set up, run the timed phase; return (runner, metrics, note)."""
    runner = setup(cli, args.workload, args.seed, directory)
    host = Host()
    if args.trace:
        tracer = tracing.Tracer()
        runs = cycle(runner, args.seconds, host, tracer)
        plain = [ref for _, ref, t in runs if not t]
        traced = [ref for _, ref, t in runs if t]
        scale = {k: ref / wall for k, (wall, ref, t) in enumerate(runs) if t}
        metrics = tracing.layer_metrics(tracer, scale)
        metrics["trace.overhead"] = (
            summary(traced)[0] / summary(plain)[0], "ratio")
        metrics["host.ref_loop_s"] = (statistics.median(host.samples), "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        note = f"traced_jobs={len(traced)} spans={len(tracer.spans)}"
    else:
        runs = cycle(runner, args.seconds, host)
        jobs_per_s, p50, p90 = summary([ref for _, ref, _ in runs])
        setups = [time_setup(args.workload, args.seed, host)
                  for _ in range(SETUP_RUNS)]
        for _, _, ok in setups:
            runner.attempted += 1
            if not ok:
                runner.failures.append("set-up run: warm-up job failed")
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_s_p50": (p50, "s"),
            "job_s_p90": (p90, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(ref for _, ref, _ in setups), "s"),
        }
        wall = summary([w for w, _, _ in runs])
        beyond = sum(ref > p90 for _, ref, _ in runs)
        note = (f"jobs={len(runs)} beyond_p90={beyond} wall: "
                f"jobs_per_s={wall[0]:.4f} job_s_p50={wall[1]:.4f} "
                f"job_s_p90={wall[2]:.4f} setup_s="
                f"{statistics.median(w for w, _, _ in setups):.4f} "
                f"host.ref_loop_s={statistics.median(host.samples):.6f}")
    return runner, metrics, note


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
    except SourceMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        if args.setup_only:
            runner = setup(cli, args.workload, args.seed, directory)
            print(repr(time.monotonic()), flush=True)
            return 1 if runner.failures else 0
        runner, metrics, note = measure(args, cli, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                # another run still uses it
    for failure in runner.failures[:10]:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} {note} "
          f"failed={len(runner.failures)}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
