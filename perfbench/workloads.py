"""Seeded inputs for the benchmark, each with the answer it must get.

Every generator draws names, entry order and role changes from a
`random.Random` it is given, and knows the correct answer from the way
it built the network.  Nothing here imports aspectkbl: the expected
answers never come from the program under test.

Three workloads:

  ward     `check --mode auto --json` on small wards that the static
           certifier cannot decide, so the explorer runs.  An
           administrator promotes nurses; one job in four it also
           demotes a doctor who may already have read the private
           notes, which violates the obligation.
  deep     `lts --json` on two independent sequential processes of
           M prefixes each: (M+1)^2 states, 2*M*(M+1) transitions.
  certify  `check --mode auto --json` on large wards that the static
           certifier proves without exploring a state.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

STORE_ASPECT = ("[[test(Doctor, #u)@ROLES if #u :: "
                "read(_, PrivateNotes, _)@EHDB . X : true]]")
COPY_OBLIGATION = "AG [$u : o(Bob, Copy, _)@Archive] test(Doctor, $u)@ROLES\n"
READ_OBLIGATION = ("AG [$u : r(_, PrivateNotes, _)@EHDB] "
                   "test(Doctor, $u)@ROLES\n")

WARD_JOBS = 8            # per job list; exactly a quarter of them demote
DEEP_PREFIXES = 30       # per process, in every deep job
DEEP_JOBS = 4
CERTIFY_STAFF = tuple(range(100, 201, 10))

# two letters each, so every name has the same length and the amount of
# text to parse and render does not change with the seed
_SYLLABLES = ("ka", "lo", "mi", "re", "sa", "to", "vi", "be", "du",
              "fa", "go", "ha", "ju", "ne", "pa", "ri", "te", "wo")


@dataclass(frozen=True)
class Job:
    """One `akbl` invocation and the answer it must produce.

    `command` is the argument list with "{net}" and "{obl}" standing
    for the paths of the written input files.  `checks` holds
    (key path, kind, value) triples over the JSON that the run prints:
    kind "eq" compares the value found there, "len" its length.
    """
    name: str
    command: tuple
    net: str
    obligation: str | None
    exit_code: int
    checks: tuple

    def write(self, directory: Path) -> list:
        """Write the input files and return the argument list."""
        net = directory / f"{self.name}.akbl"
        net.write_text(self.net)
        obl = directory / f"{self.name}.obl"
        if self.obligation is not None:
            obl.write_text(self.obligation)
        return [a.format(net=net, obl=obl) for a in self.command]


def verdict_error(job: Job, exit_code, stdout: str):
    """Why a run's exit code or output disagrees with the expected
    answer, or None when it agrees."""
    if exit_code != job.exit_code:
        return f"exit code {exit_code}, expected {job.exit_code}"
    try:
        document = json.loads(stdout)
    except ValueError as e:
        return f"output is not JSON: {e}"
    for path, kind, want in job.checks:
        got = document
        for key in path:
            if not isinstance(got, dict) or key not in got:
                return f"output lacks {'.'.join(path)}"
            got = got[key]
        if kind == "len":
            got = len(got)
        if got != want:
            return f"{'.'.join(path)} {kind} {got!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# names

# names the networks use as they are; generated names avoid them
_FIXED = {"EHDB", "ROLES", "Archive", "Store", "Bob", "PrivateNotes", "Copy",
          "Index", "Doctor", "Nurse"}


def names(rng: random.Random, count: int, taken) -> list:
    """`count` distinct capitalised names, none of them in `taken`."""
    out: list = []
    seen = set(taken)
    while len(out) < count:
        name = "".join(rng.choice(_SYLLABLES)
                       for _ in range(3)).capitalize()
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _join(rng: random.Random, entries: list) -> str:
    rng.shuffle(entries)
    return "\n|| ".join(entries) + "\n"


# ---------------------------------------------------------------------------
# ward: the explorer decides

def ward_net(rng: random.Random, doctors: int = 2, nurses: int = 3,
             promoted: int = 2, demote: bool = False) -> tuple:
    """A ward the certifier cannot decide.  Returns (net, holds) for
    COPY_OBLIGATION.

    Every member of staff reads the private notes, files a copy in the
    Archive and then reads the Archive index.  The store serves the
    notes to doctors only.  The administrator promotes `promoted` of
    the nurses to doctor and, with `demote`, then demotes a doctor.  A
    promoted nurse can only read, and so only copy, as a doctor, so
    the obligation "whoever files a copy is a doctor" holds unless a
    doctor reads the notes before a demotion and files the copy after
    it.
    """
    people = names(rng, doctors + nurses + 1, _FIXED)
    admin, docs, nurs = people[0], people[1:doctors + 1], people[doctors + 1:]
    note, index = names(rng, 2, _FIXED | set(people))
    changes = []
    for n in rng.sample(nurs, promoted):
        changes += [f"in(Nurse, {n})@ROLES", f"out(Doctor, {n})@ROLES"]
    if demote:
        d = rng.choice(docs)
        changes += [f"in(Doctor, {d})@ROLES", f"out(Nurse, {d})@ROLES"]
    entries = [f"EHDB ::{STORE_ASPECT} <Bob, PrivateNotes, {note}>",
               f"Archive ::[true] <Index, {index}>",
               f"{admin} ::[true] {' . '.join(changes + ['0'])}"]
    entries += [f"ROLES ::[true] <Doctor, {d}>" for d in docs]
    entries += [f"ROLES ::[true] <Nurse, {n}>" for n in nurs]
    entries += [f"{s} ::[true] read(Bob, PrivateNotes, !c)@EHDB . "
                f"out(Bob, Copy, c)@Archive . read(Index, !i)@Archive . 0"
                for s in docs + nurs]
    return _join(rng, entries), not demote


def ward_job(name: str, rng: random.Random, **sizes) -> Job:
    net, holds = ward_net(rng, **sizes)
    return Job(name, ("check", "{net}", "{obl}", "--mode", "auto", "--json"),
               net, COPY_OBLIGATION, 0 if holds else 1,
               ((("exhaustive", "holds"), "eq", holds),))


# ---------------------------------------------------------------------------
# deep: few processes, deep terms, whole LTS exported

def deep_net(rng: random.Random, prefixes: int, processes: int = 2) -> str:
    """`processes` independent sequential processes of `prefixes`
    steps each, alternating read(K, !d) and out(C, d) on a shared
    store.  Every read matches exactly one tuple and no out adds a
    tuple any read matches, so every prefix is always enabled and the
    state space is the product of the processes' positions."""
    drawn = names(rng, 3 * processes, _FIXED)
    people, keys = drawn[:processes], drawn[processes:]
    entries = []
    for n, p in enumerate(people):
        read_key, copy_key = keys[2 * n], keys[2 * n + 1]
        steps = []
        for i in range(prefixes):
            if i % 2 == 0:
                entries.append(f"Store ::[true] <{read_key}{i}, {p}{i}>")
                steps.append(f"read({read_key}{i}, !d{i})@Store")
            else:
                steps.append(f"out({copy_key}{i}, d{i - 1})@Store")
        entries.append(f"{p} ::[true] {' . '.join(steps + ['0'])}")
    return _join(rng, entries)


def deep_counts(prefixes: int, processes: int = 2) -> tuple:
    """(states, transitions) of `deep_net`: every combination of
    positions is a state and each unfinished process can step."""
    m, p = prefixes, processes
    return (m + 1) ** p, p * m * (m + 1) ** (p - 1)


def deep_job(name: str, rng: random.Random, prefixes: int) -> Job:
    states, transitions = deep_counts(prefixes)
    return Job(name, ("lts", "{net}", "--json"),
               deep_net(rng, prefixes), None, 0,
               ((("states",), "len", states),
                (("transitions",), "len", transitions)))


# ---------------------------------------------------------------------------
# certify: the static route

def certify_net(rng: random.Random, staff: int) -> str:
    """A ward of `staff` people, half of them nurses, all reading the
    guarded store.  Nothing changes roles, so every doctor's read is
    certified by entailment and every nurse's read is certified
    denied."""
    people = names(rng, staff, _FIXED)
    note, index = names(rng, 2, _FIXED | set(people))
    nurses = set(rng.sample(people, staff // 2))
    entries = [f"EHDB ::{STORE_ASPECT} <Bob, PrivateNotes, {note}>",
               f"Archive ::[true] <Index, {index}>"]
    for s in people:
        role = "Nurse" if s in nurses else "Doctor"
        entries.append(f"ROLES ::[true] <{role}, {s}>")
        entries.append(f"{s} ::[true] read(Bob, PrivateNotes, !c)@EHDB . "
                       f"out(Bob, Copy, c)@Archive . 0")
    return _join(rng, entries)


def certify_job(name: str, rng: random.Random, staff: int) -> Job:
    return Job(name, ("check", "{net}", "{obl}", "--mode", "auto", "--json"),
               certify_net(rng, staff), READ_OBLIGATION, 0,
               ((("certified",), "eq", True),))


# ---------------------------------------------------------------------------
# job lists

def jobs(workload: str, seed: int) -> list:
    """The job list of a workload, fixed by the seed.  Sizes come from
    a fixed set and only their order and the names change with the
    seed, so every seed asks for the same amount of work.  The first
    job, which the harness also runs to warm up, has the same size for
    every seed, so that set-up time does not depend on the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ward":
        demoting = set(rng.sample(range(1, WARD_JOBS), WARD_JOBS // 4))
        return [ward_job(f"ward{i}", rng, demote=i in demoting)
                for i in range(WARD_JOBS)]
    if workload == "deep":
        return [deep_job(f"deep{i}", rng, DEEP_PREFIXES)
                for i in range(DEEP_JOBS)]
    if workload == "certify":
        first = CERTIFY_STAFF[len(CERTIFY_STAFF) // 2]
        sizes = [n for n in CERTIFY_STAFF if n != first]
        rng.shuffle(sizes)
        sizes.insert(0, first)
        return [certify_job(f"certify{i}", rng, n)
                for i, n in enumerate(sizes)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ward", "deep", "certify")
