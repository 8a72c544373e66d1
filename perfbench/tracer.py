"""Spans and counts around the calls into each layer of aspectkbl.

The tracer replaces module attributes at the places where callers
look them up (for example `semantics.canonicalize`, which
`step_candidates` calls) with wrappers that record a span per call.
Nothing in the package is edited; `Tracer.uninstall` puts every
original back.  A wrapped name that no longer exists is skipped, so
its layer reports zero calls.

A span is (name, start, end, parent index, job id).  Spans stay in
memory until the run ends.  A layer's self time is its spans' length
minus the part covered by their child spans.
"""
from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter

# (module, attribute, span name): every call becomes a span
SPANS = (
    ("cli", "parse_net", "parser.parse"),
    ("cli", "parse_obligation", "parser.parse"),
    ("parser", "render_net", "parser.render"),
    ("cli", "validate", "model.validate"),
    ("parser", "canonicalize", "model.canonicalize"),
    ("semantics", "canonicalize", "model.canonicalize"),
    ("certify", "canonicalize", "model.canonicalize"),
    ("cli", "canonicalize", "model.canonicalize"),
    ("cli", "build_lts", "semantics.build_lts"),
    ("exhaustive", "build_lts", "semantics.build_lts"),
    ("semantics", "step_candidates", "semantics.step"),
    ("cli", "step_candidates", "semantics.step"),
    ("cli", "json_export", "semantics.export"),
    ("cli", "sat_obl", "exhaustive.sat_obl"),
    ("exhaustive", "check_lts", "exhaustive.check_lts"),
    ("cli", "check_network", "certify.check_network"),
)

# (module, attribute, counter name): calls are only counted, so that
# their time stays with the caller's layer
CALLS = (
    ("semantics", "findsubs", "unification.findsubs_calls"),
    ("exhaustive", "findsubs", "unification.findsubs_calls"),
    ("certify", "findsubs", "unification.findsubs_calls"),
)


def _count_steps(counts: Counter, result):
    steps, denied = result
    counts["semantics.successors"] += len(steps)
    counts["semantics.denied"] += len(denied)


def _count_lts(counts: Counter, lts):
    counts["semantics.builds"] += 1
    counts["semantics.states"] += len(lts.states)
    counts["semantics.transitions"] += len(lts.transitions)
    counts["model.entries"] += sum(len(s.entries) for s in lts.states)


def _count_verdict(counts: Counter, verdict):
    counts["exhaustive.transitions_checked"] += verdict.transitions_checked


def _count_static(counts: Counter, report):
    counts["certify.actions"] += len(report.actions)
    counts["certify.not_certified"] += sum(
        r.outcome == "NotCertified" for r in report.actions)


# span name -> how to count from the wrapped function's return value
RESULT_COUNTS = {
    "semantics.step": _count_steps,
    "semantics.build_lts": _count_lts,
    "exhaustive.check_lts": _count_verdict,
    "certify.check_network": _count_static,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._saved: list = []

    def _spanned(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if count is not None:
                count(counts, result)
            return result
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for table, make in ((SPANS, self._spanned), (CALLS, self._counted)):
            for mod_name, attr, name in table:
                mod = importlib.import_module(f"aspectkbl.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, make(fn, name))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def call(self, job_id, fn, *args):
        """Run `fn(*args)` as the root span of one job."""
        self.job = job_id
        try:
            return self._spanned(fn, "job")(*args)
        finally:
            self.job = None

    def self_times(self, scale=None) -> Counter:
        """Total self time per span name, each span's time multiplied
        by `scale[job id]` when a scale is given."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, job) in enumerate(self.spans):
            factor = 1.0 if scale is None else scale[job]
            out[name] += (end - start - child[i]) * factor
        return out

    def call_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")


def layer_metrics(tracer: Tracer, scale: dict) -> dict:
    """Per-layer metrics as name -> (value, unit), each averaged over
    the traced jobs.  `scale` maps every traced job id to the factor
    that turns its wall seconds into the seconds reported."""
    t = tracer.self_times(scale)
    calls = tracer.call_counts()
    c = tracer.counts
    states = c["semantics.states"]
    successors = c["semantics.successors"]
    per_job = max(len(scale), 1)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "parser.parse_s": (t["parser.parse"] / per_job, "s"),
        "parser.render_s": (t["parser.render"] / per_job, "s"),
        "model.validate_s": (t["model.validate"] / per_job, "s"),
        "model.canonicalize_s": (t["model.canonicalize"] / per_job, "s"),
        "model.canonicalize_calls":
            (calls["model.canonicalize"] / per_job, "count"),
        "model.entries_per_state": (ratio(c["model.entries"], states), "count"),
        "semantics.build_lts_s": (t["semantics.build_lts"] / per_job, "s"),
        "semantics.step_s": (t["semantics.step"] / per_job, "s"),
        "semantics.states": (states / per_job, "count"),
        "semantics.transitions":
            (c["semantics.transitions"] / per_job, "count"),
        "semantics.denied": (c["semantics.denied"] / per_job, "count"),
        "semantics.new_state_ratio":
            (ratio(states - c["semantics.builds"], successors), "ratio"),
        "semantics.export_s": (t["semantics.export"] / per_job, "s"),
        "unification.findsubs_calls":
            (c["unification.findsubs_calls"] / per_job, "count"),
        "exhaustive.check_lts_s": (t["exhaustive.check_lts"] / per_job, "s"),
        "exhaustive.transitions_checked":
            (c["exhaustive.transitions_checked"] / per_job, "count"),
        "certify.check_network_s":
            (t["certify.check_network"] / per_job, "s"),
        "certify.actions": (c["certify.actions"] / per_job, "count"),
        "certify.not_certified":
            (c["certify.not_certified"] / per_job, "count"),
    }
