"""Command line front end.

akbl check NET OBL   verify an obligation against a network
akbl lts NET         build and export the transition system
akbl trace NET       print one maximal run, chosen by seed

Exit codes: 0 the obligation holds (or the run finished), 1 the
obligation is violated, 2 the static certifier alone could not
decide, 3 the input or the command line was rejected, a limit was
hit or the input is nested too deeply for the recursive tree walkers
(`error: input nested too deeply`), 4 an internal error (reported in
one line on stderr, without a traceback), 141 the reader closed
stdout before the output was written, as `| head` does (silently,
with the code a shell reports for a writer killed by SIGPIPE,
128 + 13).
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from .belnap import names
from .certify import check_network, constraint_text, report_json
from .exhaustive import Verdict, sat_obl
from .model import AkblError, Net, validate
from .parser import (ParseError, parse_net, parse_obligation, render_action,
                     render_obligation, render_pred)
from .semantics import (Interner, build_lts, dot_export, json_export,
                        json_text, net_text, step_candidates)

OK, VIOLATED, UNDECIDED, BAD_INPUT, INTERNAL_ERROR = 0, 1, 2, 3, 4
CLOSED_STDOUT = 141


@contextmanager
def _file_errors(path: str):
    """Report a file that cannot be read or written as bad input."""
    try:
        yield
    except FileNotFoundError:
        raise AkblError(f"{path}: no such file") from None
    except UnicodeDecodeError:
        raise AkblError(f"{path}: not UTF-8 text") from None
    except OSError as e:
        raise AkblError(f"{path}: {e.strerror}") from None


def _read(path: str) -> str:
    with _file_errors(path):
        return Path(path).read_text(encoding="utf-8")


def _load_net(path: str) -> Net:
    net = parse_net(_read(path))
    errors = validate(net)
    if errors:
        raise ParseError(errors)
    return net


def _witness_json(w) -> dict:
    return {
        "path": [l.text() for l in w.path],
        "label": w.label.text(),
        "theta": repr(w.theta),
        "pred": render_pred(w.pred),
    }


def _verdict_json(v: Verdict) -> dict:
    out = {
        "obligation": render_obligation(v.obligation),
        "holds": v.holds,
        "states_explored": v.states_explored,
        "transitions_checked": v.transitions_checked,
    }
    if v.witness is not None:
        out["witness"] = _witness_json(v.witness)
    return out


def _print_static(report, explain: bool):
    for r in report.actions:
        print(f"{r.outcome} {r.source}: {render_action(r.action)}")
        if r.theta0 is not None and r.theta0.pairs:
            print(f"  with {r.theta0!r}")
        if r.constraints:
            atoms = ", ".join(constraint_text(c) for c in r.constraints)
            print(f"  constraints: {atoms}")
        if explain and r.side_values:
            src, tgt = (", ".join(names(s)) for s in r.side_values)
            print(f"  source may evaluate to {{{src}}}, target to {{{tgt}}}")
    print(f"certified: {'yes' if report.certified else 'no'}")


def _print_verdict(v: Verdict):
    print(f"obligation: {render_obligation(v.obligation)}")
    if v.holds:
        print(f"holds: yes ({v.states_explored} states, "
              f"{v.transitions_checked} transitions checked)")
        return
    print("holds: no")
    w = v.witness
    print("counterexample:")
    for i, l in enumerate(w.path, 1):
        print(f"  {i}. {l.text()}")
    print(f"failing step: {w.label.text()}")
    print(f"with {w.theta!r}")
    print(f"unsatisfied: {render_pred(w.pred)}")


def cmd_check(args) -> int:
    net = _load_net(args.net)
    obl = parse_obligation(_read(args.obligation))
    static_report = None
    if args.mode in ("static", "auto"):
        static_report = check_network(net, obl)
        if args.mode == "static" or static_report.certified:
            if args.json:
                print(json_text(report_json(static_report, args.explain_denied)))
            else:
                _print_static(static_report, args.explain_denied)
            return OK if static_report.certified else UNDECIDED
    verdict = sat_obl(net, obl, max_states=args.max_states,
                      max_depth=args.max_depth, static=static_report)
    if args.json:
        out = _verdict_json(verdict)
        if static_report is not None:
            out = {"static": report_json(static_report, args.explain_denied),
                   "exhaustive": out}
        print(json_text(out))
    else:
        if static_report is not None:
            _print_static(static_report, args.explain_denied)
        _print_verdict(verdict)
    return OK if verdict.holds else VIOLATED


def cmd_lts(args) -> int:
    net = _load_net(args.net)
    lts = build_lts(net, max_states=args.max_states, max_depth=args.max_depth)
    if args.dot:
        with _file_errors(args.dot):
            Path(args.dot).write_text(dot_export(lts) + "\n")
    if args.json:
        json_export(lts, sys.stdout.write)
        print()
    else:
        print(f"states: {len(lts.ids)}")
        print(f"transitions: {len(lts.transitions)}")
    return OK


def cmd_trace(args) -> int:
    space = Interner()
    state = space.state(_load_net(args.net))
    rng = random.Random(args.seed)
    for _ in range(args.max_depth):
        steps, denied = step_candidates(state, space)
        if args.explain_denied:
            for label, f in denied:
                print(f"blocked: {label.text()} ({', '.join(names(f))})")
        if not steps:
            break
        label, state = steps[rng.randrange(len(steps))]
        print(label.text())
    print(f"final: {net_text(space.net(state))}")
    return OK


def _add_limits(p):
    p.add_argument("--max-states", type=int, default=100000,
                   help="state budget for exploration (default 100000)")
    p.add_argument("--max-depth", type=int, default=10000,
                   help="depth budget for exploration (default 10000)")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="akbl",
        description="check policy obligations of tuple-space networks")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify an obligation")
    c.add_argument("net", help="network file")
    c.add_argument("obligation", help="obligation file")
    c.add_argument("--mode", choices=("static", "exhaustive", "auto"),
                   default="auto",
                   help="static certifier, exhaustive search, or static "
                        "with exhaustive fallback (default)")
    c.add_argument("--json", action="store_true", help="machine readable output")
    c.add_argument("--explain-denied", action="store_true",
                   help="show the abstract policy values behind denials")
    _add_limits(c)
    c.set_defaults(fn=cmd_check)

    l = sub.add_parser("lts", help="build the transition system")
    l.add_argument("net", help="network file")
    l.add_argument("--json", action="store_true", help="machine readable output")
    l.add_argument("--dot", metavar="PATH", help="write a graphviz rendering")
    _add_limits(l)
    l.set_defaults(fn=cmd_lts)

    t = sub.add_parser("trace", help="print one maximal run")
    t.add_argument("net", help="network file")
    t.add_argument("--seed", type=int, default=0, help="choice seed")
    t.add_argument("--explain-denied", action="store_true",
                   help="list blocked actions with the value that blocked them")
    t.add_argument("--max-depth", type=int, default=10000,
                   help="steps to take at most (default 10000)")
    t.set_defaults(fn=cmd_trace)
    return ap


# Parsing reads the parser and changes nothing in it, so one serves
# every call of `main` in a process; building it took about a tenth of
# a `check` on a five-staff ward.
ARG_PARSER = build_arg_parser()


def main(argv=None) -> int:
    try:
        args = ARG_PARSER.parse_args(argv)
    except SystemExit as e:  # argparse has printed the help or a usage error
        return BAD_INPUT if e.code else OK
    try:
        code = args.fn(args)
        sys.stdout.flush()      # so that a closed reader is caught here
        return code
    except BrokenPipeError:
        # nothing is left to say: stdout goes to devnull, so that the
        # flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    except ParseError as e:
        for d in e.diagnostics:
            print(d.format(), file=sys.stderr)
        return BAD_INPUT
    except AkblError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    except RecursionError:  # deeper than the recursive tree walkers go
        print("error: input nested too deeply", file=sys.stderr)
        return BAD_INPUT
    except Exception as e:  # a crash must never read as a verdict
        detail = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
