"""Command-line entry point.

``facetspace run`` executes a scripted market scenario against virtual time,
writing one JSON trace line per turn. ``facetspace expand-check`` verifies a
derived form against its hand-written expansion.
"""

from __future__ import annotations

import argparse
import sys

from .expansions import FORMS, check_form
from .market import ScenarioError, check_config, default_config, parse_script, run_scenario
from .values import ParseError, parse_all


def _cmd_run(args) -> int:
    try:
        with open(args.script) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print("cannot read script %s: %s" % (args.script, getattr(e, "strerror", None) or e), file=sys.stderr)
        return 2
    try:
        steps = parse_script(parse_all(text))
    except (ParseError, ScenarioError) as e:
        print("bad script %s: %s" % (args.script, e), file=sys.stderr)
        return 2
    config = default_config(
        args.scenario,
        open_ms=args.open_ms,
        closed_ms=args.closed_ms,
        wait_period=args.wait_period,
    )
    try:  # before the trace file is opened, so a bad flag leaves it as it was
        check_config(config)
    except ValueError as e:
        print("bad options: %s" % e, file=sys.stderr)
        return 2
    try:
        sink = open(args.trace, "w")
    except OSError as e:
        print("cannot write trace %s: %s" % (args.trace, e.strerror or e), file=sys.stderr)
        return 2
    with sink:
        try:
            result = run_scenario(config, steps, trace_sink=sink)
        except ScenarioError as e:
            print("script assertion failed: %s" % e, file=sys.stderr)
            return 1
    for ref, answer in sorted(result.order_outcomes.items()):
        print("order %s: %s" % (ref, answer))
    for acct, balance in sorted(result.final_balances.items()):
        print("balance %s: %s" % (acct, balance))
    return 0


def _cmd_expand_check(args) -> int:
    failures = 0
    for i, got, want in check_form(args.form):
        ok = got == want
        print("%s schedule %d: %s" % (args.form, i + 1, "ok" if ok else "MISMATCH"))
        if not ok:
            failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="facetspace")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scripted market scenario")
    run_p.add_argument("--scenario", choices=["simple", "extended"], default="simple")
    run_p.add_argument("--script", required=True, help="scenario script file")
    run_p.add_argument("--trace", required=True, help="JSONL trace output file")
    run_p.add_argument("--open-ms", type=int, default=1000)
    run_p.add_argument("--closed-ms", type=int, default=500)
    run_p.add_argument("--wait-period", type=int, default=100)
    run_p.set_defaults(fn=_cmd_run)

    ec_p = sub.add_parser("expand-check", help="derived-form equivalence checks")
    ec_p.add_argument("--form", choices=sorted(FORMS), required=True)
    ec_p.set_defaults(fn=_cmd_expand_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
