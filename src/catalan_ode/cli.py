"""Command-line surface.

Subcommands:
  catalan     print C_0..C_max
  higher      print higher-order Catalan numbers C_0^(r)..C_max^(r)
  coeffs      print a coefficient table (JSON, big ints as decimal strings)
  verify      run one identity check or the whole suite
  crosscheck  compare the Catalan sequence against a b-file

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

from .bfile import parse_bfile
from .catalan import catalan_closed, higher_catalan
from .coefficients import a_table_recurrence, b_table_recurrence
from .identities import IDENTITY_IDS
from .runner import COMMAND_BOUNDS, UPPER_BOUNDS, RunConfig, emit_report, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalan-ode",
        description="Exact Catalan-number computations and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalan", help="print Catalan numbers")
    p.add_argument("--max", type=int, required=True, metavar="N")

    p = sub.add_parser("higher", help="print higher-order Catalan numbers")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max", type=int, required=True, metavar="N")

    p = sub.add_parser("coeffs", help="print a coefficient-family table as JSON")
    p.add_argument("--family", choices=("a", "b"), required=True)
    p.add_argument("--max-N", dest="max_n", type=int, required=True)

    p = sub.add_parser("verify", help="run identity verification")
    p.add_argument("--id", dest="identity", default="all",
                   choices=IDENTITY_IDS + ("all",))
    for flag, name, _ in UPPER_BOUNDS:
        p.add_argument(flag, dest=name, type=int, default=getattr(RunConfig, name))
    p.add_argument("--format", dest="fmt", choices=("human", "json"), default="human")

    p = sub.add_parser("crosscheck", help="check Catalan values against a b-file")
    p.add_argument("--bfile", required=True)
    p.add_argument("--max", type=int, required=True, metavar="N")

    return parser


def _cmd_verify(args) -> int:
    cfg = RunConfig(**{name: getattr(args, name) for _, name, _ in UPPER_BOUNDS})
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = run_suite(args.identity, cfg)
    print(emit_report(reports, args.fmt))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_crosscheck(args) -> int:
    if args.max < 0:
        print("error: --max must be >= 0", file=sys.stderr)
        return 2
    try:
        with open(args.bfile, encoding="ascii") as fh:
            entries = parse_bfile(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mismatches = 0
    checked = 0
    for entry in entries:
        if entry.index < 0 or entry.index > args.max:
            continue
        checked += 1
        expected = catalan_closed(entry.index)
        if entry.value != expected:
            mismatches += 1
            print(f"mismatch at index {entry.index}: "
                  f"file {entry.value}, computed {expected}")
    print(f"checked {checked} entries, {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for command, flag, dest, cap in COMMAND_BOUNDS:
        if command == args.command and getattr(args, dest) > cap:
            print(f"error: {flag} must be at most {cap}", file=sys.stderr)
            return 2

    if args.command == "catalan":
        if args.max < 0:
            print("error: --max must be >= 0", file=sys.stderr)
            return 2
        print(",".join(str(catalan_closed(n)) for n in range(args.max + 1)))
        return 0

    if args.command == "higher":
        if args.r < 1 or args.max < 0:
            print("error: need --r >= 1 and --max >= 0", file=sys.stderr)
            return 2
        print(",".join(str(higher_catalan(args.r, n)) for n in range(args.max + 1)))
        return 0

    if args.command == "coeffs":
        if args.max_n < 1:
            print("error: --max-N must be >= 1", file=sys.stderr)
            return 2
        build = a_table_recurrence if args.family == "a" else b_table_recurrence
        print(build(args.max_n).to_json())
        return 0

    if args.command == "verify":
        return _cmd_verify(args)

    if args.command == "crosscheck":
        return _cmd_crosscheck(args)

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
