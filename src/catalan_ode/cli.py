"""Command-line surface.

Subcommands:
  catalan     print C_0..C_max
  higher      print higher-order Catalan numbers C_0^(r)..C_max^(r)
  coeffs      print a coefficient table (JSON, big ints as decimal strings)
  verify      run one identity check or the whole suite
  crosscheck  compare the Catalan sequence against a b-file

Every integer flag is declared from its row of `runner.BOUNDS`; `main`
checks them with `runner.check_bounds` and then runs the handler that
argparse chose for the subcommand.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

from .bfile import parse_bfile
from .catalan import catalan_closed, higher_catalan
from .coefficients import a_table_recurrence, b_table_recurrence
from .runner import BOUNDS, JOBS, RunConfig, check_bounds, emit_report, run_suite
from .series import catalan_series


def _usage_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_catalan(args) -> int:
    print(",".join(map(str, catalan_series(args.max).num)))
    return 0


def _cmd_higher(args) -> int:
    print(",".join(str(higher_catalan(args.r, n)) for n in range(args.max + 1)))
    return 0


def _cmd_coeffs(args) -> int:
    build = a_table_recurrence if args.family == "a" else b_table_recurrence
    print(build(args.max_n).to_json())
    return 0


def _cmd_verify(args) -> int:
    cfg = RunConfig(**{dest: getattr(args, dest)
                       for cmd, _, dest, _, _ in BOUNDS if cmd == "verify"})
    try:
        cfg.validate(args.identity)
    except ValueError as exc:
        return _usage_error(exc)
    reports = run_suite(args.identity, cfg)
    print(emit_report(reports, args.fmt))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_crosscheck(args) -> int:
    try:
        with open(args.bfile, encoding="ascii") as fh:
            entries = parse_bfile(fh.read())
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalan-ode",
        description="Exact Catalan-number computations and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalan", help="print Catalan numbers")
    p.set_defaults(run=_cmd_catalan)

    p = sub.add_parser("higher", help="print higher-order Catalan numbers")
    p.set_defaults(run=_cmd_higher)

    p = sub.add_parser("coeffs", help="print a coefficient-family table as JSON")
    p.set_defaults(run=_cmd_coeffs)
    p.add_argument("--family", choices=("a", "b"), required=True)

    p = sub.add_parser("verify", help="run identity verification")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--id", dest="identity", default="all",
                   choices=(*JOBS, "all"))
    p.add_argument("--format", dest="fmt", choices=("human", "json"), default="human")

    p = sub.add_parser("crosscheck", help="check Catalan values against a b-file")
    p.set_defaults(run=_cmd_crosscheck)
    p.add_argument("--bfile", required=True)

    for command, flag, dest, _, _ in BOUNDS:
        if command == "verify":
            sub.choices[command].add_argument(flag, dest=dest, type=int,
                                              default=getattr(RunConfig, dest))
        else:
            sub.choices[command].add_argument(flag, dest=dest, type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        check_bounds(args.command, args)
    except ValueError as exc:
        return _usage_error(exc)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
