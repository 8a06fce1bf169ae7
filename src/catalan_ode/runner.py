"""Verification-suite assembly, report emission, and `BOUNDS`, the range of
every integer CLI flag, with `check_bounds`, the one check that reads it.

`JOBS` is the suite: one row per identity id, with the name of its verifier
in `identities`, looked up at call time, the kinds of shared table its jobs
read, and its argument grid, a function of the `RunConfig` and of
`table(kind, *key)`, which builds a table by the `identities` function that
`BUILDERS` names, once per (kind, key) per run, when a selected grid first
asks for it.  A job is plain data, an identity id and its verifier's
arguments, the tables last; a verifier called alone builds its own, or
reads the `series_table` or `ring_table` memoised in `identities`, so a job
reads the same elements either way.  `run_suite` runs the jobs one after
another in one thread, times each into its report's `cost` (the table
builds are not in it), and always sorts the reports the same way, which
keeps the JSON output byte-deterministic (elapsed times are in the human
table only).
"""
from __future__ import annotations

import json
from functools import cache
from time import perf_counter

from . import identities as ids
from .identities import VerificationReport

JSON_SCHEMA_VERSION = "1"

# (subcommand, flag, argparse dest, smallest, largest accepted value) of
# every integer flag of the CLI; `verify`'s dests are the RunConfig fields.
# The CLI declares each flag from its row, `verify`'s with RunConfig's
# defaults.  The upper bounds keep every number printed within Python's
# 4300-digit int -> str limit and every `verify` grid to seconds, not hours.
# --order's smallest value is the smallest --max-N plus 8; RunConfig.validate
# relates the two when a check that reads the `series_table` runs, as only
# those read both.
BOUNDS = (
    ("catalan", "--max", "max", 0, 2500),
    ("higher", "--r", "r", 1, 1000),
    ("higher", "--max", "max", 0, 2000),
    ("coeffs", "--max-N", "max_n", 1, 200),
    ("crosscheck", "--max", "max", 0, 2500),
    ("verify", "--max-N", "max_n_deriv", 1, 40),
    ("verify", "--order", "series_order", 9, 512),
    ("verify", "--max-n", "max_index", 1, 200),
    ("verify", "--terms-eq59", "terms_eq59", 2, 10000),
    ("verify", "--terms-eq62", "terms_eq62", 1, 10000),
    ("verify", "--conv-max", "conv_max", 2, 1000),
)


def check_bounds(command: str, values) -> None:
    """Raise ValueError naming the first integer flag of `command` whose
    value, the attribute of `values` named by its dest, is out of range."""
    for cmd, flag, dest, lo, hi in BOUNDS:
        if cmd != command:
            continue
        if getattr(values, dest) < lo:
            raise ValueError(f"{flag} must be at least {lo}")
        if getattr(values, dest) > hi:
            raise ValueError(f"{flag} must be at most {hi}")


# The number identities thm2/thm4 check rows N <= min(max_n_deriv, NUMBER_MAX_N).
NUMBER_MAX_N = 6


class RunConfig:
    """The bounds of one `verify` run.  Its fields are the `verify` dests of
    BOUNDS, set by keyword; each default is the class attribute below."""

    max_n_deriv = 8      # N bound for thm1/thm3/eq57
    series_order = 64    # truncation order K
    max_index = 20       # n/k bound for thm2/thm4
    terms_eq59 = 500
    terms_eq62 = 2000
    conv_max = 200       # n bound for the convolution recurrences

    def __init__(self, **values: int):
        fields = [dest for cmd, _, dest, _, _ in BOUNDS if cmd == "verify"]
        unknown = values.keys() - set(fields)
        if unknown:
            raise TypeError(f"RunConfig() got unexpected keyword arguments {sorted(unknown)}")
        for name in fields:
            setattr(self, name, values.get(name, getattr(RunConfig, name)))

    def validate(self, identity: str = "all") -> None:
        check_bounds("verify", self)
        if self.series_order < self.max_n_deriv + 8 and any(
                "series" in reads for _, (_, reads, _) in _rows(identity)):
            raise ValueError("series order K must be at least max N + 8")


def _ode_grid(coeffs: str):
    """The thm1/thm3 grid: N = 1..max-N in both modes, on the `coeffs` table
    and each mode's own table, the `series_table` or the `ring_table`."""
    return lambda cfg, table: [
        (N, mode, cfg.series_order, table(coeffs, cfg.max_n_deriv), ode)
        for mode, ode in (("series", table("series", cfg.max_n_deriv, cfg.series_order)),
                          ("symbolic", table("ring", cfg.max_n_deriv)))
        for N in range(1, cfg.max_n_deriv + 1)]


def _number_grid(identity: str, coeffs: str):
    """The thm2/thm4 grid: n = 0..max-n on each row N of the grid's
    `number_table`, on the `coeffs` table."""
    def grid(cfg, table):
        rows = table("number", identity, min(cfg.max_n_deriv, NUMBER_MAX_N), cfg.max_index)
        coeff_table = table(coeffs, cfg.max_n_deriv)
        return [(n, N, coeff_table, row)
                for N, row in enumerate(rows, 1) for n in range(cfg.max_index + 1)]
    return grid


def _conv_grid(cfg, table):
    """The one eq64/eq66 job, on the `conv_table` of conv-max."""
    return [(cfg.conv_max, table("conv", cfg.conv_max))]


# identity id -> (verifier name, kinds of shared table read, argument grid)
JOBS = {
    "thm1": ("verify_thm1", ("a", "series", "ring"), _ode_grid("a")),
    "thm2": ("verify_thm2", ("a", "number"), _number_grid("thm2", "a")),
    "thm3": ("verify_thm3", ("b", "series", "ring"), _ode_grid("b")),
    "thm4": ("verify_thm4", ("b", "number"), _number_grid("thm4", "b")),
    "eq57": ("verify_inverse_delta", ("a", "b"), lambda cfg, table: [
        (N, table("a", cfg.max_n_deriv), table("b", cfg.max_n_deriv))
        for N in range(1, cfg.max_n_deriv + 1)]),
    "eq58": ("verify_sqrt_expansion", (), lambda cfg, table: [(cfg.series_order,)]),
    "eq59": ("report_eq59", (), lambda cfg, table: [(cfg.terms_eq59,)]),
    "eq62": ("report_eq62", (), lambda cfg, table: [(cfg.terms_eq62,)]),
    "eq64": ("verify_eq64", ("conv",), _conv_grid),
    "eq66": ("verify_eq66", ("conv",), _conv_grid),
    "asymptotic": ("verify_asymptotic", (), lambda cfg, table: [()]),
}

# kind of shared table -> name of its builder in `identities`, looked up at
# call time; the table's key is the builder's arguments
BUILDERS = {"a": "a_table_recurrence", "b": "b_table_recurrence",
            "series": "series_table", "ring": "ring_table",
            "number": "number_table", "conv": "conv_table"}


def _rows(identity: str) -> list[tuple[str, tuple]]:
    """The (id, row) items of JOBS of one identity id, or of all of them."""
    if identity != "all" and identity not in JOBS:
        raise ValueError(f"unknown identity {identity!r}")
    return [(ident, row) for ident, row in JOBS.items() if identity in (ident, "all")]


def _jobs(identity: str, cfg: RunConfig) -> list[tuple[str, tuple]]:
    """(identity, verifier arguments) of every check of one identity, or of
    all of them, with the shared tables of the selected grids built here."""
    table = cache(lambda kind, *key: getattr(ids, BUILDERS[kind])(*key))
    return [(ident, args) for ident, (_, _, grid) in _rows(identity)
            for args in grid(cfg, table)]


def _sort_key(r: VerificationReport):
    return (r.identity, tuple(sorted(r.parameters.items())), r.mode)


def run_suite(identity: str, cfg: RunConfig) -> list[VerificationReport]:
    """Run one identity (or 'all') under the given configuration and return
    deterministically ordered reports."""
    cfg.validate(identity)
    reports = []
    for ident, args in _jobs(identity, cfg):
        verify = getattr(ids, JOBS[ident][0])
        start = perf_counter()
        report = verify(*args)
        report.cost = perf_counter() - start
        reports.append(report)
    return sorted(reports, key=_sort_key)


def report_to_dict(r: VerificationReport) -> dict:
    # Elapsed time is deliberately excluded so the JSON is byte-stable.
    out = {
        "id": r.identity,
        "parameters": r.parameters,
        "mode": r.mode,
        "passed": r.passed,
    }
    if not r.passed:
        out["witness"] = r.witness or {}
    return out


def emit_report(reports: list[VerificationReport], fmt: str) -> str:
    if fmt == "json":
        payload = {
            "version": JSON_SCHEMA_VERSION,
            "reports": [report_to_dict(r) for r in reports],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if fmt != "human":
        raise ValueError(f"unknown format {fmt!r}")
    rows = [("identity", "parameters", "mode", "result", "time")]
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
        rows.append((r.identity, params, r.mode,
                     "PASS" if r.passed else "FAIL", f"{r.cost:.3f}s"))
    # one subtotal row per identity: checks passed of checks run, summed time
    totals: dict[str, tuple[int, int, float]] = {}
    for r in reports:
        count, passed, cost = totals.get(r.identity, (0, 0, 0.0))
        totals[r.identity] = (count + 1, passed + r.passed, cost + r.cost)
    rows += [(ident, "subtotal", "", f"{passed}/{count}", f"{cost:.3f}s")
             for ident, (count, passed, cost) in totals.items()]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    failures = [r for r in reports if not r.passed]
    lines.append(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    for r in failures:
        lines.append(f"FAIL {r.identity} {r.parameters}: witness {r.witness}")
    return "\n".join(lines)
