"""Verification-suite assembly, report emission, and `BOUNDS`, the range of
every integer CLI flag, with `check_bounds`, the one check that reads it.

A job is plain data: an identity id and the argument tuple of its verifier,
which `identities.VERIFIERS` names; thm1-thm4, eq64 and eq66 jobs carry
their grid's table as the last argument.  `run_suite` builds those tables,
then runs the jobs one after another in one thread, times each into its
report's `cost` (the one-off table build is not in it), and always sorts
the reports the same way, which keeps the JSON output byte-deterministic
(elapsed times are reported in the human table only, never in JSON).
"""
from __future__ import annotations

import json
from time import perf_counter

from . import identities as ids
from .coefficients import a_table_recurrence, b_table_recurrence
from .identities import IDENTITY_IDS, VerificationReport

JSON_SCHEMA_VERSION = "1"

# (subcommand, flag, argparse dest, smallest, largest accepted value) of
# every integer flag of the CLI; `verify`'s dests are the RunConfig fields.
# The CLI declares each flag from its row, `verify`'s with RunConfig's
# defaults.  At the upper bounds each other subcommand takes under a second
# and prints no number past Python's 4300-digit int -> str limit, and the
# slowest `verify` grids take seconds rather than hours: thm1 at max-N 40,
# K = 512, both modes with the table build, about 0.23 s and thm3 about
# 0.15 s, eq64 and eq66 at 1000 about 0.15 s each alone, nearly all of it
# the one self-square of `conv_table` they share, thm2 and thm4 at max-n 200
# and eq59 and eq62 at 10000 terms 0.005-0.01 s each, a passing report
# taking no exact split, and `verify --id all` with every flag at its bound
# about 0.5 s in process (CPython 3.11.7, one core of a 2-vCPU Intel Xeon VM
# whose speed drifts).
# --order's smallest value is the smallest --max-N plus 8; RunConfig.validate
# relates the two when thm1 or thm3, the only checks that read both, runs.
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
        if identity in ("thm1", "thm3", "all") and self.series_order < self.max_n_deriv + 8:
            raise ValueError("series order K must be at least max N + 8")


def _jobs(identity: str, cfg: RunConfig) -> list[tuple[str, tuple]]:
    """(identity, verifier arguments) of every check of one identity, or of
    all of them.  thm1-thm4 and eq57 share the one a and b table built here.
    Each selected grid's table is built here once and rides in its jobs as
    the last argument: one `ode_table` per mode that thm1 and thm3 share
    (its powers of C and its derivatives D^k C, so both grids take max-N
    derivatives in all, not one ladder of them per job), one thm2 or thm4
    `number_row` per row N, and one `conv_table` for eq64 and eq66.
    An unselected identity builds nothing, so the order rule of thm1/thm3
    binds only when they run."""
    if identity != "all" and identity not in ids.VERIFIERS:
        raise ValueError(f"unknown identity {identity!r}")
    a_tab = a_table_recurrence(cfg.max_n_deriv)
    b_tab = b_table_recurrence(cfg.max_n_deriv)
    rows = range(1, cfg.max_n_deriv + 1)
    number_rows = range(1, min(cfg.max_n_deriv, NUMBER_MAX_N) + 1)
    coeffs = {"thm1": a_tab, "thm2": a_tab, "thm3": b_tab, "thm4": b_tab}
    conv = ids.conv_table(cfg.conv_max) if identity in ("all", "eq64", "eq66") else None
    ode = ({mode: ids.ode_table(cfg.max_n_deriv, mode, cfg.series_order)
            for mode in ("series", "symbolic")}
           if identity in ("all", "thm1", "thm3") else None)
    fixed = {
        "eq57": [(N, a_tab, b_tab) for N in rows],
        "eq58": [(cfg.series_order,)],
        "eq59": [(cfg.terms_eq59,)],
        "eq62": [(cfg.terms_eq62,)],
        "eq64": [(cfg.conv_max, conv)],
        "eq66": [(cfg.conv_max, conv)],
        "asymptotic": [()],
    }
    jobs = []
    for ident in (IDENTITY_IDS if identity == "all" else (identity,)):
        if ident in ("thm1", "thm3"):
            jobs += [(ident, (N, mode, cfg.series_order, coeffs[ident], ode[mode]))
                     for mode in ("series", "symbolic") for N in rows]
        elif ident in ("thm2", "thm4"):
            for N in number_rows:
                row = ids.number_row(ident, N, cfg.max_index)
                jobs += [(ident, (n, N, coeffs[ident], row)) for n in range(cfg.max_index + 1)]
        else:
            jobs += [(ident, args) for args in fixed[ident]]
    return jobs


def _sort_key(r: VerificationReport):
    return (r.identity, tuple(sorted(r.parameters.items())), r.mode)


def run_suite(identity: str, cfg: RunConfig) -> list[VerificationReport]:
    """Run one identity (or 'all') under the given configuration and return
    deterministically ordered reports."""
    cfg.validate(identity)
    reports = []
    for ident, args in _jobs(identity, cfg):
        verify = getattr(ids, ids.VERIFIERS[ident])
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
