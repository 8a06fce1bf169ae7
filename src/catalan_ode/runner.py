"""Verification-suite assembly and report emission.

Jobs are pure functions run one after another in one thread; the final
report list is always sorted the same way, which keeps the JSON output
byte-deterministic (elapsed times are reported in the human table only,
never in JSON).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import identities as ids
from .coefficients import a_table_recurrence, b_table_recurrence
from .identities import IDENTITY_IDS, VerificationReport

JSON_SCHEMA_VERSION = "1"

# (flag, RunConfig field, largest accepted value).  At these bounds the
# slowest single checks (series thm1 at N = 40, K = 512; eq64/eq66 at 1000)
# take seconds rather than hours; the eq59/eq62 sums at 10000 terms take
# well under a second.
UPPER_BOUNDS = (
    ("--max-N", "max_n_deriv", 40),
    ("--order", "series_order", 512),
    ("--max-n", "max_index", 200),
    ("--terms-eq59", "terms_eq59", 10000),
    ("--terms-eq62", "terms_eq62", 10000),
    ("--conv-max", "conv_max", 1000),
)


@dataclass
class RunConfig:
    max_n_deriv: int = 8      # N bound for thm1/thm3/eq57
    series_order: int = 64    # truncation order K
    max_index: int = 20       # n/k bound for thm2/thm4
    terms_eq59: int = 500
    terms_eq62: int = 2000
    conv_max: int = 200       # n bound for the convolution recurrences
    fmt: str = "human"

    def validate(self) -> None:
        if self.max_n_deriv < 1 or self.max_index < 1 or self.conv_max < 2:
            raise ValueError("all bounds must be >= 1 (conv bound >= 2)")
        if self.terms_eq59 < 2 or self.terms_eq62 < 1:
            raise ValueError("sum term counts too small")
        if self.series_order < self.max_n_deriv + 8:
            raise ValueError("series order K must be at least max N + 8")
        for flag, name, cap in UPPER_BOUNDS:
            if getattr(self, name) > cap:
                raise ValueError(f"{flag} must be at most {cap}")
        if self.fmt not in ("human", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")


def _jobs_for(identity: str, cfg: RunConfig):
    jobs = []
    if identity == "thm1":
        a_tab = a_table_recurrence(cfg.max_n_deriv)
        for n in range(1, cfg.max_n_deriv + 1):
            for mode in ("series", "symbolic"):
                jobs.append(lambda n=n, mode=mode: ids.verify_thm1(
                    n, mode, cfg.series_order, a_table=a_tab))
    elif identity == "thm2":
        for big_n in range(1, min(cfg.max_n_deriv, 6) + 1):
            for n in range(cfg.max_index + 1):
                jobs.append(lambda n=n, big_n=big_n: ids.verify_thm2(n, big_n))
    elif identity == "thm3":
        b_tab = b_table_recurrence(cfg.max_n_deriv)
        for n in range(1, cfg.max_n_deriv + 1):
            for mode in ("series", "symbolic"):
                jobs.append(lambda n=n, mode=mode: ids.verify_thm3(
                    n, mode, cfg.series_order, b_table=b_tab))
    elif identity == "thm4":
        for big_n in range(1, min(cfg.max_n_deriv, 6) + 1):
            for k in range(cfg.max_index + 1):
                jobs.append(lambda k=k, big_n=big_n: ids.verify_thm4(k, big_n))
    elif identity == "eq57":
        for n in range(1, cfg.max_n_deriv + 1):
            jobs.append(lambda n=n: ids.verify_inverse_delta(n))
    elif identity == "eq58":
        jobs.append(lambda: ids.verify_sqrt_expansion(cfg.series_order))
    elif identity == "eq59":
        jobs.append(lambda: ids.report_eq59(cfg.terms_eq59))
    elif identity == "eq62":
        jobs.append(lambda: ids.report_eq62(cfg.terms_eq62))
    elif identity == "eq64":
        jobs.append(lambda: ids.verify_eq64(cfg.conv_max))
    elif identity == "eq66":
        jobs.append(lambda: ids.verify_eq66(cfg.conv_max))
    elif identity == "asymptotic":
        jobs.append(lambda: ids.verify_asymptotic())
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return jobs


def _sort_key(r: VerificationReport):
    return (r.identity, tuple(sorted(r.parameters.items())), r.mode)


def run_suite(identity: str, cfg: RunConfig) -> list[VerificationReport]:
    """Run one identity (or 'all') under the given configuration and return
    deterministically ordered reports."""
    cfg.validate()
    if identity == "all":
        jobs = []
        for ident in IDENTITY_IDS:
            jobs.extend(_jobs_for(ident, cfg))
    else:
        jobs = _jobs_for(identity, cfg)
    return sorted((job() for job in jobs), key=_sort_key)


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
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    failures = [r for r in reports if not r.passed]
    lines.append(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    for r in failures:
        lines.append(f"FAIL {r.identity} {r.parameters}: witness {r.witness}")
    return "\n".join(lines)
