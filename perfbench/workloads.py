"""Workload definitions and the output checks that judge them.

Each CLI workload is a set of `verify` flags.  The reports a run must
contain are derived here from those flags and the CLI defaults, never from
recorded output, so a check cannot drift along with the program.  The
mutation workload is a list of calls built from the seed; its expected
witnesses are computed with `math.comb` and `math.factorial` only.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

# `catalan-ode verify` defaults, as documented in the project README.
CLI_DEFAULTS = {
    "max-N": 8,
    "order": 64,
    "max-n": 20,
    "terms-eq59": 500,
    "terms-eq62": 2000,
    "conv-max": 200,
}

# thm2/thm4 rows are capped at N <= 6 by the runner, whatever --max-N says.
THM24_MAX_N = 6

# Flags passed on top of `verify --id all --format json`.
CLI_WORKLOADS = {
    "suite-default": {},
    "symbolic-deep": {"max-N": 14, "order": 22, "terms-eq59": 2,
                      "terms-eq62": 1, "conv-max": 2, "max-n": 1},
    "numeric-deep": {"max-N": 6, "order": 14, "max-n": 40, "terms-eq59": 2000,
                     "terms-eq62": 3000, "conv-max": 400},
}

MUTATION_WORKLOAD = "mutation-reject"
MUTATION_MAX_N = 8
MUTATION_EXTRA_ORDER = 8  # series mode runs at K = N + 8, the smallest allowed

WORKLOADS = tuple(CLI_WORKLOADS) + (MUTATION_WORKLOAD,)


def cli_argv(flags: dict) -> list[str]:
    argv = ["verify", "--id", "all", "--format", "json"]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    return argv


def _key(identity, params, mode):
    return identity, tuple(sorted(params.items())), mode


def expected_reports(flags: dict) -> list[tuple]:
    """Every (id, parameters, mode) report `verify --id all` must emit."""
    s = {**CLI_DEFAULTS, **flags}
    big_n, order = s["max-N"], s["order"]
    keys = []
    for ident in ("thm1", "thm3"):
        for n in range(1, big_n + 1):
            keys.append(_key(ident, {"N": n, "K": order}, "series"))
            keys.append(_key(ident, {"N": n}, "symbolic"))
    for n in range(1, min(big_n, THM24_MAX_N) + 1):
        for m in range(s["max-n"] + 1):
            keys.append(_key("thm2", {"n": m, "N": n}, "numeric"))
            keys.append(_key("thm4", {"k": m, "N": n}, "numeric"))
    for n in range(1, big_n + 1):
        keys.append(_key("eq57", {"N": n}, "numeric"))
    keys += [
        _key("eq58", {"K": order}, "series"),
        _key("eq59", {"terms": s["terms-eq59"]}, "numeric"),
        _key("eq62", {"terms": s["terms-eq62"]}, "numeric"),
        _key("eq64", {"nmax": s["conv-max"]}, "numeric"),
        _key("eq66", {"nmax": s["conv-max"]}, "numeric"),
        _key("asymptotic", {"n": 1000}, "numeric"),
    ]
    return keys


def check_cli(flags: dict, exit_code, stdout: str) -> tuple[int, int]:
    """(attempted, failed) for one CLI invocation.

    One operation is one expected report.  A missing, failed, extra or
    duplicated report fails one operation; a nonzero exit status with no
    failed report fails them all, since the CLI then contradicts itself.
    """
    expected = Counter(expected_reports(flags))
    try:
        reports = json.loads(stdout)["reports"]
        seen = Counter(_key(r["id"], r["parameters"], r["mode"]) for r in reports)
        passed = Counter(_key(r["id"], r["parameters"], r["mode"])
                         for r in reports if r["passed"] is True)
    except (ValueError, KeyError, TypeError, AttributeError):
        seen = passed = Counter()
    unexpected = sum((seen - expected).values())
    attempted = sum(expected.values()) + unexpected
    good = sum((passed & expected).values())
    failed = attempted - good
    if exit_code != 0 and failed == 0:
        failed = attempted
    return attempted, failed


def mutation_plan(seed: int) -> list[dict]:
    """One call per (family, N, entry, mode): every entry of rows 1..8 of
    the a-table (thm1) and of the b-table (thm3) is shifted in turn by a
    nonzero integer delta in [-99, 99] drawn from the seed."""
    rng = random.Random(seed)
    plan = []
    for family, ident in (("a", "thm1"), ("b", "thm3")):
        for n in range(1, MUTATION_MAX_N + 1):
            entries = range(1, n + 1) if family == "a" else range(0, n // 2 + 1)
            for i in entries:
                for mode in ("symbolic", "series"):
                    delta = rng.randint(1, 99) * rng.choice((-1, 1))
                    plan.append({"identity": ident, "family": family, "N": n,
                                 "i": i, "mode": mode, "delta": delta,
                                 "order": n + MUTATION_EXTRA_ORDER})
    return plan


def mutated_table(table, call: dict):
    """`table` (a `CoeffTable`) with the entry `call` names shifted by delta."""
    rows = [list(r) for r in table.rows]
    rows[call["N"] - 1][call["i"] - (call["family"] == "a")] += call["delta"]
    return type(table)(table.family, tuple(map(tuple, rows)))


def verify_call(package, call: dict, table):
    """Run one mutated call through the library's public verifier."""
    if call["identity"] == "thm1":
        return package.verify_thm1(call["N"], call["mode"], call["order"], a_table=table)
    return package.verify_thm3(call["N"], call["mode"], call["order"], b_table=table)


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def expected_witness(call: dict) -> tuple[int, int]:
    """(lhs, rhs - lhs) at coefficient 0 of a mutated call.

    thm1: lhs is the N-th derivative of C at 0, N! C_N, and the shifted
    summand delta (1-4t)^(...) C^(i+1) starts with delta.
    thm3: lhs is N! C^(N+1) at 0, N!, and the shifted summand
    delta (1-4t)^(N/2-i) (d/dt)^(N-i) C starts with delta (N-i)! C_(N-i).
    """
    n, i, delta = call["N"], call["i"], call["delta"]
    if call["identity"] == "thm1":
        return factorial(n) * _catalan(n), delta
    return factorial(n), delta * factorial(n - i) * _catalan(n - i)


def check_mutation(plan: list[dict], results: list) -> tuple[int, int]:
    """(attempted, failed): each call must be rejected with witness index
    "0" whose lhs and rhs - lhs match `expected_witness`."""
    failed = 0
    for k, call in enumerate(plan):
        res = results[k] if k < len(results) else None
        try:
            witness = res["witness"]
            lhs, rhs = Fraction(witness["lhs"]), Fraction(witness["rhs"])
            ok = (res["passed"] is False and witness["index"] == "0"
                  and (lhs, rhs - lhs) == expected_witness(call))
        except (TypeError, KeyError, ValueError, ZeroDivisionError):
            ok = False
        failed += not ok
    return len(plan), failed
