"""Benchmark of the catalan-ode verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  A run measures whole rounds for about S seconds: each round
is one workload execution in a fresh interpreter (see child.py), so every
round pays the program's cold caches as a CLI user does, followed by a few
interpreters that only import the program, to time set-up.  Every output is
checked (see workloads.py).  The last line of standard output is one JSON
object: with --trace 0 the medians over rounds of wall_s, cpu_s,
peak_rss_mb and setup_s; with --trace 1 the per-layer self times and
counts of traced rounds, each round paired with an untraced one so the
tracing overhead can be reported.  Per-round figures go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # per round, besides each round's own interpreter
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, trace_file: str = "-") -> dict:
    env = dict(os.environ)
    env.pop("CATALAN_ODE_THREADS", None)
    # Byte code is cached, as for an installed package; the first probe of a
    # run writes it, untimed.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, workload, str(seed), trace_file],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _check(workload: str, seed: int, result: dict) -> tuple[int, int]:
    if workload in workloads.CLI_WORKLOADS:
        return workloads.check_cli(workloads.CLI_WORKLOADS[workload],
                                   result["exit"], result["stdout"])
    return workloads.check_mutation(workloads.mutation_plan(seed), result["results"])


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + seconds
    _spawn("probe", seed)  # compiles the byte code once, untimed
    setups = []
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{workload}.jsonl")
    plain, traced_rounds = [], []
    attempted = failed = 0
    absent: set[str] = set()
    while True:
        round_start = time.monotonic()
        batch = [(plain, "-")] + ([(traced_rounds, trace_file)] if traced else [])
        for sink, target in batch:
            result = _spawn(workload, seed, target)
            n_ops, n_failed = _check(workload, seed, result)
            attempted += n_ops
            failed += n_failed
            absent.update(result.get("absent", ()))
            sink.append(result)
            setups.append(result["setup_s"])
            print(json.dumps({"round": len(plain), "traced": target != "-",
                              "failed": n_failed,
                              **{k: result[k] for k in ("setup_s", "wall_s", "cpu_s",
                                                         "peak_rss_mb")}}),
                  file=sys.stderr)
        # Set-up is sampled across the whole run, not in one burst, because
        # the machine's speed drifts over tens of seconds.
        setups += [_spawn("probe", seed)["setup_s"] for _ in range(SETUP_PROBES)]
        now = time.monotonic()
        # Stop where the run ends nearest to the deadline.
        if deadline - now < (now - round_start) / 2:
            break

    def median(rounds, key, unit="s"):
        # median_low keeps a count a whole number of one round.
        pick = statistics.median_low if unit == "count" else statistics.median
        return pick(r[key] for r in rounds)

    if traced:
        metrics = {name: {"value": median([r["layers"] for r in traced_rounds], name, unit),
                          "unit": unit}
                   for name, unit in spans.per_layer_metrics()
                   if name != spans.OVERHEAD_METRIC}
        # Paired within a round, so slow drift of the machine's speed cancels.
        metrics[spans.OVERHEAD_METRIC] = {
            "value": statistics.median(t["wall_s"] - p["wall_s"]
                                       for t, p in zip(traced_rounds, plain)),
            "unit": "s"}
        if absent:
            print(json.dumps({"absent": sorted(absent)}))
    else:
        metrics = {
            "wall_s": {"value": median(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": median(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": median(plain, "peak_rss_mb"), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "catalan_ode", "__init__.py")):
        print(f"error: no catalan_ode sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
