"""Self-test of the benchmark's output checks and tracer.

    python3 perfbench/selftest.py

Runs the program in process on small inputs, confirms that the checks
accept its real outputs, then tampers with those outputs and confirms that
each tampering is counted as exactly the failed operations it should be.
Also confirms that the tracer survives wrapped names that do not exist and
that BENCHMARK.json lists the workloads and per-layer metrics the code
reports.  Exits 1 on the first mismatch.
"""
import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import catalan_ode  # noqa: E402
from catalan_ode import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {"max-N": 2, "order": 10, "max-n": 2, "terms-eq59": 2,
         "terms-eq62": 1, "conv-max": 2}


def expect(label, got, want):
    if got != want:
        print(f"FAIL {label}: got {got}, want {want}")
        sys.exit(1)
    shown = f"{len(got)} items" if isinstance(got, list) and len(got) > 4 else got
    print(f"ok   {label}: {shown}")


def run_cli(flags):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(workloads.cli_argv(flags))
    return code, buf.getvalue()


def tampered(stdout, edit):
    payload = json.loads(stdout)
    edit(payload["reports"])
    return json.dumps(payload)


def cli_checks():
    expect("reports at default settings", len(workloads.expected_reports({})), 298)
    for name, count in (("symbolic-deep", 100), ("numeric-deep", 528)):
        expect(f"reports of {name}",
               len(workloads.expected_reports(workloads.CLI_WORKLOADS[name])), count)

    code, out = run_cli(SMALL)
    n = len(workloads.expected_reports(SMALL))
    expect("real CLI output", workloads.check_cli(SMALL, code, out), (n, 0))

    def flip(reports):
        reports[3]["passed"] = False

    def drop(reports):
        del reports[0]

    def duplicate(reports):
        reports.append(copy.deepcopy(reports[-1]))

    def extra(reports):
        reports.append({"id": "thm1", "parameters": {"N": 99}, "mode": "symbolic",
                        "passed": True})

    def wrong_param(reports):
        reports[0]["parameters"] = {k: v + 1 for k, v in reports[0]["parameters"].items()}

    cases = (("report flipped to false", flip, (n, 1)),
             ("report dropped", drop, (n, 1)),
             ("report duplicated", duplicate, (n + 1, 1)),
             ("extra report", extra, (n + 1, 1)),
             ("report with wrong parameters", wrong_param, (n + 1, 2)))
    for label, edit, want in cases:
        expect(label, workloads.check_cli(SMALL, 0, tampered(out, edit)), want)
    expect("nonzero exit status", workloads.check_cli(SMALL, 1, out), (n, n))
    expect("unparseable output", workloads.check_cli(SMALL, 0, "Traceback"), (n, n))


def mutation_checks():
    plan = [c for c in workloads.mutation_plan(5) if c["N"] <= 3]
    expect("plan size", len(workloads.mutation_plan(5)), 120)
    tables = {"a": catalan_ode.a_table_recurrence(3), "b": catalan_ode.b_table_recurrence(3)}
    results = []
    for call in plan:
        table = workloads.mutated_table(tables[call["family"]], call)
        rep = workloads.verify_call(catalan_ode, call, table)
        results.append({"passed": rep.passed, "witness": rep.witness})
    n = len(plan)
    expect("real mutation results", workloads.check_mutation(plan, results), (n, 0))

    def edit(k, change):
        out = copy.deepcopy(results)
        change(out[k])
        return workloads.check_mutation(plan, out)

    def passes(r):
        r.update(passed=True, witness=None)

    def rhs_off_by_one(r):
        r["witness"]["rhs"] = str(Fraction(r["witness"]["rhs"]) + 1)

    def lhs_off_by_one(r):
        r["witness"]["lhs"] = str(Fraction(r["witness"]["lhs"]) - 1)

    def index_off_by_one(r):
        r["witness"]["index"] = "1"

    for label, change in (("mutation that passes", passes),
                          ("witness rhs off by one", rhs_off_by_one),
                          ("witness lhs off by one", lhs_off_by_one),
                          ("witness index off by one", index_off_by_one)):
        for k in (0, n - 1):  # a thm1 call and a thm3 call
            expect(f"{label} ({plan[k]['identity']} {plan[k]['mode']})",
                   edit(k, change), (n, 1))
    expect("missing results", workloads.check_mutation(plan, results[:-2]), (n, 2))


def tracer_checks():
    missing = (("series", "no_such_function", "series.gone"),
               ("no_such_module", "f", "gone.f"))
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS + missing)
    expect("absent names", tracer.absent, ["series.no_such_function", "no_such_module.f"])
    run_cli(SMALL)
    layers = tracer.layers()
    names = [name for name, _ in spans.per_layer_metrics() if name != spans.OVERHEAD_METRIC]
    expect("layer metrics reported", sorted(layers), sorted(names))
    expect("cli.main traced once", layers["cli.main_calls"], 1)
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    self_total = sum(v for k, v in layers.items() if k.endswith("_s")
                     and k != "runner.run_suite_s")
    expect("self times add up to the root spans", abs(self_total - roots) < 1e-6, True)


def manifest_checks():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    expect("workloads in BENCHMARK.json", [w["name"] for w in manifest["workloads"]],
           list(workloads.WORKLOADS))
    expect("per-layer metrics in BENCHMARK.json",
           [(m["name"], m["unit"]) for m in manifest["per_layer"]],
           spans.per_layer_metrics())


if __name__ == "__main__":
    cli_checks()
    mutation_checks()
    tracer_checks()
    manifest_checks()
    print("checker self-test passed")
