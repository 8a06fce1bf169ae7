"""One run of one workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE_FILE|-

The program is imported from `src/` of the checkout, so it is timed cold,
as a CLI user pays for it: `higher_catalan`'s power cache and the
`lru_cache` of `s_number` start empty.  WORKLOAD "probe" only imports the
program.  Prints one JSON object: the monotonic clock when the program was
ready, and for a workload the wall and CPU time of its calls, the peak
resident set, the program's outputs and, when TRACE_FILE is given, the
per-layer times and counts (its spans go to TRACE_FILE).
"""
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    workload, seed, trace_file = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import catalan_ode
    import catalan_ode.cli
    ready = time.monotonic()

    import contextlib
    import io
    import json
    import traceback

    import workloads

    if workload == "probe":
        print(json.dumps({"ready": ready}))
        return 0

    out = {"ready": ready}
    if workload in workloads.CLI_WORKLOADS:
        argv = workloads.cli_argv(workloads.CLI_WORKLOADS[workload])
    else:
        plan = workloads.mutation_plan(seed)
        tables = {"a": catalan_ode.a_table_recurrence(workloads.MUTATION_MAX_N),
                  "b": catalan_ode.b_table_recurrence(workloads.MUTATION_MAX_N)}
        inputs = [workloads.mutated_table(tables[call["family"]], call) for call in plan]

    tracer = None
    if trace_file != "-":
        import spans
        tracer = spans.Tracer()
        tracer.install()

    cpu0 = _cpu_s()
    start = time.perf_counter()
    if workload in workloads.CLI_WORKLOADS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                out["exit"] = catalan_ode.cli.main(argv)
            except SystemExit as exc:
                out["exit"] = exc.code
            except Exception:
                traceback.print_exc()
                out["exit"] = None
        out["stdout"] = buf.getvalue()
    else:
        results = []
        for call, table in zip(plan, inputs):
            try:
                rep = workloads.verify_call(catalan_ode, call, table)
                results.append({"passed": rep.passed, "witness": rep.witness})
            except Exception:
                traceback.print_exc()
                results.append(None)
        out["results"] = results
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        out["layers"] = tracer.layers()
        out["absent"] = tracer.absent
        tracer.write(trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
