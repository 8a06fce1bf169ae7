"""Span tracing of the program's layers, installed from outside the program.

Each target is a public function or method of one `catalan_ode` module.
Its wrapper records a span (name, start, end, parent) in memory.  The
wrapper replaces the original wherever it is bound: in its module or class,
and under every other `catalan_ode` module name that holds the same object,
because modules such as `identities` and `cli` bind what they call with
`from` imports.  A target whose module or attribute no longer exists is
reported as absent, with zero time and zero calls.

Spans assume one thread, which is how the workloads run the program.
"""
from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

PACKAGE = "catalan_ode"


# (module, attribute path, span name); "{mode}" in a name is filled in from
# the call's mode argument, which splits thm1/thm3 into series and symbolic.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("runner", "emit_report", "cli.emit"),
    ("runner", "run_suite", "runner.run_suite"),
    ("identities", "verify_thm1", "identities.thm1_{mode}"),
    ("identities", "verify_thm3", "identities.thm3_{mode}"),
    ("identities", "verify_thm2", "identities.thm2"),
    ("identities", "verify_thm4", "identities.thm4"),
    ("identities", "verify_inverse_delta", "identities.eq57"),
    ("identities", "verify_sqrt_expansion", "identities.eq58"),
    ("identities", "report_eq59", "identities.eq59"),
    ("identities", "report_eq62", "identities.eq62"),
    ("identities", "verify_convolution_recurrences", "identities.conv"),
    ("identities", "verify_asymptotic", "identities.asymptotic"),
    ("series", "Series.__mul__", "series.mul"),
    ("series", "Series.derivative", "series.derivative"),
    ("series", "binomial_power_series", "series.binomial_power"),
    ("series", "first_mismatch", "series.first_mismatch"),
    ("series", "unit_inverse", "series.unit_inverse"),
    ("algebraic", "AlgebraicElement.__mul__", "algebraic.mul"),
    ("algebraic", "AlgebraicElement.derivative", "algebraic.derivative"),
    ("algebraic", "AlgebraicElement.inverse", "algebraic.inverse"),
    ("algebraic", "AlgebraicElement.is_zero", "algebraic.is_zero"),
    ("algebraic", "AlgebraicElement.to_series", "algebraic.to_series"),
    ("algebraic", "poly_gcd", "algebraic.poly_gcd"),
    ("coefficients", "a_table_recurrence", "coefficients.table"),
    ("coefficients", "b_table_recurrence", "coefficients.table"),
    ("catalan", "higher_catalan", "catalan.higher_catalan"),
    ("catalan", "catalan_closed", "catalan.catalan_closed"),
    ("exact", "binomial_general", "exact.binomial_general"),
    ("exact", "falling_factorial", "exact.falling_factorial"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    name.format(mode=mode) for _, _, name in TARGETS for mode in ("series", "symbolic")
))

OVERHEAD_METRIC = "trace.overhead_s"


def _metric_names(span: str) -> tuple[str, str]:
    """(self-time metric, count metric) of a span.  run_suite's self time is
    the runner's dispatch; its inclusive time is reported on its own."""
    if span == "runner.run_suite":
        return "runner.dispatch_s", "runner.run_suite_calls"
    return f"{span}_s", f"{span}_calls"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in SPAN_NAMES:
        time_name, count_name = _metric_names(span)
        out += [(time_name, "s"), (count_name, "count")]
    out += [("runner.run_suite_s", "s"), (OVERHEAD_METRIC, "s")]
    return out


class Tracer:
    """In-memory span recorder for the wrappers it installs."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.absent: list[str] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        split = "{mode}" in name

        def wrapper(*args, **kwargs):
            span = name
            if split:
                span = name.format(mode=kwargs["mode"] if "mode" in kwargs else args[1])
            idx = len(spans)
            spans.append([span, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, path, name in targets:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = self._wrap(original, name)
            holders = [m for key, m in list(sys.modules.items())
                       if key == PACKAGE or key.startswith(PACKAGE + ".")]
            if isinstance(owner, type):
                holders.append(owner)  # also catches aliases like __rmul__
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def layers(self) -> dict[str, float]:
        """Self time and call count per span name; absent names read 0."""
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out = {}
        for span in SPAN_NAMES:
            time_name, count_name = _metric_names(span)
            out[time_name] = 0.0
            out[count_name] = 0
        out["runner.run_suite_s"] = 0.0
        for (span, start, end, _), own in zip(self.spans, self_time):
            time_name, count_name = _metric_names(span)
            out[time_name] = out.get(time_name, 0.0) + own
            out[count_name] = out.get(count_name, 0) + 1
            if span == "runner.run_suite":
                out["runner.run_suite_s"] += end - start
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in s, parent index."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
