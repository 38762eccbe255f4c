"""Spans around frenetsim's layers, recorded from outside the package.

A span wraps a module binding: the global name a frenetsim module calls
through, such as frenetsim.cli.frenet_apparatus or
frenetsim.curves.series_mul. Every binding of the same object in any
loaded frenetsim module is wrapped, so calls between the package's own
modules are seen too, and no file of the package is edited. Spans are
kept in memory while the run lasts and aggregated at its end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

# (span name, module of the binding, attribute): the layer boundaries
LAYERS = (
    ("cli.write_table", "cli", "_write_table"),
    ("curves.curve_from_csv", "curves", "curve_from_csv"),
    ("curves.spline_fit", "curves", "make_interp_spline"),
    ("curves.arclength_reparam", "curves", "arclength_reparam"),
    ("curves.parameter_speeds", "curves", "parameter_speeds"),
    ("curves.arclength_jet", "curves", "arclength_jet"),
    ("curves.frenet_apparatus", "curves", "frenet_apparatus"),
    ("curves.field_derivative", "curves", "field_derivative"),
    ("series.series_mul", "series", "series_mul"),
    ("series.series_reciprocal", "series", "series_reciprocal"),
    ("series.series_sqrt", "series", "series_sqrt"),
    ("series.series_compose", "series", "series_compose"),
    ("series.series_derivative", "series", "series_derivative"),
    ("series.flow_series", "series", "flow_series"),
    ("series.jet_to_derivatives", "series", "jet_to_derivatives"),
    ("indicatrix.indicatrix_curve", "indicatrix", "indicatrix_curve"),
    ("indicatrix.sabban_geodesic_curvature", "indicatrix",
     "sabban_geodesic_curvature"),
    ("indicatrix.indicatrix_to_csv", "indicatrix", "indicatrix_to_csv"),
    ("signatures.shape_curvatures", "signatures", "shape_curvatures"),
    ("signatures.similarity_test", "signatures", "similarity_test"),
    ("signatures.signature_distance", "signatures", "signature_distance"),
    ("transforms.apply_similarity", "transforms", "apply_similarity"),
    ("jsonio.render", "jsonio", "render"),
)
# a span opened directly inside the span named here records nothing: its
# time stays in that span's self time (field_derivative fits its own spline)
FOLD_INTO = {"curves.spline_fit": "curves.field_derivative"}


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for name, _, _ in LAYERS:
        names += [f"{name}.ms", f"{name}.calls"]
    return names + ["series.ms", "cli.self.ms", "trace.overhead_pct"]


class Tracer:
    """Records spans while installed; a context manager per traced op.

    A span is [op, name, start_ns, end_ns, parent span index or -1]. A
    call that re-enters the span already open on top of the stack (the
    recursion inside jsonio.render), or that opens inside the span
    FOLD_INTO names for it, folds into that span and records nothing.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._bindings = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "frenetsim" or name.startswith("frenetsim.")]
        for name, module, attr in LAYERS:
            target = getattr(importlib.import_module(f"frenetsim.{module}"),
                             attr, None)
            if target is None:
                continue
            wrapper = self._wrap(name, target)
            for m in modules:
                if vars(m).get(attr) is target:
                    self._bindings.append((m, attr, target, wrapper))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        folds = {name, FOLD_INTO.get(name)}

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and spans[stack[-1]][1] in folds:
                return fn(*args, **kwargs)
            rec = [self._op, name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()

        return span

    def op(self, op_id: int) -> "Tracer":
        self._op = op_id
        return self

    def __enter__(self):
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, target, _ in self._bindings:
            setattr(m, attr, target)
        self._stack.clear()
        return False

    def summary(self, scale: dict, op_seconds: float) -> dict:
        """Per-op self time (ms) and calls of every layer, over the traced ops.

        scale maps each traced op to the factor that brings its times to
        the reference speed; op_seconds is those ops' total latency at
        that speed. What no span covers is reported as cli.self.ms.
        """
        self_ns, calls = Counter(), Counter()
        top_ns = 0.0
        for op, name, t0, t1, parent in self.spans:
            dur = (t1 - t0) * scale[op]
            self_ns[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_ns[self.spans[parent][1]] -= dur
            else:
                top_ns += dur
        ops = len(scale)
        out = {}
        for name, _, _ in LAYERS:
            out[f"{name}.ms"] = self_ns[name] / ops / 1e6
            out[f"{name}.calls"] = calls[name] / ops
        out["series.ms"] = sum(v for k, v in self_ns.items()
                               if k.startswith("series.")) / ops / 1e6
        out["cli.self.ms"] = (op_seconds * 1e9 - top_ns) / ops / 1e6
        return out
