"""In-process tracing of the library layers, from the benchmark's own files.

`Tracer.install` wraps public functions of gevrey_kit with timing wrappers
and rebinds every module attribute that refers to the original, since the
library binds these names with from-imports.  Each call of a wrapped
function becomes a span (name, start, end, parent span, job id); the hot
leaf kernels are aggregated as count plus time instead.  Spans stay in
memory; `write` dumps them as JSON lines at the end of a run.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

#: (module, attribute) pairs of the traced public functions
SPANNED = [
    ("problem", "parse_problem"), ("problem", "assemble_B"),
    ("sector", "spectrum"),
    ("series", "mat_series_inverse"),
    ("zsolver", "solve_coeffs_z"), ("zsolver", "evaluate_f"),
    ("zsolver", "ode_residual_z"),
    ("epssolver", "solve_a0"), ("epssolver", "build_T0"),
    ("epssolver", "solve_ai"), ("epssolver", "solve_eps_expansion"),
    ("gevrey", "remainder_profile"), ("gevrey", "sup_norm_disc"),
    ("gevrey", "gevrey_fit"),
    ("borel", "borel_transform"), ("borel", "pade_continue"),
    ("borel", "laplace_sum"), ("borel", "optimal_truncation_sum"),
    ("riccati", "shifted_reference"),
]
#: hot leaves, counted and timed in aggregate
AGGREGATED = [("series", "multilinear_apply")]
#: hot methods, counted and timed in aggregate
AGGREGATED_METHODS = [("series", "MatSeries", "apply_vec")]


@dataclass
class Span:
    id: int
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - self.child


def _observe(name: str, span: Span, args, kwargs, result, error) -> None:
    """Record the attributes the per-layer ratios need."""
    if name == "epssolver.solve_ai":
        span.attrs["i"] = args[2] if len(args) > 2 else kwargs["i"]
    elif name == "zsolver.solve_coeffs_z":
        span.attrs["K"] = args[2] if len(args) > 2 else kwargs["K"]
    elif name == "borel.pade_continue" and result is not None:
        span.attrs["full"] = sum(o == result.requested for o in result.orders)
        span.attrs["components"] = len(result.orders)
    elif name == "borel.laplace_sum":
        clearance = (result.pole_clearance if result is not None
                     else getattr(error, "clearance", None))
        if clearance is not None:
            span.attrs["clearance"] = float(clearance)


class Tracer:
    """Collects spans and leaf aggregates while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.job = ""
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                _observe(name, span, args, kwargs, result, error)
                self.close(span)
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg = self.leaves[name]
                agg[0] += 1
                agg[1] += dt
                if self.stack:
                    self.stack[-1].child += dt
        return wrapper

    def open(self, name: str) -> Span:
        span = Span(id=len(self.spans), name=name, job=self.job,
                    parent=self.stack[-1].id if self.stack else None,
                    start=perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.dur

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = [m for key, m in list(sys.modules.items())
                if key == "gevrey_kit" or key.startswith("gevrey_kit.")]
        for modname, attr in SPANNED + AGGREGATED:
            orig = getattr(importlib.import_module(f"gevrey_kit.{modname}"), attr)
            make = self._leaf_wrapper if (modname, attr) in AGGREGATED else self._span_wrapper
            wrapped = make(f"{modname}.{attr}", orig)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for modname, cls_name, attr in AGGREGATED_METHODS:
            cls = getattr(importlib.import_module(f"gevrey_kit.{modname}"), cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._leaf_wrapper(f"{modname}.{cls_name}.{attr}", orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- output -------------------------------------------------------------

    def write(self, fh) -> None:
        """Append the spans and leaf aggregates as JSON lines."""
        for s in self.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "job": s.job,
                                 "parent": s.parent, "start": s.start, "end": s.end,
                                 "self": s.self_time, **s.attrs}) + "\n")
        for name, (count, total) in sorted(self.leaves.items()):
            fh.write(json.dumps({"aggregate": name, "calls": count, "s": total}) + "\n")


#: every per-layer metric with its unit; `.s` is inclusive time, `.self_s`
#: excludes traced children, `.calls` counts calls in one batch
PER_LAYER_UNITS = {
    "series.MatSeries.apply_vec.s": "s", "series.MatSeries.apply_vec.calls": "count",
    "series.mat_series_inverse.s": "s",
    "series.multilinear_apply.s": "s", "series.multilinear_apply.calls": "count",
    "epssolver.solve_a0.self_s": "s", "epssolver.build_T0.self_s": "s",
    "epssolver.solve_ai.self_s": "s", "epssolver.solve_ai.calls": "count",
    "epssolver.order_growth": "ratio",
    "epssolver.solve_eps_expansion.self_s": "s",
    "epssolver.solve_eps_expansion.calls": "count",
    "zsolver.solve_coeffs_z.self_s": "s", "zsolver.solve_coeffs_z.calls": "count",
    "zsolver.orders": "count",
    "zsolver.evaluate_f.s": "s", "zsolver.ode_residual_z.s": "s",
    "gevrey.remainder_profile.self_s": "s", "gevrey.sup_norm_disc.s": "s",
    "gevrey.gevrey_fit.s": "s",
    "borel.borel_transform.s": "s", "borel.pade_continue.s": "s",
    "borel.laplace_sum.s": "s", "borel.laplace_sum.calls": "count",
    "borel.optimal_truncation_sum.s": "s",
    "borel.pade_full_order_frac": "ratio", "borel.pole_clearance_min": "borel_t",
    "riccati.shifted_reference.s": "s",
    "problem.parse_problem.s": "s", "problem.assemble_B.s": "s",
    "problem.assemble_B.calls": "count", "sector.spectrum.s": "s",
    "cli.main.self_s": "s", "cli.import_s": "s", "cli.startup_s": "s",
    "cli.blas1_wall_ratio": "ratio", "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[Span], leaves: dict) -> dict[str, float]:
    """Per-layer numbers of one traced batch, every key of PER_LAYER_UNITS
    except the cli.* numbers measured outside the spans."""
    total = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.dur
        self_t[s.name] += s.self_time
        calls[s.name] += 1
    out: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        name, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = leaves[name][1] if name in leaves else total[name]
        elif kind == "self_s":
            out[metric] = self_t[name]
        elif kind == "calls":
            out[metric] = leaves[name][0] if name in leaves else calls[name]

    out["zsolver.orders"] = sum(s.attrs["K"] for s in spans
                                if s.name == "zsolver.solve_coeffs_z")
    # solve_ai self time at order I over order ceil(I/2), summed over the
    # expansions that reach the largest I
    per_expansion = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.name == "epssolver.solve_ai":
            per_expansion[s.parent][s.attrs["i"]] += s.self_time
    top = max((max(orders) for orders in per_expansion.values()), default=0)
    deep = [orders for orders in per_expansion.values() if max(orders) == top]
    half = sum(o[math.ceil(top / 2)] for o in deep)
    out["epssolver.order_growth"] = sum(o[top] for o in deep) / half if half else 0.0
    pade = [s.attrs for s in spans if s.name == "borel.pade_continue" and s.attrs]
    comps = sum(a["components"] for a in pade)
    out["borel.pade_full_order_frac"] = sum(a["full"] for a in pade) / comps if comps else 0.0
    clear = [s.attrs["clearance"] for s in spans
             if s.name == "borel.laplace_sum" and "clearance" in s.attrs]
    # 0 when no Laplace sum ran; 1e300 when no continuation had a pole
    out["borel.pole_clearance_min"] = min(min(clear), 1e300) if clear else 0.0
    return out
