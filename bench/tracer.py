"""Spans around camsmeta's public functions, installed from outside the package.

A ``Tracer`` replaces each traced function by a wrapper under every name the
package binds it to (the defining module and each module that imported it),
and replaces the ``GaussianMixture1D.cdf``/``quantile`` and
``FitResult.functional_mixture`` class attributes. Each call appends one span
``[name, start, end, parent]`` to an in-memory list; ``parent`` is the index of
the enclosing span, or -1. Nothing is written until ``write_spans``.

``layer_metrics`` turns the spans into the per-layer metrics: total and self
seconds per span name (self = duration minus the direct child spans), call
counts, and a few computed counts. The self times of all spans add up to the
total duration of the ``io_cli.main`` spans, so the per-module self times
account for the traced wall time without a remainder.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

import numpy as np

# (module, function) pairs wrapped wherever the package binds the name.
FUNCTIONS = (
    ("io_cli", "load_csv"),
    ("inference", "fit_cams"),
    ("inference", "fit_bim"),
    ("inference", "fit_bms"),
    ("inference", "fit_overall"),
    ("inference", "interaction_trace"),
    ("reporting", "optimal_if"),
    ("reporting", "_closeness"),
    ("reporting", "overall_if"),
    ("reporting", "effects_at"),
    ("reporting", "marginalize_prevalence"),
    ("reporting", "bayes_risk"),
    ("verify", "check_equivalence"),
    ("verify", "check_bayes_optimum"),
    ("verify", "check_k_sufficiency"),
    ("verify", "check_kronecker"),
    ("verify", "simulate"),
)

# (module, class, method) wrapped on the class itself.
METHODS = (
    ("gaussmix", "GaussianMixture1D", "quantile"),
    ("gaussmix", "GaussianMixture1D", "cdf"),
    ("inference", "FitResult", "functional_mixture"),
)

MAIN = "io_cli.main"
LAYERS = ("io_cli", "inference", "gaussmix", "reporting", "verify")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


ALL_SPANS = ((MAIN,) + tuple(span_name(m, f) for m, f in FUNCTIONS)
             + tuple(span_name(m, meth) for m, _, meth in METHODS))


class Tracer:
    """Records nested spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.cdf_component_evals = 0
        self.fit_cams_alloc_peak = 0
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def _count_cdf(self, cdf):
        @functools.wraps(cdf)
        def counted(mix, x):
            self.cdf_component_evals += int(np.size(x)) * int(mix.weights.size)
            return cdf(mix, x)
        return counted

    def _alloc_peak(self, fn):
        """Peak bytes traced by tracemalloc during each call, kept as a max.

        tracemalloc runs only inside the call, so the rest of the traced run
        pays no allocation-tracking cost."""
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.fit_cams_alloc_peak = max(self.fit_cams_alloc_peak, peak)
        return measured

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function and method of the imported package."""
        import camsmeta  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sys.modules.items() if m is not None
                   and (n == "camsmeta" or n.startswith("camsmeta."))]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"camsmeta.{mod_name}"], attr)
            fn = original
            if attr == "fit_cams":
                fn = self._alloc_peak(fn)
            wrapped = self.wrap(span_name(mod_name, attr), fn)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"camsmeta.{mod_name}"], cls_name)
            fn = cls.__dict__[meth]
            if meth == "cdf":
                fn = self._count_cdf(fn)
            self._set(cls, meth, self.wrap(span_name(mod_name, meth), fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict:
        return layer_metrics(self.spans, self.cdf_component_evals,
                             self.fit_cams_alloc_peak)


def layer_metrics(spans: list, cdf_component_evals: int = 0,
                  fit_cams_alloc_peak: int = 0) -> dict:
    """Per-layer metrics from a finished span list (see module docstring)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = dict.fromkeys(ALL_SPANS, 0.0)
    self_time = dict.fromkeys(ALL_SPANS, 0.0)
    calls = dict.fromkeys(ALL_SPANS, 0)
    cdf_in_quantile = [0.0, 0.0, 0]  # total, self, calls
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_time[name] += dur - child_time[i]
        calls[name] += 1
        if name == "gaussmix.cdf" and parent >= 0 and \
                spans[parent][0] == "gaussmix.quantile":
            cdf_in_quantile[0] += dur
            cdf_in_quantile[1] += dur - child_time[i]
            cdf_in_quantile[2] += 1

    out = {}
    for name in ALL_SPANS:
        if name == MAIN:
            out["io_cli.self_s"] = self_time[name]
        elif name != "gaussmix.cdf":
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = self_time[name]
    out["gaussmix.cdf_in_quantile_s"] = cdf_in_quantile[0]
    out["gaussmix.cdf_in_quantile_self_s"] = cdf_in_quantile[1]
    out["gaussmix.cdf_direct_s"] = total["gaussmix.cdf"] - cdf_in_quantile[0]
    out["gaussmix.cdf_direct_self_s"] = \
        self_time["gaussmix.cdf"] - cdf_in_quantile[1]

    for name in ("inference.fit_cams", "inference.functional_mixture",
                 "gaussmix.quantile", "gaussmix.cdf", "verify.check_equivalence"):
        out[f"{name}_calls"] = calls[name]
    out["gaussmix.cdf_calls_per_quantile"] = (
        cdf_in_quantile[2] / calls["gaussmix.quantile"]
        if calls["gaussmix.quantile"] else 0.0)
    out["gaussmix.cdf_component_evals"] = cdf_component_evals
    out["inference.fit_cams_alloc_peak_mb"] = fit_cams_alloc_peak / 2 ** 20

    for layer in LAYERS:
        out[f"layer.{layer}_self_s"] = sum(
            v for k, v in self_time.items() if k.split(".")[0] == layer)
    out["trace.wall_s"] = total[MAIN]
    return out
