"""Span tracer for the traced benchmark run; the untraced run never imports it.

``Tracer`` wraps each traced public function of opendicke in every module
namespace that binds it (a function imported by name into another module
is wrapped there too), and every public function of ``numpy.linalg``.
Each call appends a span [name, start, end, parent, error] to a list in
memory; ``write`` saves the list at the end.  All per-module metrics are
derived from the spans:

* ``<name>.us`` / ``.ms``: median self time per call, i.e. the span minus
  the traced opendicke spans directly inside it (numpy.linalg spans are
  counted, not subtracted);
* ``<name>.calls``: calls in the traced round;
* ``<module>.raised`` and ``<module>.raised.<Type>``: exceptions escaping a
  traced function, counted once, at the innermost traced function they
  escaped from;
* ``linalg.calls_per_point``: numpy.linalg calls per parameter point.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy.linalg

# Traced function -> (metric suffix, seconds-to-unit factor, unit).
TRACED = {
    "model.solve_mean_field": ("us", 1e6, "us"),
    "fluctuations.build_stability_matrix": ("us", 1e6, "us"),
    "fluctuations.decompose": ("us", 1e6, "us"),
    "fluctuations.mode_correlations": ("us", 1e6, "us"),
    "fluctuations.system_moments": ("us", 1e6, "us"),
    "fluctuations.spectrum_scan": ("ms", 1e3, "ms"),
    "groundstate.ground_state_moments": ("us", 1e6, "us"),
    "entanglement.quad_covariance": ("us", 1e6, "us"),
    "entanglement.log_negativity": ("us", 1e6, "us"),
    "analysis.exponent_fit": ("us", 1e6, "us"),
    "analysis.figure_scan": ("self_ms", 1e3, "ms"),
    "oracle.lyapunov_moments": ("us", 1e6, "us"),
    "oracle.fock_ground_state": ("ms", 1e3, "ms"),
    "cli.run": ("self_ms", 1e3, "ms"),
}

# Error types each module's traced functions raise themselves.
RAISED = {
    "model": ("NoThreshold", "DegenerateBranch", "NumericalFailure"),
    "fluctuations": ("DefectiveMatrix", "DegenerateBranch", "DivergentSteadyState",
                     "NumericalFailure", "UnstableState"),
    "groundstate": ("DynamicalInstability", "NumericalFailure"),
    "entanglement": ("NumericalFailure",),
    "analysis": ("InvalidCurve",),
    "oracle": ("CutoffTooSmall", "DivergentSteadyState", "NumericalFailure",
               "UnstableState"),
    "cli": (),
}

LINALG = "numpy.linalg."


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._last_error = None

    def _layer(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                # Only the innermost traced function the error escapes from
                # counts it; outer spans see the same object pass through.
                if err is not self._last_error:
                    span[4] = type(err).__name__
                    self._last_error = err
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def _counted(self, name, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append([name, start, time.perf_counter(),
                              stack[-1] if stack else -1, None])
        return counted

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "opendicke" or key.startswith("opendicke.")]
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(sys.modules[f"opendicke.{module}"], func)
            wrapper = self._layer(name, original)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapper)
        for attr in numpy.linalg.__all__:
            value = getattr(numpy.linalg, attr)
            if callable(value) and not isinstance(value, type):
                self._patch(numpy.linalg, attr, self._counted(LINALG + attr, value))
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()
        self._last_error = None
        return False

    def metrics(self, points: int) -> dict[str, tuple[float, str]]:
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and not name.startswith(LINALG):
                children[parent] += end - start
        self_times: dict[str, list[float]] = {name: [] for name in TRACED}
        raised = {m: 0 for m in RAISED}
        raised_by_type = {f"{m}.raised.{t}": 0 for m, ts in RAISED.items() for t in ts}
        linalg_calls = 0
        for (name, start, end, _, error), covered in zip(self.spans, children):
            if name.startswith(LINALG):
                linalg_calls += 1
                continue
            self_times[name].append(end - start - covered)
            if error is not None:
                module = name.split(".")[0]
                raised[module] += 1
                key = f"{module}.raised.{error}"
                if key in raised_by_type:
                    raised_by_type[key] += 1
        out: dict[str, tuple[float, str]] = {}
        for name, (suffix, factor, unit) in TRACED.items():
            times = self_times[name]
            out[f"{name}.{suffix}"] = (
                statistics.median(times) * factor if times else 0.0, unit)
            out[f"{name}.calls"] = (len(times), "count")
        for module in RAISED:
            out[f"{module}.raised"] = (raised[module], "count")
            for t in RAISED[module]:
                key = f"{module}.raised.{t}"
                out[key] = (raised_by_type[key], "count")
        out["linalg.calls_per_point"] = (linalg_calls / points, "calls/point")
        return out

    def write(self, path: str) -> None:
        """One JSON list per line: name, start and end in seconds from the
        first span, parent index (-1 for none), escaping error type."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, error in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9),
                                     round(end - origin, 9), parent, error]))
                fh.write("\n")
