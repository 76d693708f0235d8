"""Spans around the calls into critfield's layers, for the traced run.

The benchmark wraps the public functions of each module in its own process
and leaves critfield's source untouched.  A wrapper replaces the function
under every name a loaded critfield module binds it to, so calls between
layers (experiments -> field.synthesize, chaos -> randmat, ...) are spanned
too.  Spans stay in memory and are handed back when the round ends.

count_newton is run twice on each realization when traced: the first, cold
call fills the spline cache and is what the program uses; the second, warm
call on the same realization measures Newton work alone, so the difference
is the spline prefilter.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function) pairs whose calls are spanned; the span is named
# "<module>.<function>".
LAYER_FUNCTIONS = (
    ("spectrum", "spectral_moments"),
    ("field", "synthesize"),
    ("critpoints", "count_newton"),
    ("critpoints", "count_kacrice_smoothed"),
    ("randmat", "expect_functional_mc"),
    ("randmat", "expect_absdet_S"),
    ("chaos", "chaos2_coefficients"),
    ("chaos", "v2_infinity"),
    ("experiments", "run_clt"),
    ("experiments", "estimator_crosscheck"),
    ("experiments", "variance_scaling"),
    ("experiments", "normality_test"),
    ("experiments", "save_record"),
)


def computed_bytes(obj, seen=None) -> int:
    """Bytes of the numpy arrays reachable from obj's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else 0
    if isinstance(obj, dict):
        return sum(computed_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(computed_bytes(v, seen) for v in obj)
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None and type(obj).__module__.startswith("critfield"):
        return sum(computed_bytes(v, seen) for v in attrs.values())
    return 0


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self._synth: dict[int, dict] = {}  # id(realization) -> synthesize span

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def open(self, name: str, **attrs) -> dict:
        span = {
            "name": name,
            "start": self.now(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            **attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.now()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(fn, span, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of the layer functions in critfield."""
        loaded = [m for k, m in sys.modules.items() if k.split(".")[0] == "critfield"]
        for module, func in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"critfield.{module}"], func)
            traced = self._wrap(f"{module}.{func}", original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    # --- per-function annotations -------------------------------------------

    def _after_synthesize(self, fn, span, fr, args, kwargs):
        spec = kwargs["spec"] if "spec" in kwargs else args[1]
        span["level"] = float(spec.half_width)
        span["grid_points"] = int(spec.n_per_side**spec.m)
        span["bytes"] = computed_bytes(fr)
        self._synth[id(fr)] = span

    def _after_count_newton(self, fn, span, cps, args, kwargs):
        fr = kwargs["field"] if "field" in kwargs else args[0]
        span["level"] = float(fr.spec.half_width)
        span["points"] = int(cps.newton_count)
        span["failed_cells"] = int(cps.failed_cells)
        span["degenerate"] = len(cps.degenerate_flags)
        span["bytes"] = computed_bytes(fr)
        synth = self._synth.pop(id(fr), None)
        if synth is not None:
            span["realization_s"] = (synth["end"] - synth["start"]) + (
                span["end"] - span["start"]
            )
        warm = self.open("critpoints.count_newton.warm", level=span["level"])
        try:
            fn(*args, **kwargs)
        finally:
            self.close(warm)

    def _after_expect_functional_mc(self, fn, span, result, args, kwargs):
        span["samples"] = int(kwargs["n_samples"] if "n_samples" in kwargs else args[2])


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
