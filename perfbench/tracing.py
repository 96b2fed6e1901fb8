"""Per-layer spans around the public functions of `mudk`, from outside.

`install` rebinds the names through which the CLI reaches each layer
(`mudk.cli.boundary_points`, `mudk.boundary.hilbert_step_quantile`, ...)
and the public methods of the distribution classes to timing wrappers.
The CLI itself is unchanged and runs its own code path, so the traced
run computes exactly what the untraced run computes.

A span's self time is its duration minus the time of the spans opened
inside it.  Spans are aggregated by name as they close: the hot
distribution methods are called tens of thousands of times per run.
Only calls from the main thread are traced; the sampler's worker
threads call no wrapped function.
"""

from __future__ import annotations

import functools
import threading
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import mudk.boundary
import mudk.cli
import mudk.distributions

# (module, attribute, span name); the layer is the part before the dot.
_CLI_CALLS = [
    (mudk.cli, "normalize_support", "boundary.normalize_support"),
    (mudk.cli, "boundary_points", "boundary.boundary_points"),
    (mudk.cli, "scale_domain", "boundary.scale_domain"),
    (mudk.cli, "export_csv", "boundary.export_csv"),
    (mudk.cli, "export_svg", "boundary.export_svg"),
    (mudk.cli, "load_csv", "boundary.load_csv"),
    (mudk.cli, "build_measure", "discretize.build_measure"),
    (mudk.cli, "l1_distance", "discretize.l1_distance"),
    (mudk.cli, "rate_bound", "discretize.rate_bound"),
    (mudk.cli, "fourier_coefficients", "gross_map.fourier_coefficients"),
    (mudk.cli, "simulate_exit", "verify_mc.simulate_exit"),
    (mudk.cli, "ks_distance", "verify_mc.ks_distance"),
    (mudk.boundary, "parameter_grid", "boundary.parameter_grid"),
    (mudk.boundary, "hilbert_step_quantile", "hilbert.hilbert_step_quantile"),
]
_DIST_METHODS = ("cdf", "cdf_left", "quantile", "quantile_integral")
# Spans whose peak traced memory a memory pass records, and the metric it
# goes to.  tracemalloc runs only inside these spans, and only in a memory
# pass: it doubles the time of the Euler sampler, so a timing pass never
# runs it.
PEAK_SPANS = {"hilbert.hilbert_step_quantile": "hilbert.peak_mb",
              "gross_map.fourier_coefficients": "gross_map.peak_mb",
              "verify_mc.simulate_exit": "verify_mc.peak_mb"}


class Tracer:
    """Span statistics by name: calls, total seconds, self seconds.

    With `memory` set, the spans in PEAK_SPANS also record peak traced
    memory, and their times include tracemalloc's cost.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.peak_bytes = defaultdict(int)
        self.enabled = True
        self._stack: list[list[float]] = []
        self._main = threading.get_ident()
        self._hooks: dict[str, list] = defaultdict(list)

    def on_return(self, name: str, hook) -> None:
        """Call hook(args, kwargs, result) after each traced call of `name`."""
        self._hooks[name].append(hook)

    def call(self, name, fn, args, kwargs):
        if not self.enabled or threading.get_ident() != self._main:
            return fn(*args, **kwargs)
        children = [0.0]
        self._stack.append(children)
        peak = self.memory and name in PEAK_SPANS
        if peak:
            tracemalloc.start()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            if peak:
                self.peak_bytes[name] = max(self.peak_bytes[name],
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - children[0]
        for hook in self._hooks.get(name, ()):
            hook(args, kwargs, result)
        return result

    @contextmanager
    def paused(self):
        """Run work that is not part of the measured program untraced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".")[0] == layer)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer: Tracer) -> None:
    """Route the CLI's calls into each layer through `tracer`."""
    for module, attr, name in _CLI_CALLS:
        setattr(module, attr, _wrap(tracer, name, getattr(module, attr)))
    for cls in vars(mudk.distributions).values():
        if not (isinstance(cls, type) and issubclass(cls, mudk.distributions.Distribution)):
            continue
        for method in _DIST_METHODS:
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(cls, method, _wrap(tracer, f"distributions.{method}", fn))
