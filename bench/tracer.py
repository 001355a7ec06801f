"""Span tracer that wraps the public functions of the nldlab layers.

Tracing lives entirely in the benchmark: `Tracer.enable()` swaps every
public function of each layer module (and the methods listed in METHODS)
for a timing wrapper, in every nldlab module that holds a reference to it,
and `disable()` puts the originals back. Untraced operations therefore run
the unmodified program.

Each wrapper opens a span; a span's self time is its duration minus the
time covered by the spans it opened; its total time includes them. Per
operation the tracer keeps, for every wrapped name, the call count and the
summed self and total times, plus a few
exact counts read from results (see `_OBSERVERS`).
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

# `cli` is not a layer: it only parses arguments and calls `run_verify` and
# `dissipativity_probe`, which are traced here.
LAYERS = ("basis", "cutoffs", "model", "operators", "semiflow", "spectra", "verdict")
METHODS = {"basis": {"BasisLayout": ("synthesis_matrix", "analysis_matrix")}}

# Each S or P matvec in the IMEX step reads a dense M x dim float64 matrix;
# one step does three of them (S @ c, S @ u_x, P @ f).
MATVECS_PER_SEED_STEP = 3
FLOAT64_BYTES = 8


class Tracer:
    """Collects per-name call counts and self times while enabled."""

    def __init__(self):
        self._originals = []   # (owner, attribute, original, wrapper)
        self._stack = []       # child-time accumulators of the open spans
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.counts = {}
        self._build()

    def _build(self):
        modules = [importlib.import_module("nldlab")]
        modules += [importlib.import_module(f"nldlab.{m}") for m in LAYERS + ("cli",)]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nldlab.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                # An alias (cutoffs.w is cutoffs.omega) keeps its first name.
                if inspect.isfunction(fn) and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in names:
                    fn = cls.__dict__[attr]
                    self._originals.append((cls, attr, fn, self._wrap(f"{layer}.{attr}", fn)))
        # Rebind every reference, so `from .model import f` in semiflow is traced too.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._originals.append((mod, attr, value, wrappers[id(value)][1]))

    def _wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + elapsed - child
                total_s[name] = total_s.get(name, 0.0) + elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    def enable(self):
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        for owner, attr, _, wrapper in self._originals:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in self._originals:
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Calls, self and total times, and exact counts of the operation just traced."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": dict(self.counts)}


def _observe_eigenvalues(counts, args, kwargs, result):
    counts["spectra.eigenvalues.max_dim"] = max(counts.get("spectra.eigenvalues.max_dim", 0),
                                                len(result))


def _observe_integrate(counts, args, kwargs, traj):
    params = traj.params
    steps = int(round(traj.times[-1] / params.dt))
    lay = params.layout
    counts["semiflow.seed_steps"] = counts.get("semiflow.seed_steps", 0) + steps
    counts["basis.dense_transform_bytes"] = (
        counts.get("basis.dense_transform_bytes", 0)
        + steps * MATVECS_PER_SEED_STEP * FLOAT64_BYTES * lay.M * lay.dim)


def _observe_probe(counts, args, kwargs, report):
    counts["semiflow.failed_seeds"] = counts.get("semiflow.failed_seeds", 0) + len(report.failed)


def _observe_emit(counts, args, kwargs, paths):
    counts["verdict.report_bytes"] = (counts.get("verdict.report_bytes", 0)
                                      + sum(os.path.getsize(p) for p in paths.values()))


_OBSERVERS = {
    "spectra.eigenvalues": _observe_eigenvalues,
    "semiflow.integrate": _observe_integrate,
    "semiflow.dissipativity_probe": _observe_probe,
    "verdict.emit_reports": _observe_emit,
}
