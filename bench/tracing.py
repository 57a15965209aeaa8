"""Spans and counts around the public functions of each nullrec module.

``Tracer.install`` replaces every public function of the seven modules, in
every ``nullrec`` namespace that imported it, by a wrapper.  Most wrappers
record a span (name, start, end, parent); the functions the Euler loop and
the quadrature integrand call per step or per point only count calls and
evaluated elements, since a span each would cost more than the call.
``Capture`` is the light form used with tracing off: it keeps the arguments
and results of the harness's ensemble and moment-matrix calls for the output
checks and times nothing.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time

LAYERS = ("simulate", "basis", "model", "estimators", "limits", "harness", "cli")

# score_at lives in simulate but is estimator work: the likelihood ratio calls it.
LAYER_OF = {"score_at": "estimators"}

# Called per Euler step or per quadrature point: count only.
COUNT_ONLY = {
    "basis": ("principal_f1", "sinc"),
    "model": ("invariant_density",),
}
# Argument checks and the antiderivative, called once or more per quadrature
# point from inside model; a wrapper would cost more than they do.
UNWRAPPED = ("require_valid_theta", "theta_in_domain", "antiderivative_F")

QUADRATURE = ("mu_integral", "mu_moment_matrix", "information_scale_matrix")
LIMIT_DRAWS = ("sample_limit_error", "monte_carlo_risk")


def _replace_everywhere(original, replacement) -> None:
    """Rebind `original` in every nullrec namespace and module-level dispatch dict."""
    for name, module in list(sys.modules.items()):
        if name != "nullrec" and not name.startswith("nullrec."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement


def _n_steps(horizon: float, dt: float) -> int:
    return int(math.floor(horizon / dt + 1e-9))


class Capture:
    """Keeps the harness's run_ensemble and mu_moment_matrix calls."""

    def __init__(self):
        self.ensembles = []       # (kwargs with positional names, result)
        self.moment_matrices = [] # (window, matrix)

    def install(self) -> None:
        import nullrec.harness as harness

        run_ensemble = harness.run_ensemble
        mu_moment_matrix = harness.mu_moment_matrix
        names = list(inspect.signature(run_ensemble).parameters)

        def ensemble(*args, **kwargs):
            res = run_ensemble(*args, **kwargs)
            self.ensembles.append((dict(zip(names, args), **kwargs), res))
            return res

        def moments(spec, theta, window=None):
            mat = mu_moment_matrix(spec, theta, window=window)
            self.moment_matrices.append((window, mat))
            return mat

        harness.run_ensemble = ensemble
        harness.mu_moment_matrix = moments

    def lane_steps(self) -> int:
        return sum(call["replications"] * _n_steps(call["horizon"], call["dt"])
                   for call, _ in self.ensembles)


class Tracer:
    """In-memory spans of one traced round; written out by ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans = []           # [name, start, end, parent]
        self.stack = []
        self.calls = {}           # "layer.func" -> calls
        self.evals = {}           # "layer.func" -> elements evaluated
        self.draws = 0

    # ---------------------------------------------------------- wrapping
    def install(self) -> None:
        import importlib

        for layer in LAYERS:
            module = importlib.import_module(f"nullrec.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or name in UNWRAPPED):
                    continue
                qual = f"{LAYER_OF.get(name, layer)}.{name}"
                self.calls[qual] = 0
                if name in COUNT_ONLY.get(layer, ()):
                    wrapper = self._counter(qual, fn, elements=layer == "basis")
                else:
                    wrapper = self._spanner(qual, fn)
                _replace_everywhere(fn, wrapper)

    def _counter(self, qual, fn, elements: bool):
        """Count calls; for the basis functions, whose one argument is x, also elements."""
        import numpy as np

        calls, evals = self.calls, self.evals
        evals[qual] = 0
        ndarray = np.ndarray

        if elements:
            @functools.wraps(fn)
            def wrapper(x):
                if self.active:
                    calls[qual] += 1
                    evals[qual] += x.size if type(x) is ndarray else 1
                return fn(x)
        else:
            @functools.wraps(fn)
            def wrapper(*args):
                if self.active:
                    calls[qual] += 1
                return fn(*args)

        return wrapper

    def _spanner(self, qual, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        signature = inspect.signature(fn)
        name = qual.split(".", 1)[1]
        count_draws = name in LIMIT_DRAWS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[qual] += 1
            if count_draws and not (stack and spans[stack[-1]][0].startswith("limits.")):
                arguments = signature.bind(*args, **kwargs).arguments
                self.draws += int(arguments.get("size") or arguments.get("n") or 1)
            span = [qual, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    # ------------------------------------------------------------ output
    def dump(self, path) -> None:
        """Write the spans as gzip JSON: one id for the run, one row per span."""
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": [[i, s[0], s[1], s[2], s[3]] for i, s in enumerate(self.spans)],
            "calls": self.calls,
            "evals": self.evals,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def layer_metrics(self, lane_steps: int) -> dict:
        """Self time, calls and work counts per layer, plus the named busy times.

        ``lane_steps`` comes from the Capture of the harness's ensemble calls.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        def outermost(i, names=None):
            """Span i is the first of its layer (or of `names`) on its stack."""
            p = spans[i][3]
            while p is not None:
                if (names is None and layer(p) == layer(i)) or (
                        names is not None and spans[p][0].split(".", 1)[1] in names):
                    return False
                p = spans[p][3]
            return True

        def busy(layer_name, names=None):
            return sum(end - start for i, (qual, start, end, _) in enumerate(spans)
                       if qual.split(".", 1)[0] == layer_name
                       and (names is None or qual.split(".", 1)[1] in names)
                       and outermost(i, names))

        out = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = sum(
                end - start - child_time[i]
                for i, (qual, start, end, _) in enumerate(spans)
                if qual.split(".", 1)[0] == name)
            out[f"{name}.calls"] = sum(v for k, v in self.calls.items()
                                       if k.split(".", 1)[0] == name)
        out["simulate.busy_s"] = busy("simulate", ("run_ensemble",))
        out["simulate.lane_steps"] = lane_steps
        out["simulate.ns_per_lane_step"] = (
            1e9 * out["simulate.busy_s"] / lane_steps if lane_steps else 0.0)
        out["basis.evals"] = sum(v for k, v in self.evals.items() if k.startswith("basis."))
        out["model.busy_s"] = busy("model")
        out["model.quadrature_s"] = busy("model", QUADRATURE)
        out["model.density_evals"] = self.calls["model.invariant_density"]
        out["estimators.busy_s"] = busy("estimators")
        out["estimators.us_per_call"] = (
            1e6 * out["estimators.busy_s"] / out["estimators.calls"]
            if out["estimators.calls"] else 0.0)
        out["limits.busy_s"] = busy("limits", LIMIT_DRAWS)
        out["limits.draws"] = self.draws
        out["limits.ns_per_draw"] = (
            1e9 * out["limits.busy_s"] / self.draws if self.draws else 0.0)
        out["cli.emit_s"] = busy("cli", ("emit_report",))
        out["trace.spans"] = len(spans)
        return out
