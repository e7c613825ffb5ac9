"""Span tracing of the nopivot layers, installed from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules,
and the ``apply`` / ``materialize`` methods of the structured operator
classes, with wrappers that record one span per call.  The package is not
edited: calls between modules (``dense.spectral_norm_estimate`` from
``instances``) and inside a module (``pipeline.refine_once`` from
``pipeline.preconditioned_solve``) both look the name up at call time, so
they reach the wrapper.  Names bound with ``from x import y`` are not
traced; between layers the package binds that way only classes (the
operators' methods are replaced on the class itself) and
``is_power_of_two``.  Every original is restored when the block exits.

A span is ``(name, start, end, parent, trial)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``trial`` labels the unit of work
the span belongs to (one hard instance, or one verification suite).  Spans
stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

from nopivot import dense, experiments, factor, instances, pipeline, randgen, transforms, verify

LAYERS = (experiments, instances, randgen, dense, factor, transforms, pipeline, verify)
OPERATOR_CLASSES = (transforms.CirculantOperator, transforms.ToeplitzOperator, transforms.HankelOperator)
OPERATOR_METHODS = ("apply", "materialize")


def layer_name(module) -> str:
    return module.__name__.rpartition(".")[2]


def public_functions(module) -> list[str]:
    """Names of the functions a layer module defines and exports."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    )


def wrap_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) pair the tracer replaces."""
    targets = [(module, name) for module in LAYERS for name in public_functions(module)]
    targets += [(cls, method) for cls in OPERATOR_CLASSES for method in OPERATOR_METHODS]
    return targets


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


class Tracer:
    """Collects spans plus the counts that are measured at layer boundaries."""

    def __init__(self):
        self.spans: list = []
        self.trial: str | None = None
        self.instance_labels: dict = {}
        self.instance_calls: Counter = Counter()
        self.instance_attempts: list[int] = []
        self.genp_flops = 0.0
        self.solve_failures = 0
        self._open: list[int] = []

    # --- recording -------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        trial = self.trial
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, trial)

    def _wrapper(self, name: str, fn):
        tracer = self

        if name == "pipeline.apply_multiplier":

            def traced(mult, *args, **kwargs):
                if mult is None:
                    kind = "identity"
                elif isinstance(mult, np.ndarray):
                    kind = "dense"
                else:
                    kind = "structured"
                return tracer.call(f"{name}.{kind}", fn, (mult, *args), kwargs)

        elif name == "instances.hard_matrix":

            def traced(seed, n, *args, **kwargs):
                key = (seed, n)
                tracer.trial = tracer.instance_labels.get(key, f"{seed.master}/{seed.stream:x}/n{n}")
                tracer.instance_calls[key] += 1
                inst = tracer.call(name, fn, (seed, n, *args), kwargs)
                tracer.instance_attempts.append(inst.attempt)
                return inst

        elif name == "factor.genp_factor":

            def traced(a, *args, **kwargs):
                n = np.shape(a)[0]
                tracer.genp_flops += 2.0 * n**3 / 3.0
                return tracer.call(name, fn, (a, *args), kwargs)

        elif name == "pipeline.preconditioned_solve":

            def traced(*args, **kwargs):
                outcome = tracer.call(name, fn, args, kwargs)
                tracer.solve_failures += outcome.failure is not None
                return outcome

        elif name.startswith("verify.check_") or name == "experiments.run_residual_experiment":
            # A suite is one unit of work; a table's units are its instances.
            label = name if name.startswith("verify.") else None

            def traced(*args, **kwargs):
                tracer.trial = label
                return tracer.call(name, fn, args, kwargs)

        else:

            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer for the duration of the block."""
        saved = []
        try:
            for owner, attr in wrap_targets():
                original = vars(owner)[attr]
                if isinstance(owner, type):
                    name = f"transforms.{attr}"
                else:
                    name = f"{layer_name(owner)}.{attr}"
                setattr(owner, attr, self._wrapper(name, original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- summaries -------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(self seconds, inclusive seconds, calls) per span name."""
        own = defaultdict(float)
        inclusive = defaultdict(float)
        calls = Counter()
        for (name, start, end, _, _), s in zip(self.spans, self_times(self.spans)):
            own[name] += s
            inclusive[name] += end - start
            calls[name] += 1
        return own, inclusive, calls

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path, extra: dict) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {n: i for i, n in enumerate(names)}
        data = dict(extra)
        data["span_fields"] = ["name", "start", "end", "parent", "trial"]
        data["names"] = names
        data["spans"] = [[index[n], start, end, parent, trial] for n, start, end, parent, trial in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
