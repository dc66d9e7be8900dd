"""Span tracing of quasiherm from outside the library.

Every public function is wrapped at every module namespace that binds it
(``eigendecompose`` is bound in ``spectral``, ``models``, ``evolution`` and
``factorization``), plus ``Expression.sample`` and ``Report.to_json`` /
``Report.to_csv`` (together ``models.render``).  A span is named
``<module>.<function>`` after the module that defines the function.  Spans
are kept in memory; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "models", "evolution", "factorization", "metrics",
          "spectral", "family", "expressions", "operators")

# Serialization helpers run once per number; their time belongs to
# models.render (or to parse_model's digest), and wrapping them would make
# tracing cost more than the work it measures.
UNWRAPPED = {"models.format_float", "models.canonical_json", "models.jsonable"}


def _dense_bytes(result) -> int:
    """16 N^2 for a dense N x N operator, the size of a complex matrix."""
    if isinstance(result, np.ndarray) and result.ndim == 2:
        return 16 * result.shape[0] ** 2
    return 0


# counters recorded at a span boundary: name -> (counter, f(args, result))
COUNTERS = {
    "spectral.eigendecompose":
        ("spectral.eig_n3_sum", lambda args, res: np.shape(args[0])[0] ** 3),
    "expressions.sample":
        ("expressions.points_sampled", lambda args, res: np.size(args[1])),
    "evolution.norm_traces":
        ("evolution.trace_points", lambda args, res: len(res)),
    "models.render": ("models.report_bytes", lambda args, res: len(res)),
    "operators.parity_matrix":
        ("family.dense_bytes_computed", lambda args, res: _dense_bytes(res)),
}


class Tracer:
    """Collects (name, start, end, parent, call) spans in memory."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.call = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("family."):
            counter = ("family.dense_bytes_computed",
                       lambda args, res: _dense_bytes(res))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.call)
            if counter is not None:
                counters[counter[0]] += counter[1](args, result)
            return result
        return traced

    def install(self) -> None:
        """Replace every public quasiherm function by its traced wrapper."""
        package = importlib.import_module("quasiherm")
        modules = {layer: importlib.import_module(f"quasiherm.{layer}")
                   for layer in LAYERS}
        namespaces = list(modules.values()) + [package]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or name in UNWRAPPED):
                    continue
                wrapper = self.wrap(name, obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, bound, wrapper)
        expr_cls = modules["expressions"].Expression
        expr_cls.sample = self.wrap("expressions.sample", expr_cls.sample)
        report_cls = modules["models"].Report
        report_cls.to_json = self.wrap("models.render", report_cls.to_json)
        report_cls.to_csv = self.wrap("models.render", report_cls.to_csv)

    def totals(self) -> tuple[dict, dict]:
        """Call counts and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _, _), kids in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (t1 - t0) - kids
        return calls, self_s
