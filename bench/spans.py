"""Spans around sympcoh's public functions, installed from outside the package.

Each wrapped call records a span (parent link, name, start, end) while a
request is open; calls made outside a request are passed through untouched.
Consumer modules bind many names with ``from .linalg import rank``, so a
wrapper replaces every binding of the original function in every sympcoh
module, and methods are replaced on their class.  ``uninstall`` puts the
originals back, so traced and untraced passes can alternate in one process.

Self time of a span is its duration minus the durations of its children.
Work the tracer itself does (computing counters) is recorded as a child span
named ``trace.count``, so it is charged to no sympcoh function.
"""

import importlib
from collections import defaultdict
from math import comb
from time import perf_counter

MODULES = ("parser", "cli", "cec", "forms", "linalg", "symplectic", "acx", "morphism")

# Bitmask helpers called in the innermost loops; a span each would cost more
# than the work it measures.  Their time counts as the caller's self time.
UNWRAPPED = {"forms.merge_sign", "forms.mask_from_indices", "forms.indices_from_mask",
             "forms.basis_masks"}

# Methods traced under a short name: name -> (module, class, attribute).
METHODS = {
    "linalg.matmul": ("linalg", "RationalMatrix", "__matmul__"),
    "linalg.Subspace.init": ("linalg", "Subspace", "__init__"),
    "linalg.Subspace.contains": ("linalg", "Subspace", "contains"),
    "linalg.Subspace.intersect": ("linalg", "Subspace", "intersect"),
    "linalg.Subspace.sum": ("linalg", "Subspace", "sum"),
    "acx.derivation_matrix": ("acx", "AlmostComplexStructure", "derivation_matrix"),
    "symplectic.dlam_mat": ("symplectic", "SymplecticStructure", "dlam_mat"),
}


def _nnz(m):
    return sum(len(row) - row.count(0) for row in m.entries)


def _matrix_counts(m):
    return {"cells": m.rows * m.cols, "nnz": _nnz(m)}


def _subspace_rows(self, ambient_dim, basis=()):
    return {"rows_in": len(basis)}


# Extra counters: name -> function of the call's arguments returning
# {counter: number}.  A non-numeric value is a key; the counter then reports
# distinct keys over calls as ``reuse_ratio``.
COUNTERS = {
    "linalg.kernel": _matrix_counts,
    "linalg.rank": _matrix_counts,
    "linalg.Subspace.init": _subspace_rows,
    "linalg.matmul": lambda a, b: {"mults": a.rows * a.cols * b.cols},
    "cec.d_matrix": lambda g, k: {"distinct": (g, k)},
    "forms.matrix_of": lambda op, n_in, k_in, n_out, k_out: {
        "cells": comb(n_in, k_in) * comb(n_out, k_out)
    },
}


class Tracer:
    """Records spans of the current pass and turns them into layer metrics."""

    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        ]
        self._stack = []
        self._spans = []  # (parent index, name, start, end); -1 marks a root
        self._counts = defaultdict(float)
        self._keys = defaultdict(set)
        self._errors = defaultdict(int)
        self._patches = []  # (owner, attribute, original, wrapper)
        self.names = []
        for name, fn in self._targets():
            self.names.append(name)
            wrapper = self._wrap(name, fn)
            if name in METHODS:
                module, cls, attr = METHODS[name]
                owner = getattr(self.modules[1 + MODULES.index(module)], cls)
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for module in self.modules:
                for attr, value in vars(module).items():
                    if value is fn:
                        self._patches.append((module, attr, fn, wrapper))

    def _targets(self):
        for short, module in zip(MODULES, self.modules[1:]):
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and not attr.startswith("_")
                    and getattr(value, "__module__", None) == module.__name__
                    and name not in UNWRAPPED
                ):
                    yield name, value
        for name, (module, cls, attr) in METHODS.items():
            owner = getattr(self.modules[1 + MODULES.index(module)], cls)
            yield name, vars(owner)[attr]

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        stack, spans, errors = self._stack, self._spans, self._errors
        counts, keys = self._counts, self._keys
        module = name.split(".", 1)[0]
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = perf_counter()
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    if isinstance(value, (int, float)):
                        counts[f"{name}.{key}"] += value
                    else:
                        keys[name].add(value)
                spans.append((me, "trace.count", start, perf_counter()))
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                stack.pop()
                spans[me] = (parent, name, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def request(self, fn):
        """Run one request as a root span and return its result."""
        me = len(self._spans)
        self._spans.append(None)
        self._stack.append(me)
        start = perf_counter()
        try:
            return fn()
        finally:
            self._stack.pop()
            self._spans[me] = (-1, "request", start, perf_counter())

    def collect(self, wall):
        """Metrics of the pass just run (lasting ``wall`` seconds); then reset."""
        spans = self._spans
        child = [0.0] * len(spans)
        for parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        roots = 0.0
        for i, (parent, name, start, end) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                roots += end - start
        out = {"trace.spans": len(spans), "trace.root_coverage": roots / wall,
               "trace.count_s": self_s.pop("trace.count", 0.0)}
        for name, value in self_s.items():
            if name == "request":
                continue
            out[f"{name}.self_s"] = value
            out[f"{name}.calls"] = calls[name]
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + value
        out.update(self._counts)
        for name, seen in self._keys.items():
            out[f"{name}.reuse_ratio"] = len(seen) / calls[name]
        for module in MODULES:
            out[f"{module}.errors"] = self._errors[module]
        spans.clear()
        self._counts.clear()
        self._keys.clear()
        self._errors.clear()
        return out
