"""Per-layer timing of oligoforge from outside the program.

A Tracer replaces each layer's public functions with wrappers, under every
name a caller looks them up by, for the duration of a `with` block. Each
wrapper counts calls, inclusive time and self time (inclusive minus the
wrapped calls made inside it), plus work counts derived from the call's
arguments or result. Aggregates stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def _nussinov_work(args, result):
    n = len(args[0])
    return {"cells": n * (n - 1) // 2, "splits": (n - 1) * n * (n + 1) // 6}


def _pairs_work(args, result):
    size = len(args[0])
    return {"pairs": size * (size - 1) // 2}


def _brute_force_work(args, result):
    return {"words": 4 ** args[0]}


def _read_work(args, result):
    return {"words": len(result)}


# (layer function name, modules that bind it, work counter)
WRAPPED = (
    ("seqcore.read_sequence_file", ("seqcore",), _read_work),
    ("seqcore.mu", ("seqcore", "codegen"), None),
    ("seqcore.gc_content", ("seqcore", "codegen"), None),
    ("seqcore.binary_image", ("seqcore", "codegen"), None),
    ("folding.nussinov_table", ("folding",), _nussinov_work),
    ("folding.traceback", ("folding",), None),
    ("folding.linear_energy", ("folding",), None),
    ("codegen.simplex_code", ("codegen",), None),
    ("codegen.build_dna_code", ("codegen",), None),
    ("codegen.load_dna_code", ("codegen",), None),
    ("codegen.verify_code", ("codegen",), None),
    ("codegen.code_properties", ("codegen",), _pairs_work),
    ("enumeration.count_brute_force", ("enumeration",), _brute_force_work),
    ("enumeration.g_series", ("enumeration",), None),
    ("enumeration.gj_coefficients", ("enumeration",), None),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.totals: dict[str, float] = defaultdict(int)
        self._child_time: list[float] = []

    @contextmanager
    def span(self, name: str):
        """Time a block as a span of its own, e.g. one CLI command."""
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - start)

    def _close(self, name: str, elapsed: float) -> None:
        children = self._child_time.pop()
        self.totals[name + ".calls"] += 1
        self.totals[name + ".s"] += elapsed
        self.totals[name + ".self_s"] += elapsed - children
        if self._child_time:
            self._child_time[-1] += elapsed

    def _wrap(self, name, fn, work):
        totals, child_time, close = self.totals, self._child_time, self._close

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, time.perf_counter() - start)
            if work is not None:
                for key, value in work(args, result).items():
                    totals[f"{name}.{key}"] += value
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install the wrappers; restore the original functions on exit."""
        saved = []
        try:
            for name, binders, work in WRAPPED:
                home, attr = name.split(".")
                fn = getattr(getattr(self.package, home), attr)
                wrapper = self._wrap(name, fn, work)
                for binder in binders:
                    module = getattr(self.package, binder)
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
