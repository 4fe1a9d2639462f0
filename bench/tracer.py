"""Per-layer spans and counters, recorded from outside the library.

The tracer replaces selected public functions of the ``gradedlie`` modules by
wrappers that time each call.  Because several modules import these
functions by name (``from .forms import differential``), every module
attribute that still points at the original function object is rebound to
the wrapper, so no call path escapes.  A span's self time is its duration
minus the time covered by the wrapped spans it encloses; time the wrappers
themselves spend (clock reads, cache probes) is excluded from every span.

Nothing is recorded unless ``Tracer.active`` is true, so the benchmark can
keep its own oracle checks out of the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute path) of every wrapped layer function.  The metric
# prefix is "<module>.<attribute path>".
LAYERS = (
    ("algebra", "load_preset"),
    ("forms", "slice_basis"),
    ("forms", "differential"),
    ("forms", "wedge"),
    ("linalg", "d_matrix"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "kernel_basis"),
    ("linalg", "coboundary_preimage"),
    ("cohomology", "cohomology_slice"),
    ("cohomology", "class_coordinates"),
    ("cohomology", "representatives"),
    ("mzero", "omega"),
    ("mzero", "Dm1"),
    ("massey", "triple_product"),
    ("massey", "evaluate_product"),
    ("massey", "solve_defining_system"),
    ("massey", "FamilyResult.substitute"),
    ("massey", "related_cocycle"),
    ("massey", "value_class_of"),
    ("massey", "leading_coefficient_certificate"),
    ("params", "ParamPoly.evaluate"),
)

# lru-cached layers: hits and misses are read from cache_info() around each call
CACHED = ("linalg.d_matrix", "cohomology.cohomology_slice")

# lru caches whose sizes sum to cohomology.cache_entries
CACHES = (("cohomology", "_slice_basis_cached"), ("cohomology", "cohomology_slice"),
          ("cohomology", "partition_count"), ("linalg", "d_matrix"))

# rungs of the Massey decision ladder that settle an op (see workloads._rung)
RUNGS = ("direct-product", "exact-affine-triple", "graded-thread-module",
         "identically-zero-class", "constant-coordinate", "exact-affine-family",
         "grid-witness", "leading-coefficient", "value-set", "undecided",
         "not-defined", "refused")


class Record:
    __slots__ = ("calls", "s", "self_s", "hits", "misses", "hit_s", "miss_self_s",
                 "cells", "cells_max", "bits_max", "solved")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.misses = 0
        self.hit_s = 0.0
        self.miss_self_s = 0.0
        self.cells = 0
        self.cells_max = 0
        self.bits_max = 0
        self.solved = 0


def _matrix_shape_bits(rows):
    """(cells, largest numerator/denominator bit length) of a row list."""
    bits = 0
    ncols = 0
    for row in rows:
        ncols = max(ncols, len(row))
        for v in row:
            if v:
                b = max(v.numerator.bit_length(), v.denominator.bit_length())
                if b > bits:
                    bits = b
    return len(rows) * ncols, bits


class Tracer:
    """Owns the wrappers and the records of one worker process."""

    def __init__(self):
        self.active = False
        self.records = {}
        self.originals = {}
        self._stack = []

    def install(self):
        """Wrap every layer function and rebind it wherever it was imported."""
        modules = {name: importlib.import_module(f"gradedlie.{name}")
                   for name in {m for m, _ in LAYERS}}
        for mod_name, path in LAYERS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            self.originals[name] = original
            if outer:
                continue  # methods live on their class, which every importer shares
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "gradedlie":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def cache_entries(self):
        return sum(getattr(importlib.import_module(f"gradedlie.{m}"), a).cache_info().currsize
                   for m, a in CACHES)

    def _wrap(self, name, fn):
        rec = self.records[name] = Record()
        stack = self._stack
        tracer = self
        cached = name in CACHED
        is_rref = name == "linalg.rref"
        is_dmat = name == "linalg.d_matrix"
        is_preimage = name == "linalg.coboundary_preimage"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_enter = perf_counter()
            frame = [0.0, 0.0]          # enclosed span time, excluded tracer time
            stack.append(frame)
            if cached:
                misses_before = fn.cache_info().misses
            elif is_rref:
                cells, bits = _matrix_shape_bits(args[0])
                rec.cells += cells
                if bits > rec.bits_max:
                    rec.bits_max = bits
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                span = t1 - t0 - frame[1]
                own = span - frame[0]
                rec.calls += 1
                rec.s += span
                rec.self_s += own
                if cached:
                    if fn.cache_info().misses > misses_before:
                        rec.misses += 1
                        rec.miss_self_s += own
                        if is_dmat and out is not None:
                            rec.cells_max = max(rec.cells_max, out.nrows * out.ncols)
                    else:
                        rec.hits += 1
                        rec.hit_s += span
                elif is_preimage and out:
                    rec.solved += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += span
                    parent[1] += frame[1] + (perf_counter() - t_enter) - (t1 - t0)

        if cached:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper


def layer_metrics(records, cache_entries, time_scale=1.0):
    """Flatten the records into the per-layer metric names of BENCHMARK.json,
    with every time multiplied by ``time_scale``."""
    r = records
    out = {"algebra.load_preset.s": r["algebra.load_preset"].s,
           "cohomology.cache_entries": cache_entries}
    for name in ("forms.slice_basis", "mzero.omega", "mzero.Dm1", "massey.related_cocycle",
                 "massey.value_class_of", "params.ParamPoly.evaluate"):
        out[f"{name}.calls"] = r[name].calls
        out[f"{name}.s"] = r[name].s
    for name in ("forms.differential", "forms.wedge", "linalg.solve", "linalg.kernel_basis",
                 "cohomology.class_coordinates", "massey.triple_product",
                 "massey.solve_defining_system", "massey.FamilyResult.substitute"):
        out[f"{name}.calls"] = r[name].calls
        out[f"{name}.self_s"] = r[name].self_s
    for name in ("cohomology.representatives", "massey.evaluate_product"):
        out[f"{name}.calls"] = r[name].calls
    out["massey.leading_coefficient_certificate.s"] = r["massey.leading_coefficient_certificate"].s

    d = r["linalg.d_matrix"]
    out.update({"linalg.d_matrix.calls": d.calls, "linalg.d_matrix.misses": d.misses,
                "linalg.d_matrix.self_s": d.self_s, "linalg.d_matrix.cells_max": d.cells_max})
    e = r["linalg.rref"]
    out.update({"linalg.rref.calls": e.calls, "linalg.rref.self_s": e.self_s,
                "linalg.rref.cells": e.cells, "linalg.rref.in_bits_max": e.bits_max})
    p = r["linalg.coboundary_preimage"]
    out.update({"linalg.coboundary_preimage.calls": p.calls,
                "linalg.coboundary_preimage.self_s": p.self_s,
                "linalg.coboundary_preimage.solved_ratio": p.solved / p.calls if p.calls else 0.0})
    c = r["cohomology.cohomology_slice"]
    out.update({"cohomology.cohomology_slice.calls": c.calls,
                "cohomology.cohomology_slice.hits": c.hits,
                "cohomology.cohomology_slice.misses": c.misses,
                "cohomology.cohomology_slice.hit_s": c.hit_s,
                "cohomology.cohomology_slice.self_s": c.miss_self_s})
    return {n: v * time_scale if n.endswith(("_s", ".s")) else v for n, v in out.items()}


def layer_names():
    """Every per-layer metric name, in report order."""
    empty = {f"{m}.{path}": Record() for m, path in LAYERS}
    return list(layer_metrics(empty, 0)) + \
        [f"massey.rung.{r}.{k}" for r in RUNGS for k in ("count", "s")] + ["trace.overhead_s"]
