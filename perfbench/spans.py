"""Per-layer tracing of waveforce from outside the package.

The tracer replaces every public function of the layer modules (and the
public methods of the classes they define) by a timing wrapper, at every
name a caller looks it up by: the defining module, each waveforce module
that imported it, and the package namespace. The dense factorizations are
wrapped on `numpy.linalg`, where the package looks them up at call time.

Spans (name, start, end, parent, job id) are kept in memory while jobs
run and are written out when the run ends. Calls made while no job is
active (set-up, output checks) are passed through unrecorded.

Every metric is per job. `*.self_s` is the time inside a function minus
its child spans; `*.busy_s` is the time a layer or function is on the
call stack, nested calls counted once; counts sum over the job. A layer
that a workload's jobs never call reads 0 (for example `cli.*` on
noise-study-160, `lcurve.*` on paper-tables).

Names the per-layer metrics rely on that the package no longer defines
are reported as absent with a reason; they never fail the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "benchmarks", "fdm", "inverse", "noise", "tikhonov", "lcurve", "csvio")
FACTORIZATIONS = ("lstsq", "svd", "qr", "solve", "cholesky", "eigh")

# Functions the per-layer metrics are stated on, and what goes missing
# without them.
EXPECTED = {
    "fdm.solve_direct": "fdm.solve_direct.calls, fdm.cells, fdm.cells_per_s",
    "inverse.assemble*": "inverse.assemble.*, inverse.columns, inverse.solves_per_column",
    "inverse.InverseSystem.with_measurement": "inverse.with_measurement.busy_s",
    "tikhonov.tikhonov_solve": "tikhonov.solve.*",
    "tikhonov.condition_number": "tikhonov.condition_number.busy_s",
    "lcurve.sweep": "lcurve.sweep.self_s, lcurve.weights_*, lcurve.solved_ratio",
    "lcurve.corner": "lcurve.corner.busy_s",
    "cli.main": "cli.self_s",
}

UNITS = {
    "fdm.solve_direct.calls": "count",
    "fdm.busy_s": "s",
    "fdm.cells": "count",
    "fdm.cells_per_s": "1/s",
    "inverse.assemble.calls": "count",
    "inverse.assemble.self_s": "s",
    "inverse.columns": "count",
    "inverse.solves_per_column": "ratio",
    "inverse.with_measurement.busy_s": "s",
    "tikhonov.solve.calls": "count",
    "tikhonov.solve.busy_s": "s",
    "tikhonov.condition_number.busy_s": "s",
    "tikhonov.factorizations": "count",
    "lcurve.sweep.self_s": "s",
    "lcurve.weights_attempted": "count",
    "lcurve.weights_skipped": "count",
    "lcurve.solved_ratio": "ratio",
    "lcurve.corner.busy_s": "s",
    "benchmarks.calls": "count",
    "benchmarks.busy_s": "s",
    "noise.busy_s": "s",
    "csvio.busy_s": "s",
    "csvio.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "info")

    def __init__(self, name, layer, parent, job):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


def _solve_direct_info(args, kwargs, result):
    grid = (args[0] if args else kwargs["problem"]).grid
    return {"cells": (grid.M - 1) * grid.N}


def _assemble_info(args, kwargs, result):
    return {"columns": result.A.shape[1] // result.components}


def _write_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _sweep_info(fn, lcurve):
    signature = inspect.signature(fn)

    def info(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        lambdas = bound.arguments["lambdas"]
        if lambdas is None:
            # the documented default grid of sweep
            order = bound.arguments["order"]
            lambdas = lcurve.DEFAULT_LAMBDA_GRID if order == 0 else lcurve.EXTENDED_LAMBDA_GRID
        return {"attempted": len(lambdas), "solved": len(result)}

    return info


class Tracer:
    """Wraps the package's public functions and records spans of active jobs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.wrapped: set[str] = set()
        self.absent: dict[str, str] = {}

    # -- installation -------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "waveforce" or name.startswith("waveforce.")}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"waveforce.{layer}")
            except ImportError as exc:
                self.absent[f"waveforce.{layer}"] = f"module not importable: {exc}"
                continue
            modules[mod.__name__] = mod
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._replace_everywhere(modules.values(), obj,
                                             self._wrap(layer, name, obj, self._info_for(layer, name, obj)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            self._set(obj, meth_name, meth,
                                      self._wrap(layer, f"{name}.{meth_name}", meth, None))
        import numpy.linalg as la
        for name in FACTORIZATIONS:
            fn = getattr(la, name, None)
            if fn is None:
                self.absent[f"numpy.linalg.{name}"] = "not in this numpy"
                continue
            self._set(la, name, fn, self._wrap("numpy.linalg", name, fn, None))
        for expected, metrics in EXPECTED.items():
            found = (any(n.startswith(expected[:-1]) for n in self.wrapped)
                     if expected.endswith("*") else expected in self.wrapped)
            if not found:
                self.absent[expected] = f"not defined by the package; {metrics} read 0"

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _info_for(self, layer, name, fn):
        if layer == "fdm" and name == "solve_direct":
            return _solve_direct_info
        if layer == "inverse" and name.startswith("assemble"):
            return _assemble_info
        if layer == "csvio" and name.startswith("write"):
            return _write_info
        if layer == "lcurve" and name == "sweep":
            return _sweep_info(fn, sys.modules["waveforce.lcurve"])
        return None

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _wrap(self, layer, name, fn, info):
        tracer = self
        qualified = f"{layer}.{name}"
        self.wrapped.add(qualified)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = Span(qualified, layer, tracer._stack[-1] if tracer._stack else -1, tracer.job)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    tracer.absent.setdefault(qualified + " (work count)", f"cannot read: {exc!r}")
            return result

        return wrapper

    # -- output -------------------------------------------------------

    def write(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job, "info": s.info}) + "\n")

    def layer_metrics(self, jobs):
        """Per-layer metrics: for each, the median over `jobs` of its per-job value."""
        per_job = {job: _job_metrics(self.spans, job) for job in jobs}
        names = next(iter(per_job.values())).keys()
        return {name: statistics.median(m[name] for m in per_job.values()) for name in names}


def _job_metrics(spans, job):
    idx = [i for i, s in enumerate(spans) if s.job == job]
    child_time = {i: 0.0 for i in idx}
    ancestors = {}  # span index -> tuple of ancestor indices, nearest first
    for i in idx:
        p = spans[i].parent
        ancestors[i] = (p,) + ancestors[p] if p >= 0 else ()
        if p >= 0:
            child_time[p] += spans[i].duration

    def named(name):
        return [i for i in idx if spans[i].name == name]

    def self_s(members):
        return sum(spans[i].duration - child_time[i] for i in members)

    def outermost_s(members):
        keep = set(members)
        return sum(spans[i].duration for i in members if not keep.intersection(ancestors[i]))

    def layer_busy(layer):
        return outermost_s([i for i in idx if spans[i].layer == layer])

    def info_sum(members, key):
        return sum((spans[i].info or {}).get(key, 0) for i in members)

    marches = named("fdm.solve_direct")
    cells = info_sum(marches, "cells")
    march_s = sum(spans[i].duration for i in marches)
    assembles = [i for i in idx if spans[i].name.startswith("inverse.assemble")]
    columns = info_sum(assembles, "columns")
    # the first march inside an assembly is the zero-force background;
    # every further one serves a column
    column_marches = sum(max(sum(1 for m in marches if a in ancestors[m]) - 1, 0)
                         for a in assembles)
    solves = named("tikhonov.tikhonov_solve")
    sweeps = named("lcurve.sweep")
    attempted = info_sum(sweeps, "attempted")
    solved = info_sum(sweeps, "solved")
    writes = [i for i in idx if spans[i].name.startswith("csvio.write")]
    return {
        "fdm.solve_direct.calls": len(marches),
        "fdm.busy_s": layer_busy("fdm"),
        "fdm.cells": cells,
        "fdm.cells_per_s": cells / march_s if march_s > 0 else 0.0,
        "inverse.assemble.calls": len(assembles),
        "inverse.assemble.self_s": self_s(assembles),
        "inverse.columns": columns,
        "inverse.solves_per_column": column_marches / columns if columns else 0.0,
        "inverse.with_measurement.busy_s": outermost_s(named("inverse.InverseSystem.with_measurement")),
        "tikhonov.solve.calls": len(solves),
        "tikhonov.solve.busy_s": outermost_s(solves),
        "tikhonov.condition_number.busy_s": outermost_s(named("tikhonov.condition_number")),
        "tikhonov.factorizations": sum(1 for i in idx if spans[i].layer == "numpy.linalg"),
        "lcurve.sweep.self_s": self_s(sweeps),
        "lcurve.weights_attempted": attempted,
        "lcurve.weights_skipped": attempted - solved,
        "lcurve.solved_ratio": solved / attempted if attempted else 0.0,
        "lcurve.corner.busy_s": outermost_s(named("lcurve.corner")),
        "benchmarks.calls": sum(1 for i in idx if spans[i].layer == "benchmarks"),
        "benchmarks.busy_s": layer_busy("benchmarks"),
        "noise.busy_s": layer_busy("noise"),
        "csvio.busy_s": layer_busy("csvio"),
        "csvio.bytes_written": info_sum(writes, "bytes"),
        "cli.self_s": self_s([i for i in idx if spans[i].layer == "cli"]),
    }
