"""Spans around the calls into shotr's layers, recorded from outside the
program by wrapping its public functions for the length of a traced pass.

A span has a name, start, end, parent span and track id. Spans stay in
memory; the run writes them out when it ends. A layer's self time is its
span's duration minus the durations of its direct children (calls are
serial, so children never overlap).
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from shotr import kinematics


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Wrapped function -> work count of one call, from its arguments and result.
LAYER_CALLS = {
    "shotr.trajdata.parse_tracks": lambda a, k, r: sum(len(t) for t in r.tracks.values()),
    "shotr.mesh.build_mesh": lambda a, k, r: 1,
    "shotr.recon.reconstruction_operators": lambda a, k, r: _arg(a, k, 0, "mesh").n_cells,
    "shotr.recon.reconstruct_track": lambda a, k, r: r[0].mesh.n_cells,
    "shotr.cweno.limit_piecewise": lambda a, k, r: r.mesh.n_cells,
    "shotr.geometry.trajectory_length": lambda a, k, r: _arg(a, k, 0, "axis_polys")[0].mesh.n_cells,
    "shotr.kinematics.sample_dense": lambda a, k, r: len(r),
    "shotr.kinematics.summarize": lambda a, k, r: 1,
    "shotr.validate.run_convergence": lambda a, k, r: 1,
    "shotr.validate.error_norms": lambda a, k, r: _arg(a, k, 4, "mesh").n_cells,
    "shotr.validate.backtrace": lambda a, k, r: len(r.taus) - 1,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    track: str
    count: int       # work done by the call, as LAYER_CALLS counts it


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.track = ""            # set by the caller around each operation
        self.keep_limited = False  # keep limiter inputs and outputs for changed_frac
        self.limited: list[tuple] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else -1, self.track, 0)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.count = count(args, kwargs, result)
            if self.keep_limited and name == "shotr.cweno.limit_piecewise":
                self.limited.append((args[0], args[1], result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every shotr module's reference to each layer function with
        a wrapper; restore them on exit. Layers the program lacks are skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "shotr" or n.startswith("shotr."))]
        patches = []
        try:
            for qualname, count in LAYER_CALLS.items():
                modname, attr = qualname.rsplit(".", 1)
                fn = getattr(sys.modules.get(modname), attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(qualname, fn, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, value in reversed(patches):
                setattr(mod, key, value)

    def aggregate(self, since: int = 0) -> dict[str, dict]:
        """Per layer function: calls, total and self seconds, work count."""
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= since:
                child_time[s.parent - since] += s.end - s.start
        agg: dict[str, dict] = {}
        for s, children in zip(spans, child_time):
            a = agg.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0, "count": 0})
            a["calls"] += 1
            a["total"] += s.end - s.start
            a["self"] += s.end - s.start - children
            a["count"] += s.count
        return agg

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def changed_fraction(limited: list[tuple]) -> float:
    """Share of cells whose limited polynomial differs from the unlimited one
    at the Gauss points by more than 1e-6 of the axis range."""
    changed = total = 0
    for unlimited, series, result in limited:
        times = kinematics.dense_times([unlimited])
        n = unlimited.mesh.n_cells
        diff = np.abs(result.value(times) - unlimited.value(times)).reshape(n, -1).max(axis=1)
        changed += int(np.count_nonzero(diff > 1e-6 * np.ptp(series.values)))
        total += n
    return changed / total if total else 0.0


def _per(agg, name, key, unit_scale=1.0, per="count"):
    a = agg.get(name)
    if not a or not a[per]:
        return 0.0
    return a[key] / a[per] * unit_scale


def layer_metrics(agg: dict[str, dict], warnings: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced library pass. Times are per unit of
    work the layer did; counts are totals over the pass's invocations."""
    us = 1e6
    recon_tracks = agg.get("shotr.recon.reconstruct_track", {}).get("calls", 0)
    return {
        "trajdata.parse_s": agg.get("shotr.trajdata.parse_tracks", {}).get("total", 0.0),
        "trajdata.rows": agg.get("shotr.trajdata.parse_tracks", {}).get("count", 0),
        "trajdata.rows_rejected": warnings["rows_rejected"],
        "trajdata.tracks_dropped": warnings["tracks_dropped"],
        "mesh.build_us_per_track": (agg.get("shotr.mesh.build_mesh", {}).get("total", 0.0)
                                    / recon_tracks * us if recon_tracks else 0.0),
        "recon.operators_us_per_cell": _per(agg, "shotr.recon.reconstruction_operators", "total", us),
        "recon.apply_us_per_cell": _per(agg, "shotr.recon.reconstruct_track", "self", us),
        "recon.cells": agg.get("shotr.recon.reconstruct_track", {}).get("count", 0),
        "recon.degree_reductions": warnings["degree_reductions"],
        "recon.singular_fallbacks": warnings["singular_fallbacks"],
        "cweno.limit_us_per_cell": _per(agg, "shotr.cweno.limit_piecewise", "total", us),
        "geometry.length_us_per_cell": _per(agg, "shotr.geometry.trajectory_length", "total", us),
        "kinematics.dense_us_per_sample": _per(agg, "shotr.kinematics.sample_dense", "total", us),
        "kinematics.summarize_self_us_per_track": _per(agg, "shotr.kinematics.summarize", "self",
                                                       us, per="calls"),
        "validate.convergence_s": agg.get("shotr.validate.run_convergence", {}).get("total", 0.0),
        "validate.error_norms_us_per_cell": _per(agg, "shotr.validate.error_norms", "total", us),
        "validate.backtrace_us_per_step": _per(agg, "shotr.validate.backtrace", "self", us),
        "validate.rk_steps": agg.get("shotr.validate.backtrace", {}).get("count", 0),
    }
