"""Span tree recorded from outside the program, and the per-layer metrics it gives.

Wrappers go on the names that ``macert.bench.run`` and the layers look up at
call time: names imported into ``macert.bench``, module attributes reached
through ``env.``/``est.``/``spla.``, and methods on their classes.  A target
that no longer exists is skipped; every metric that reads it is then
reported as absent, and the run still completes.
"""
from __future__ import annotations

import functools
import importlib
import time

# (span name, "module:attribute.path") -- the wrapped lookups
TARGETS = (
    ("geometry.init_uniform", "macert.bench:init_uniform"),
    ("geometry.refine", "macert.bench:refine"),
    ("bfs.count_free_dofs", "macert.bench:count_free_dofs"),
    ("bfs.space", "macert.bench:BfsSpace"),
    ("bfs.reduction", "macert.bfs:BfsSpace.reduction"),
    ("bfs.interpolate_boundary", "macert.bench:interpolate_boundary"),
    ("bfs.norms", "macert.bench:norms_vs_exact"),
    ("hjb.solve", "macert.bench:solve"),
    ("hjb.splu", "scipy.sparse.linalg:splu"),
    ("bench.prolongate", "macert.bench:prolongate"),
    ("bench.envelope_error", "macert.bench:_envelope_error"),
    ("envelope.build_samples", "macert.envelope:build_samples"),
    ("envelope.lower_hull", "macert.envelope:lower_hull"),
    ("envelope.qhull", "macert.envelope:ConvexHull"),
    ("envelope.evaluate", "macert.envelope:LowerHull.evaluate"),
    ("envelope.contact", "macert.envelope:contact_set"),
    ("estimator.rhs0", "macert.estimator:rhs0"),
    ("estimator.rhs_eps", "macert.estimator:rhs_eps"),
    ("estimator.select_j", "macert.estimator:select_j"),
    ("estimator.trace", "macert.estimator:max_boundary_trace_error"),
    ("estimator.mark", "macert.estimator:indicators_and_mark"),
)

ROOT = "bench.run"  # opened by the caller around run(config)

# metric -> (how, span names): total time, time under a parent, self time
TIMES = {
    "envelope.evaluate_s": ("total", "envelope.evaluate"),
    "envelope.evaluate_hull_s": ("under", "envelope.evaluate", "envelope.lower_hull"),
    "envelope.evaluate_lhs_s": ("under", "envelope.evaluate", "bench.envelope_error"),
    "envelope.lower_hull_s": ("total", "envelope.lower_hull"),
    "envelope.qhull_s": ("total", "envelope.qhull"),
    "envelope.build_samples_s": ("total", "envelope.build_samples"),
    "envelope.contact_s": ("total", "envelope.contact"),
    "hjb.solve_s": ("total", "hjb.solve"),
    "hjb.solve_self_s": ("self", "hjb.solve"),
    "hjb.splu_s": ("total", "hjb.splu"),
    "estimator.rhs0_s": ("total", "estimator.rhs0"),
    "estimator.rhs_eps_s": ("total", "estimator.rhs_eps"),
    "estimator.select_j_s": ("total", "estimator.select_j"),
    "estimator.trace_s": ("total", "estimator.trace"),
    "geometry.refine_s": ("total", "geometry.refine"),
    "bfs.space_s": ("total", "bfs.space"),
    "bfs.reduction_s": ("total", "bfs.reduction"),
    "bfs.norms_s": ("total", "bfs.norms"),
    "bench.prolongate_s": ("total", "bench.prolongate"),
    # the refinement loop's own work: run(config) minus every top-level span
    "bench.driver_self_s": ("self", ROOT),
}

# count metric -> the span whose wrapper records it
COUNTS = {
    "envelope.evaluate_points": "envelope.evaluate",
    "envelope.facets_final": "envelope.lower_hull",
    "hjb.factorisations": "hjb.splu",
    "hjb.lu_nnz_final": "hjb.splu",
    "hjb.linear_solves": "hjb.solve",
    "hjb.unconverged_steps": "hjb.solve",
    "hjb.ndof_final": "hjb.solve",
    "estimator.marked_cells": "estimator.mark",
    "geometry.cells_final": "bfs.space",
    "bfs.hanging_final": "bfs.space",
}


def _observe(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Counts taken at a layer boundary from its arguments and result."""
    c = tracer.counts
    if name == "envelope.evaluate":
        pts = args[1] if len(args) > 1 else kwargs["pts"]
        c["envelope.evaluate_points"] += len(pts) if getattr(pts, "ndim", 2) == 2 else 1
    elif name == "envelope.lower_hull":
        c["envelope.facets_final"] = len(result.planes)
    elif name == "hjb.splu":
        c["hjb.factorisations"] += 1
        c["hjb.lu_nnz_final"] = result.nnz  # entries SuperLU stores for L and U
    elif name == "hjb.solve":
        tracer.solver_steps.append(
            {"niter": result.niter, "converged": bool(result.converged),
             "residual": float(result.residual)}
        )
        c["hjb.linear_solves"] += result.niter
        c["hjb.unconverged_steps"] += not result.converged
        c["hjb.ndof_final"] = kwargs["reduction"].ndof
    elif name == "estimator.mark":
        c["estimator.marked_cells"] += len(result)
    elif name == "bfs.space":
        c["geometry.cells_final"] = len(result.mesh.cell_ids)
        c["bfs.hanging_final"] = len(result.mesh.hanging)


def _resolve(target: str):
    """(owner, attribute) for "module:a.b", or None when it no longer exists."""
    module, _, path = target.partition(":")
    *owners, attr = path.split(".")
    try:
        owner = importlib.import_module(module)
        for part in owners:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except (ImportError, AttributeError):
        return None
    return owner, attr


class Tracer:
    """Spans kept in memory: name, parent index, start and end (perf_counter)."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.installed: set[str] = {ROOT}
        self.absent: list[str] = []
        self.unobserved: set[str] = set()  # spans whose result lost a field
        self.counts: dict[str, float] = {m: 0 for m in COUNTS}
        self.solver_steps: list[dict] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def install(self, targets=TARGETS) -> None:
        for name, target in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr = found
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            self.installed.add(name)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn, updated=())  # fn may be a class
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            try:
                _observe(self, name, args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError):
                self.unobserved.add(name)
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        dur = self.durations()
        out = list(dur)
        for parent, d in zip(self.parents, dur):
            if parent >= 0:
                out[parent] -= d
        return out

    def _parent_name(self, idx: int) -> str | None:
        parent = self.parents[idx]
        return self.names[parent] if parent >= 0 else None

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics; those reading an uninstalled wrapper are left out."""
        dur, own = self.durations(), self.self_times()
        out: dict[str, float] = {}
        for metric, (how, name, *parent) in TIMES.items():
            if name not in self.installed or not set(parent) <= self.installed:
                continue
            picked = [
                i for i, n in enumerate(self.names)
                if n == name and (not parent or self._parent_name(i) == parent[0])
            ]
            source = own if how == "self" else dur
            out[metric] = sum(source[i] for i in picked)
        for metric, name in COUNTS.items():
            if name in self.installed and name not in self.unobserved:
                out[metric] = self.counts[metric]
        return out

    def dump(self) -> dict:
        """Spans and per-step solver state, for writing out when the run ends."""
        return {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e}
                for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
            ],
            "solver_steps": self.solver_steps,
            "absent_targets": self.absent,
            "unobserved_spans": sorted(self.unobserved),
        }
