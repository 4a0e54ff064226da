"""Dyadic quadtree meshes of the unit square with 1-irregular hanging nodes.

Cells are axis-aligned squares ``[ix, ix+1] x [iy, iy+1] / 2**level`` and are
identified by the tuple ``(level, ix, iy)``.  Ids encode the parent-child path,
so they stay stable across refinement.  All coordinates are dyadic rationals
and therefore exact in binary floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

CellId = tuple[int, int, int]


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle with its quadtree depth."""

    x0: float
    y0: float
    hx: float
    hy: float
    level: int = 0

    @property
    def x1(self) -> float:
        return self.x0 + self.hx

    @property
    def y1(self) -> float:
        return self.y0 + self.hy

    @property
    def area(self) -> float:
        return self.hx * self.hy


def _rect_of(cid: CellId) -> Rect:
    level, ix, iy = cid
    h = 0.5**level
    return Rect(ix * h, iy * h, h, h, level)


class RectMesh:
    """Immutable quadtree partition of the closed unit square.

    Vertices are keyed by integer coordinates at resolution ``2**(max_level+1)``
    so that edge midpoints are representable; this makes hanging-node detection
    an exact set lookup.
    """

    def __init__(self, cell_ids: Iterable[CellId]):
        ids = sorted(set(cell_ids))
        if not ids:
            raise ValueError("mesh needs at least one cell")
        self.cell_ids: tuple[CellId, ...] = tuple(ids)
        # (level, ix, iy) per cell; sorted ids keep each level contiguous
        self.cell_array = np.array(ids, dtype=np.int64)
        self.levels = self.cell_array[:, 0]
        self.max_level = int(self.levels[-1])
        self.min_level = int(self.levels[0])
        # integer resolution: unit square is [0, R] x [0, R]
        self.res = 2 ** (self.max_level + 1)
        self._build_topology()

    # -- construction -----------------------------------------------------

    def _build_topology(self):
        R = self.res
        corner_keys: dict[tuple[int, int], int] = {}
        cell_corners = np.empty((len(self.cell_ids), 4), dtype=np.int64)
        for ci, (level, ix, iy) in enumerate(self.cell_ids):
            step = R >> level
            x0, y0 = ix * step, iy * step
            # local corner order (0,0), (1,0), (0,1), (1,1)
            for k, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
                key = (x0 + dx * step, y0 + dy * step)
                idx = corner_keys.get(key)
                if idx is None:
                    idx = len(corner_keys)
                    corner_keys[key] = idx
                cell_corners[ci, k] = idx
        # renumber vertices lexicographically for determinism
        order = sorted(corner_keys, key=lambda k: (k[1], k[0]))
        remap = np.empty(len(order), dtype=np.int64)
        for new, key in enumerate(order):
            remap[corner_keys[key]] = new
        self.vertex_keys: list[tuple[int, int]] = order
        self.cell_corners = remap[cell_corners]
        self.vertex_coords = np.array(order, dtype=float) / R
        self._key_to_vidx = {key: i for i, key in enumerate(order)}

        # hanging vertices: midpoint of a leaf edge that exists as a vertex.
        # With 1-irregularity the neighbour across is exactly one level finer.
        # record: slave vidx -> (p_vidx, q_vidx, axis, edge length)
        self.hanging: dict[int, tuple[int, int, int, float]] = {}
        for ci, (level, ix, iy) in enumerate(self.cell_ids):
            step = R >> level
            x0, y0 = ix * step, iy * step
            h = step / R
            half = step >> 1
            edges = (
                ((x0, y0), (x0 + step, y0), (x0 + half, y0), 0),        # bottom
                ((x0, y0 + step), (x0 + step, y0 + step), (x0 + half, y0 + step), 0),  # top
                ((x0, y0), (x0, y0 + step), (x0, y0 + half), 1),        # left
                ((x0 + step, y0), (x0 + step, y0 + step), (x0 + step, y0 + half), 1),  # right
            )
            for pkey, qkey, midkey, axis in edges:
                mid = self._key_to_vidx.get(midkey)
                if mid is not None:
                    self.hanging[mid] = (
                        self._key_to_vidx[pkey],
                        self._key_to_vidx[qkey],
                        axis,
                        h,
                    )

        # boundary classification of vertices
        xk = np.array([k[0] for k in order])
        yk = np.array([k[1] for k in order])
        self.vertex_on_left = xk == 0
        self.vertex_on_right = xk == R
        self.vertex_on_bottom = yk == 0
        self.vertex_on_top = yk == R

        # boundary edges: (owner cell index, side) where side in
        # {"bottom", "top", "left", "right"}; sorted for determinism.
        bedges = []
        for ci, (level, ix, iy) in enumerate(self.cell_ids):
            n = 1 << level
            if iy == 0:
                bedges.append((ci, "bottom"))
            if iy == n - 1:
                bedges.append((ci, "top"))
            if ix == 0:
                bedges.append((ci, "left"))
            if ix == n - 1:
                bedges.append((ci, "right"))
        self.boundary_edges: tuple[tuple[int, str], ...] = tuple(bedges)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cell_ids)

    @property
    def rects(self) -> list[Rect]:
        return [_rect_of(c) for c in self.cell_ids]

    def cell_sizes(self) -> np.ndarray:
        return np.ldexp(1.0, -self.levels)

    def max_cell_size(self) -> float:
        return 0.5**self.min_level

    def boundary_edge_segment(self, ci: int, side: str):
        """Endpoints ((xa, ya), (xb, yb)) of a boundary edge of cell ci."""
        r = _rect_of(self.cell_ids[ci])
        if side == "bottom":
            return (r.x0, r.y0), (r.x1, r.y0)
        if side == "top":
            return (r.x0, r.y1), (r.x1, r.y1)
        if side == "left":
            return (r.x0, r.y0), (r.x0, r.y1)
        if side == "right":
            return (r.x1, r.y0), (r.x1, r.y1)
        raise ValueError(side)

    def locate(self, x, y):
        """Indices of the leaves containing the points (x, y).

        ``x`` and ``y`` broadcast together; the result has their shape, or is
        an int for scalars.  A point on cell borders goes to the leaf whose
        half-open cell [ix, ix+1) x [iy, iy+1) / 2**level holds it, closed at
        x = 1 and y = 1.  Each level is one ``searchsorted`` over its sorted
        keys ix * 2**level + iy, finest level first.
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        inside = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
        if not np.all(inside):
            bad = np.flatnonzero(~inside.ravel())[0]
            raise ValueError(
                f"point ({x.flat[bad]}, {y.flat[bad]}) outside the unit square"
            )
        xs, ys = x.ravel(), y.ravel()
        cells = np.empty(xs.size, dtype=np.int64)
        todo = np.arange(xs.size)
        bounds = np.searchsorted(self.levels, np.arange(self.max_level + 2))
        for level in range(self.max_level, self.min_level - 1, -1):
            start, stop = bounds[level], bounds[level + 1]
            if start == stop or todo.size == 0:
                continue
            n = 1 << level
            ix = np.minimum((xs[todo] * n).astype(np.int64), n - 1)
            iy = np.minimum((ys[todo] * n).astype(np.int64), n - 1)
            ids = self.cell_array[start:stop]
            keys = ids[:, 1] * n + ids[:, 2]
            query = ix * n + iy
            pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            hit = keys[pos] == query
            cells[todo[hit]] = start + pos[hit]
            todo = todo[~hit]
        if todo.size:
            raise RuntimeError("point not covered; mesh invariant violated")
        return cells.reshape(x.shape) if x.ndim else int(cells[0])


def init_uniform(levels: int) -> RectMesh:
    """Uniform mesh of ``4**levels`` congruent squares."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    n = 1 << levels
    return RectMesh([(levels, ix, iy) for iy in range(n) for ix in range(n)])


def min_edge_length(mesh: RectMesh) -> float:
    """Minimal edge length; equals ``2**(-max level)`` on dyadic meshes."""
    return 0.5**mesh.max_level


def refine(mesh: RectMesh, marked: Iterable[CellId]) -> RectMesh:
    """Split every marked leaf into 4 children and restore 1-irregularity.

    Closure splits any face neighbour that would end up two or more levels
    coarser than a new child.  Terminates because splits only move upward in
    level and levels of required splits are bounded by the marked cells.
    """
    leaves = set(mesh.cell_ids)

    def covering_ancestor(level: int, ix: int, iy: int) -> CellId | None:
        while level >= 0:
            if (level, ix, iy) in leaves:
                return (level, ix, iy)
            level, ix, iy = level - 1, ix >> 1, iy >> 1
        return None

    def split(cid: CellId):
        level, ix, iy = cid
        n = 1 << level
        for nx, ny in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
            if 0 <= nx < n and 0 <= ny < n:
                anc = covering_ancestor(level, nx, ny)
                if anc is not None and anc[0] < level:
                    split(anc)
        leaves.remove(cid)
        for dy in (0, 1):
            for dx in (0, 1):
                leaves.add((level + 1, 2 * ix + dx, 2 * iy + dy))

    for cid in sorted(set(marked)):
        if cid not in leaves:
            raise ValueError(f"marked cell {cid} is not a leaf")
    for cid in sorted(set(marked)):
        if cid in leaves:  # may have been split by closure already
            split(cid)
    return RectMesh(leaves)
