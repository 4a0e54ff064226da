"""Dyadic quadtree meshes of the unit square with 1-irregular hanging nodes.

Cells are axis-aligned squares ``[ix, ix+1] x [iy, iy+1] / 2**level`` and are
identified by the tuple ``(level, ix, iy)``.  Ids encode the parent-child path,
so they stay stable across refinement.  A mesh holds its cells as one sorted
integer array and derives vertices, hanging nodes and boundary edges from
integer keys by ``np.unique`` and ``searchsorted``, so every coordinate is an
exact dyadic rational.  Between layers a cell is named by its row in that
array, which is cell-id order, and a side of the square by its ``SIDES`` index;
``refine`` takes the rows to split.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

CellId = tuple[int, int, int]

SIDES = ("bottom", "right", "top", "left")  # counter-clockwise, as boundary samples run
# per cell edge bottom, top, left, right: its two local corners (local corner
# order (0,0), (1,0), (0,1), (1,1) as in cell_corners) and the axis it runs along
_EDGES = np.array([[0, 1, 0], [2, 3, 0], [0, 2, 1], [1, 3, 1]])
MAX_LEVEL = 30  # vertex keys, below (2**(level+1) + 1)**2, fit in int64


def check_integer(name: str, value, minimum=None):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer,
    numpy's included but not a bool, and at least ``minimum`` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (
            minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" at least {minimum}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


class RectMesh:
    """Immutable quadtree partition of the closed unit square.

    ``vertex_keys`` holds the integer coordinates (kx, ky) of each vertex at
    resolution ``res = 2**(max_level+1)``, so that edge midpoints are
    representable; vertices are numbered by the key ``ky * (res + 1) + kx``.
    ``hanging`` holds one row (slave, p, q, axis) per hanging vertex, sorted
    by slave: the slave is the midpoint of the leaf edge p-q, which runs
    along ``axis`` (0 for x).  ``boundary_edges`` holds one row (owner row,
    side index into ``SIDES``) per boundary edge, by cell and then side.
    """

    def __init__(self, cells: Iterable[CellId]):
        cells = np.asarray(cells if isinstance(cells, np.ndarray) else list(cells))
        if not cells.size:
            raise ValueError("mesh needs at least one cell")
        if cells.dtype.kind not in "iu":
            raise ValueError(f"cells must be integer (level, ix, iy), not {cells.dtype}")
        cells = cells.astype(np.int64).reshape(-1, 3)
        # (level, ix, iy) per cell, sorted, so each level is contiguous
        self.cell_array = np.unique(cells, axis=0)
        if len(self.cell_array) < len(cells):
            raise ValueError("a cell is repeated")
        self.levels = self.cell_array[:, 0]
        self.max_level = int(self.levels[-1])
        self.min_level = int(self.levels[0])
        self._check_partition()
        # integer resolution: unit square is [0, R] x [0, R]
        self.res = 2 ** (self.max_level + 1)
        self._build_topology()

    # -- construction -----------------------------------------------------

    def _build_topology(self):
        R = self.res
        level, ix, iy = self.cell_array.T
        step = R >> level
        # corner keys in local corner order (0,0), (1,0), (0,1), (1,1)
        cx = (ix * step)[:, None] + step[:, None] * np.array([0, 1, 0, 1])
        cy = (iy * step)[:, None] + step[:, None] * np.array([0, 0, 1, 1])
        keys, corners = np.unique(cy * (R + 1) + cx, return_inverse=True)
        self.cell_corners = corners.reshape(-1, 4)
        # (kx, ky) per vertex, numbered y-major by their keys
        self.vertex_keys = np.column_stack([keys % (R + 1), keys // (R + 1)])
        self.vertex_coords = self.vertex_keys / R

        # hanging vertices: midpoints of leaf edges p-q that are vertices
        p, q = self.cell_corners[:, _EDGES[:, 0]], self.cell_corners[:, _EDGES[:, 1]]
        mid = (keys[p] + keys[q]) // 2  # below the key of q, so pos is in range
        pos = np.searchsorted(keys, mid)
        cell, side = np.nonzero(keys[pos] == mid)
        records = np.column_stack(
            [pos[cell, side], p[cell, side], q[cell, side], _EDGES[side, 2]]
        )
        self.hanging = records[np.argsort(records[:, 0], kind="stable")]

        last = (1 << level) - 1
        on_side = np.column_stack([iy == 0, ix == last, iy == last, ix == 0])  # SIDES order
        self.boundary_edges = np.argwhere(on_side)

    def _check_partition(self):
        """Raise ``ValueError`` unless the cells tile the unit square once: in
        range, no leaf is an ancestor of a finer one, and the areas sum to one."""
        level, ix, iy = self.cell_array.T
        if self.min_level < 0 or self.max_level > MAX_LEVEL or np.any(
                (np.minimum(ix, iy) < 0) | (np.maximum(ix, iy) >> level != 0)):
            raise ValueError(f"cell out of range: need 0 <= level <= {MAX_LEVEL}, "
                             "0 <= ix, iy < 2**level")
        for L in range(self.min_level, self.max_level):
            finer = self.cell_array[level > L]
            d = finer[:, 0] - L
            if np.any(self._find(L, finer[:, 1] >> d, finer[:, 2] >> d) >= 0):
                raise ValueError(f"a level-{L} cell overlaps finer cells")
        if np.sum(1 << 2 * (self.max_level - level)) != 1 << 2 * self.max_level:
            raise ValueError("cells leave a gap in the unit square")

    # -- queries -----------------------------------------------------------

    @cached_property
    def cell_ids(self) -> tuple[CellId, ...]:
        """The cells as (level, ix, iy) tuples, in row order."""
        return tuple(map(tuple, self.cell_array.tolist()))

    def __len__(self) -> int:
        return len(self.cell_array)

    def cell_sizes(self) -> np.ndarray:
        return np.ldexp(1.0, -self.levels)

    def max_cell_size(self) -> float:
        return 0.5**self.min_level

    def cell_points(self, rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Physical coordinates of reference points on the leaves at ``rows``:
        (nrows, np, 2).  ``ref`` is (np, 2), shared by every leaf, or
        (nrows, np, 2), one set per leaf."""
        h = self.cell_sizes()[rows]
        return (self.cell_array[rows, 1:] * h[:, None])[:, None, :] + h[:, None, None] * ref

    def _find(self, level: int, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Index of the leaf (level, ix, iy) for each pair, or -1 if none.

        One ``searchsorted`` over the level's sorted keys ix * 2**level + iy.
        """
        start, stop = np.searchsorted(self.levels, [level, level + 1])
        n = 1 << level
        keys = self.cell_array[start:stop, 1] * n + self.cell_array[start:stop, 2]
        query = ix * n + iy
        pos = np.searchsorted(keys, query)
        hit = pos < len(keys)
        hit[hit] = keys[pos[hit]] == query[hit]
        return np.where(hit, start + pos, -1)


def init_uniform(levels: int) -> RectMesh:
    """Uniform mesh of ``4**levels`` congruent squares."""
    check_integer("levels", levels, 0)
    iy, ix = np.divmod(np.arange(4**levels), 1 << levels)
    return RectMesh(np.column_stack([np.full_like(ix, levels), ix, iy]))


def min_edge_length(mesh: RectMesh) -> float:
    """Minimal edge length; equals ``2**(-max level)`` on dyadic meshes."""
    return 0.5**mesh.max_level


def dissection_order(mesh: RectMesh) -> np.ndarray:
    """Vertex rows in quadtree nested-dissection order (George 1973).

    With L = ``max_level`` and R = ``res`` = 2**(L+1), a key 0 < k < R first
    lies on a dyadic midline at depth m(k) = L + 1 - tz(k), where tz(k)
    counts the trailing zero bits of k; a key on the boundary lies on none
    and counts as depth L + 1.  A vertex belongs to the cross (the two
    midlines) of the node at depth min(m(kx), m(ky)) - 1 that contains it,
    the dyadic square of side 2**-depth: a boundary coordinate defers to the
    other one, and a corner goes to the finest square at that corner.  Each
    vertex is a corner of a leaf finer than its node, and every leaf inside
    such a node is finer than the node, so its cross is a union of leaf
    edges: no cell joins two of its quadrants, and no hanging-node
    constraint either, as a slave and its masters lie on one leaf edge.  So
    two vertices that share a cell or a constraint lie in nested nodes.
    Nodes go in postorder, the quadrants (in Morton order) before their
    cross; within a node, vertices go by row.
    """
    L = mesh.max_level
    keys = mesh.vertex_keys
    inner = (keys > 0) & (keys < mesh.res)
    tz = np.frexp(np.where(inner, keys & -keys, 1))[1] - 1  # frexp(2**t) = (0.5, t + 1)
    depth = (L + 1 - tz).min(axis=1) - 1
    node = np.minimum(keys >> (L + 1 - depth)[:, None], (1 << depth)[:, None] - 1)
    morton = np.zeros(len(keys), dtype=np.int64)
    for bit in range(L):
        morton |= ((node[:, 0] >> bit & 1) << 2 * bit) | ((node[:, 1] >> bit & 1) << 2 * bit + 1)
    # the Morton index of the node's last depth-L square, finer nodes first on ties
    last = (morton + 1 << 2 * (L - depth)) - 1
    return np.lexsort((np.arange(len(keys)), -depth, last))


def refine(mesh: RectMesh, rows) -> RectMesh:
    """Split the leaves at the given rows into 4 children each and restore
    1-irregularity.

    ``rows`` are integer rows of ``mesh``, as ``indicators_and_mark``
    returns them; any other input raises ``ValueError``.  On a 1-irregular
    mesh the leaf covering a face neighbour of a level-L leaf is at level
    L - 1 or finer, and the children of a split at level L may only face
    leaves at level L or finer.  So a split at level L forces the split of
    each level-(L-1) leaf covering one of its in-domain face neighbours, and
    one pass over the levels, finest first, closes the marking.  The mesh
    must be 1-irregular, as ``init_uniform`` and ``refine`` make it.
    """
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise ValueError(f"marked rows must be integers, not {rows.dtype}")
    if np.any((rows < 0) | (rows >= len(mesh))):
        raise ValueError(f"marked rows must lie in [0, {len(mesh)})")
    level, ix, iy = mesh.cell_array.T
    split = np.zeros(len(mesh), dtype=bool)
    split[rows.astype(np.int64)] = True
    for L in range(mesh.max_level, mesh.min_level, -1):
        cells = np.flatnonzero(split & (level == L))
        n = 1 << L
        nx = ix[cells, None] + np.array([-1, 1, 0, 0])
        ny = iy[cells, None] + np.array([0, 0, -1, 1])
        inside = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
        parent = mesh._find(L - 1, nx[inside] >> 1, ny[inside] >> 1)
        split[parent[parent >= 0]] = True
    parents = mesh.cell_array[split]
    d = np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]])
    children = (parents * [1, 2, 2])[:, None, :] + d
    return RectMesh(np.vstack([mesh.cell_array[~split], children.reshape(-1, 3)]))
