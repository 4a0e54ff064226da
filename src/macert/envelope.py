"""Convex envelopes of sampled functions via lower convex hulls in 3D.

The envelope of the nodal interpolant is the lower hull of the lifted points
(x, y, v(x, y)).  A sample that is a vertex of a lower facet lies on the
hull, so the envelope there is the sample's own value; only the other
samples and off-sample points are evaluated.  Every lower-facet plane lies
below the envelope with equality above its own facet, so the envelope
evaluates as the maximum of candidate facet planes.  An index of dyadic
squares keeps that maximum local: each facet is filed, at its own depth, in
the squares its bounding box meets, at most eight of them, or for a sliver
(a long, thin box, as the fans Qhull builds along a side with affine data)
at most twice the box's aspect ratio, capped at 256.  The side plane of the
square supports the hull, so on a side the envelope is affine between
consecutive samples, and the boundary residual reads it at the boundary
samples and their midpoints, against g sampled there.  Only v_h is evaluated here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .bfs import FeFunction, QuadRule
from .geometry import SIDES, RectMesh, check_integer


@dataclass
class SampleSet:
    """Interior quadrature points plus boundary points of the unit square.

    Interior points keep their owning cell and quadrature weight so the same
    set drives both the envelope and the data-error quadrature.  ``rules``
    holds the (leaves, reference points) pairs that placed them; a leaf's
    points are the rows from its first in ``cell_index``.  Boundary points
    are the grid points of every boundary edge, each once.  Row e of
    ``edge_rows`` follows ``mesh.boundary_edges`` and names the row in
    ``boundary`` of edge e's grid point i / per_edge, i = 0..per_edge.
    """

    mesh: RectMesh
    interior: np.ndarray  # (ni, 2), grouped by owning cell in cell order
    cell_index: np.ndarray  # (ni,)
    weights: np.ndarray  # (ni,)
    boundary: np.ndarray  # (nb, 2) deduplicated, all four sides
    edge_rows: np.ndarray  # (ne, per_edge + 1) rows into boundary
    rules: list | None = None  # (cells, ref) per leaf group, from build_samples

    @property
    def points(self) -> np.ndarray:
        return np.vstack([self.interior, self.boundary])

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @cached_property
    def boundary_dist(self) -> np.ndarray:
        """Distance of each interior sample to the boundary of the unit square."""
        x, y = self.interior[:, 0], self.interior[:, 1]
        return np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))

    def interior_fields(self, v_h: FeFunction, what) -> dict[str, np.ndarray]:
        """Derivatives of ``v_h`` at the interior samples, in sample order.

        Evaluated leaf by leaf through the shared reference points of
        ``rules``, so it needs the sample set to come from ``build_samples``.
        """
        out = {name: np.empty(self.n_interior) for name in what}
        for cells, ref in self.rules:
            vals = v_h.on_cells(cells, ref, what=what)
            idx = np.searchsorted(self.cell_index, cells)[:, None] + np.arange(len(ref))
            for name in what:
                out[name][idx] = vals[name]
        return out

    def boundary_values(self, edge_vals: np.ndarray) -> np.ndarray:
        """Values at the boundary samples from values at the grid points of
        every boundary edge, (ne, per_edge + 1) as ``edge_values`` gives them.
        A point on two edges takes either owner's value: for v_h, the same."""
        out = np.empty(len(self.boundary))
        out[self.edge_rows] = edge_vals
        return out


def edge_values(v_h: FeFunction, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of ``v_h`` and points at parameters ``t`` of every boundary edge.

    Rows are aligned with ``mesh.boundary_edges``: (ne, nt) values and
    (ne, nt, 2) points.  All owners are evaluated in one batch at the
    points of all four sides of the reference cell, and each edge keeps
    the values of its own side.
    """
    ref = np.vstack([_side_point(side, t) for side in SIDES])
    owners, side = v_h.space.mesh.boundary_edges.T
    vals = v_h.on_cells(owners, ref, what=("N",))["N"].reshape(len(owners), 4, -1)
    vals = vals[np.arange(len(owners)), side]
    return vals, _edge_points(v_h.space.mesh, t)


def _edge_points(mesh: RectMesh, t: np.ndarray) -> np.ndarray:
    """(ne, nt, 2) points at parameters ``t`` of the ``mesh.boundary_edges``."""
    owners, side = mesh.boundary_edges.T
    return mesh.cell_points(owners, np.stack([_side_point(s, t) for s in SIDES])[side])


def _side_point(side: str, t: np.ndarray) -> np.ndarray:
    """Points at parameters t on a side; even SIDES run along x, odd along y."""
    t = np.asarray(t, dtype=float)
    k = SIDES.index(side)
    fixed = np.full_like(t, float(side in ("right", "top")))
    return np.column_stack([t, fixed] if k % 2 == 0 else [fixed, t])


def _leaf_rules(mesh: RectMesh, quad: QuadRule, min_level: int):
    """Sampling rules per group of leaves, and the sample count of each leaf.

    Each rule is (cells, reference points, reference weights).  A leaf at
    level L uses ``quad`` on each of its split x split sub-cells,
    split = 2**max(min_level - L, 0), with the weights scaled to sum to one;
    at split 1 these are the points and weights of ``quad`` itself.
    Samples are numbered leaf by leaf in cell order.
    """
    splits = 2 ** np.maximum(min_level - mesh.levels, 0)
    rules = []
    for split in np.unique(splits).tolist():
        cells = np.nonzero(splits == split)[0]
        k = np.arange(split)
        corners = np.column_stack([np.repeat(k, split), np.tile(k, split)])
        ref = ((corners[:, None, :] + quad.ref_points[None, :, :]) / split).reshape(-1, 2)
        rules.append((cells, ref, np.tile(quad.ref_weights, split * split) / (split * split)))
    return rules, quad.npoints * splits**2


def build_samples(
    mesh: RectMesh,
    quad: QuadRule,
    per_edge: int,
    min_level: int = 0,
) -> SampleSet:
    """Sample set from quadrature points plus boundary subdivisions.

    The interior samples are the points of ``quad`` on every leaf, with the
    owning leaf and the quadrature weight.  ``min_level`` is a resolution
    floor: a leaf coarser than ``2**-min_level`` is sampled by ``quad`` on
    each of its sub-cells of that size, so it gets 4**(min_level - level)
    times as many points, its weights still sum to its area, and
    ``cell_index`` still names the leaf.  Leaves at the floor or finer get
    the same points, in the same order, as with no floor.  The floor matters
    because the same points serve as hull vertices, contact flags and the
    data-error quadrature, which a single 5x5 rule on the 1x1 mesh resolves
    badly.

    Every boundary edge of the mesh is subdivided into ``per_edge`` uniform
    segments regardless of its length, which keeps the boundary resolution
    proportional to the local edge size on adaptive meshes.  Corners and
    edge endpoints are always present.  The boundary lists each grid point
    once, by its first side in ``SIDES`` and then its coordinate along it.
    """
    check_integer("per_edge", per_edge, 1)
    check_integer("min_level", min_level, 0)
    sizes = mesh.cell_sizes()
    rules, counts = _leaf_rules(mesh, quad, min_level)
    cell_index = np.repeat(np.arange(len(mesh)), counts)
    starts = np.cumsum(counts) - counts
    interior = np.empty((len(cell_index), 2))
    weights = np.empty(len(cell_index))
    for cells, ref, wref in rules:
        idx = starts[cells][:, None] + np.arange(len(ref))
        interior[idx] = mesh.cell_points(cells, ref)
        weights[idx] = sizes[cells, None] ** 2 * wref[None, :]

    pts = _edge_points(mesh, np.arange(per_edge + 1) / per_edge).reshape(-1, 2)
    x, y = pts.T
    side = np.select([y == 0.0, x == 1.0, y == 1.0], [0, 1, 2], 3)
    key = np.column_stack([side, np.where(side % 2 == 0, x, y)])
    _, first, rows = np.unique(key, axis=0, return_index=True, return_inverse=True)
    edge_rows = rows.reshape(len(mesh.boundary_edges), per_edge + 1)
    rules = [(cells, ref) for cells, ref, _ in rules]
    return SampleSet(mesh, interior, cell_index, weights, pts[first], edge_rows, rules)


@dataclass
class LowerHull:
    """Lower convex hull of lifted samples with an evaluation structure.

    ``gamma`` is the envelope at the samples.  A vertex of a lower facet lies
    on the hull, so its envelope is its own value; every other sample is
    evaluated.  ``on_hull`` flags the samples within 1e-10 (relative to the
    largest value) of the envelope, so every vertex is flagged.
    """

    samples: SampleSet
    values: np.ndarray  # v at samples.points, same order
    planes: np.ndarray  # (nf, 3): z = a0*x + a1*y + b per lower facet
    simplices: np.ndarray  # (nf, 3) indices into samples.points
    gamma: np.ndarray = field(init=False)  # envelope at samples.points
    on_hull: np.ndarray = field(init=False)  # bool per sample point
    _buckets: tuple = field(init=False, repr=False)  # see _bucket_index

    def __post_init__(self):
        pts = self.samples.points
        top = min(self.samples.mesh.max_level + 2, _MAX_DEPTH)
        self._buckets = _bucket_index(pts, self.simplices, top)
        rest = np.ones(len(pts), dtype=bool)
        rest[self.simplices] = False
        self.gamma = self.values.copy()
        self.gamma[rest] = self.evaluate(pts[rest])
        scale = 1.0 + float(np.max(np.abs(self.values))) if len(self.values) else 1.0
        self.on_hull = self.values - self.gamma <= 1e-10 * scale

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Envelope values at query points inside the unit square.

        The value at a point is the largest plane among the facets filed in
        its squares: the facet whose triangle holds the point is one of them,
        and no lower-facet plane rises above the envelope.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        keys, facet_ids, depths = self._buckets
        q = np.clip(pts, 0.0, 1.0)
        # facets of point i at the k-th depth: facet_ids[first[k, i]:][:count[k, i]]
        first = np.empty((len(depths), len(pts)), dtype=np.int32)
        count = np.empty_like(first)
        for k, n in enumerate(np.left_shift(1, depths).tolist()):
            key = _square_key(_square(q, n), n)
            first[k] = np.searchsorted(keys, key, side="left")
            count[k] = np.searchsorted(keys, key, side="right") - first[k]
        per_point = count.sum(axis=0)
        if not np.all(per_point):
            raise ValueError("a query point lies in no lower facet")
        ends = np.cumsum(per_point)
        cuts = np.searchsorted(ends, np.arange(0, per_point.sum(), _CHUNK), "right")
        cuts = np.unique(cuts).tolist()
        a0, a1, b = self.planes.T
        out = np.empty(len(pts))
        for lo, hi in zip(cuts, cuts[1:] + [len(pts)]):
            c = count[:, lo:hi].T.ravel()  # point-major (point, depth) runs
            pos = np.repeat(first[:, lo:hi].T.ravel() - (np.cumsum(c) - c), c)
            f = facet_ids[pos + np.arange(len(pos))]
            n = per_point[lo:hi]
            p = np.repeat(np.arange(lo, hi), n)
            vals = a0[f] * pts[p, 0] + a1[f] * pts[p, 1] + b[f]
            out[lo:hi] = np.maximum.reduceat(vals, np.cumsum(n) - n)
        return out


_MIN_SQUARES = 8  # index entries a facet may always take
_MAX_SQUARES = 256  # index entries a sliver facet may take at most
_CHUNK = 1 << 16  # (point, facet) pairs per segmented max, index entries per pass
_MAX_DEPTH = 31  # square counts and keys, at most 4**depth, fit in int64


def _square(q: np.ndarray, n) -> np.ndarray:
    """Column and row of the square of side 1/n that holds each point of q."""
    return np.minimum((q * n).astype(np.int64), n - 1)


def _square_key(ij: np.ndarray, n) -> np.ndarray:
    """Key of each square; n = 2**depth, numbered after all coarser squares."""
    return (n * n - 1) // 3 + ij[:, 0] * n + ij[:, 1]


def _square_budget(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Index entries per facet: max(8, min(ceil(2 * aspect), 256)).

    The aspect is the long side of the bounding box [lo, hi] over its short
    side.  Eight squares file a sliver at a depth where its squares also
    hold many other facets; a budget that grows with the aspect files it
    where its squares are about as wide as it is.
    """
    extent = hi - lo
    long, short = extent.max(axis=1), extent.min(axis=1)
    capped = 2.0 * long >= _MAX_SQUARES * short
    aspect2 = np.divide(2.0 * long, short, out=np.full(len(lo), float(_MAX_SQUARES)), where=~capped)
    return np.maximum(np.ceil(aspect2), _MIN_SQUARES).astype(np.int64)


def _bucket_index(pts: np.ndarray, simplices: np.ndarray, top: int):
    """Sorted square keys with their facet ids, and the depths in use.

    Each facet (the triangle ``pts[simplices[f]]`` in [0, 1]^2) is filed in
    every square of side 2**-d its bounding box meets, d <= ``top`` the
    deepest depth with at most ``_square_budget`` of them; so a point's
    square at d holds the facet.  The keys are expanded ``_CHUNK`` entries
    at a time, and every per-facet array is freed before the sort, so the
    peak is the keys, the ids and the sort order.
    """
    lo = pts[simplices[:, 0]]
    hi = lo.copy()
    for k in (1, 2):
        corner = pts[simplices[:, k]]
        np.minimum(lo, corner, out=lo)
        np.maximum(hi, corner, out=hi)
    del corner
    budget = _square_budget(lo, hi)
    depth = np.zeros(len(lo), dtype=np.int64)
    for d in range(1, top + 1):
        w = _square(hi, 1 << d) - _square(lo, 1 << d) + 1
        depth[w[:, 0] * w[:, 1] <= budget] = d
    del budget
    n = np.left_shift(1, depth)
    i0 = _square(lo, n[:, None])
    w = _square(hi, n[:, None]) - i0 + 1
    del lo, hi
    size = w[:, 0] * w[:, 1]
    start = np.cumsum(size) - size
    ids = np.repeat(np.arange(len(size), dtype=np.int32), size)
    del size
    keys = np.empty(len(ids), dtype=np.int64)
    for a in range(0, len(ids), _CHUNK):
        f = ids[a:a + _CHUNK]
        k = np.arange(a, a + len(f)) - start[f]  # the k-th square of facet f
        wf = w[f, 0]
        keys[a:a + len(f)] = _square_key(i0[f] + np.column_stack([k % wf, k // wf]), n[f])
    del n, i0, w, start
    ids = ids[np.argsort(keys)]
    keys.sort()  # the same values as keys[argsort(keys)]
    return keys, ids, np.unique(depth)


_AREA_TOL = 1e-9  # lower facets tile the unit square: their areas sum to 1 up to rounding


def lower_hull(samples: SampleSet, values: np.ndarray) -> LowerHull:
    """Lower convex hull of the lifted samples (x, y, v).

    Facets are the Qhull simplices whose outward normal points downward.
    For affine data (a degenerate 3D hull) the facets are the two triangles
    on the square's corner samples, both on the fitted plane; a corner that
    is not a sample raises ``ValueError``.
    Raises ``ValueError`` when the lower facets' projections do not tile the
    unit square: their areas must sum to 1 within ``_AREA_TOL``.
    """
    pts = samples.points
    values = np.asarray(values, dtype=float)
    if len(pts) < 3:
        raise ValueError("need at least 3 sample points")
    A = np.column_stack([pts, np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    scale = 1.0 + float(np.max(np.abs(values)))
    if float(np.max(np.abs(A @ coef - values))) <= 1e-12 * scale:
        is_corner = np.all(pts[:, None, :] == np.array([[0, 0], [1, 0], [1, 1], [0, 1]]), axis=2)
        if not is_corner.any(axis=0).all():
            raise ValueError("affine data needs a sample at every corner of the square")
        corners = is_corner.argmax(axis=0)
        return LowerHull(samples, values, np.tile(coef, (2, 1)), corners[[[0, 1, 2], [0, 2, 3]]])

    lifted = np.column_stack([pts, values])
    del A, pts
    try:
        hull = ConvexHull(lifted)
    except QhullError as exc:
        raise ValueError(f"degenerate hull input: {exc}") from exc
    eq = hull.equations  # nx, ny, nz, offset with n . p + offset <= 0 inside
    lower = eq[:, 2] < -1e-12
    simplices, eq = hull.simplices[lower], eq[lower]
    del hull, lifted  # alive while the index is built, Qhull's output sets the peak memory
    x, y = samples.points.T
    a, b, c = simplices.T
    area = 0.5 * np.sum(np.abs((x[b] - x[a]) * (y[c] - y[a]) - (x[c] - x[a]) * (y[b] - y[a])))
    if not abs(area - 1.0) <= _AREA_TOL:
        raise ValueError(
            f"the lower facets cover an area of {area:.6g}, not the unit square's 1 "
            f"(tolerance {_AREA_TOL:g}): values in [{values.min():.3g}, {values.max():.3g}] "
            "span too wide a range for the hull's floating-point arithmetic"
        )
    # plane z = a0 x + a1 y + b from nx x + ny y + nz z + off = 0
    planes = np.column_stack([-eq[:, 0] / eq[:, 2], -eq[:, 1] / eq[:, 2], -eq[:, 3] / eq[:, 2]])
    return LowerHull(samples, values, planes, simplices)


def contact_set(hull: LowerHull, hessians) -> np.ndarray:
    """Contact flags (bool, length n_interior) at the hull's interior samples.

    A point belongs to the approximate contact set when its lifted sample
    lies on the lower hull and the piecewise Hessian (m11, m12, m22) of v_h
    there, given at the interior samples, is positive semidefinite up to a
    relative tolerance.
    """
    m11, m12, m22 = hessians
    frob = np.sqrt(m11**2 + 2 * m12**2 + m22**2)
    tol = 1e-12 * float(np.max(frob)) if len(frob) else 0.0
    half = 0.5 * (m11 + m22)
    rad = np.hypot(0.5 * (m11 - m22), m12)
    return hull.on_hull[: hull.samples.n_interior] & (half - rad >= -tol)


def boundary_residual(hull: LowerHull, gvals: np.ndarray) -> float:
    """max |g - envelope| over boundary sample points and their midpoints.

    ``gvals`` is g at parameters i / (2 per_edge) of every boundary edge, in
    the rows of ``samples.edge_rows``: the samples, then their midpoints, in
    turn.  The side plane supports the hull, so on a side the envelope is the
    1D lower hull of the side's samples: affine between consecutive samples,
    and at their midpoint the mean of its values at the two.  The edges of a
    side tile it, so those pairs are consecutive grid points of one edge.
    """
    samples = hull.samples
    at = hull.gamma[samples.n_interior + samples.edge_rows]
    trace = np.empty(gvals.shape)
    trace[:, ::2] = at
    trace[:, 1::2] = 0.5 * (at[:, :-1] + at[:, 1:])
    return float(np.max(np.abs(gvals - trace)))
