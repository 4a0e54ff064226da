"""Convex envelopes of sampled functions via lower convex hulls in 3D.

The envelope of the nodal interpolant is the lower hull of the lifted points
(x, y, v(x, y)).  Every lower-facet plane lies below the envelope with
equality above its own facet, so the envelope evaluates as the maximum of
candidate facet planes; a uniform spatial bucket keeps that maximum local.
The trace of the hull on a side of the square only depends on the samples of
that side (the side plane supports the hull), which reduces the boundary
residual to four 1D lower hulls.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .bfs import FeFunction, QuadRule
from .geometry import RectMesh

_SIDES = ("bottom", "right", "top", "left")


@dataclass
class SampleSet:
    """Interior quadrature points plus boundary points of the unit square.

    Interior points keep their owning cell and quadrature weight so the same
    set drives both the envelope and the data-error quadrature.  Boundary
    points are stored per side, ordered by arclength, corners included.
    """

    mesh: RectMesh
    interior: np.ndarray  # (ni, 2), grouped by owning cell in cell order
    cell_index: np.ndarray  # (ni,)
    weights: np.ndarray  # (ni,)
    boundary: np.ndarray  # (nb, 2) deduplicated, all four sides
    side_params: dict[str, np.ndarray]  # side -> sorted parameters in [0, 1]
    quad: QuadRule | None = None  # rule the interior was built from
    min_level: int = 0  # sampling floor, see build_samples

    @property
    def points(self) -> np.ndarray:
        return np.vstack([self.interior, self.boundary])

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    def interior_fields(self, v_h: FeFunction, what) -> dict[str, np.ndarray]:
        """Derivatives of ``v_h`` at the interior samples, in sample order.

        Evaluated leaf by leaf through shared reference points, so it needs
        the sample set to come from ``build_samples``.
        """
        rules, counts = _leaf_rules(self.mesh, self.quad, self.min_level)
        starts = np.cumsum(counts) - counts
        out = {name: np.empty(self.n_interior) for name in what}
        for cells, ref, _ in rules:
            vals = v_h.on_cells(cells, ref, what=what)
            idx = starts[cells][:, None] + np.arange(len(ref))
            for name in what:
                out[name][idx] = vals[name]
        return out


def _side_point(side: str, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    zero, one = np.zeros_like(t), np.ones_like(t)
    if side == "bottom":
        return np.column_stack([t, zero])
    if side == "top":
        return np.column_stack([t, one])
    if side == "left":
        return np.column_stack([zero, t])
    if side == "right":
        return np.column_stack([one, t])
    raise ValueError(side)


def _leaf_rules(mesh: RectMesh, quad: QuadRule, min_level: int):
    """Sampling rules per group of leaves, and the sample count of each leaf.

    Each rule is (cells, reference points, reference weights).  Leaves at
    level ``min_level`` or finer use ``quad`` itself; a leaf at a coarser
    level L uses ``quad`` on each of its split x split sub-cells,
    split = 2**(min_level - L), with the weights scaled to sum to one.
    Samples are numbered leaf by leaf in cell order.
    """
    levels = np.array([c[0] for c in mesh.cell_ids])
    splits = 2 ** np.maximum(min_level - levels, 0)
    rules = []
    for split in np.unique(splits).tolist():
        cells = np.nonzero(splits == split)[0]
        ref, weights = quad.ref_points, quad.ref_weights
        if split > 1:
            k = np.arange(split)
            corners = np.column_stack([np.repeat(k, split), np.tile(k, split)])
            ref = ((corners[:, None, :] + ref[None, :, :]) / split).reshape(-1, 2)
            weights = np.tile(weights, split * split) / (split * split)
        rules.append((cells, ref, weights))
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
    edge endpoints are always present.
    """
    if per_edge < 1:
        raise ValueError("per_edge must be at least 1")
    if min_level < 0:
        raise ValueError("min_level must be nonnegative")
    ncells = len(mesh.cell_ids)
    sizes = mesh.cell_sizes()
    origins = np.array([[c[1], c[2]] for c in mesh.cell_ids], dtype=float) * sizes[:, None]
    rules, counts = _leaf_rules(mesh, quad, min_level)
    cell_index = np.repeat(np.arange(ncells), counts)
    starts = np.cumsum(counts) - counts
    interior = np.empty((len(cell_index), 2))
    weights = np.empty(len(cell_index))
    for cells, ref, wref in rules:
        idx = starts[cells][:, None] + np.arange(len(ref))
        interior[idx] = origins[cells, None, :] + sizes[cells, None, None] * ref[None, :, :]
        weights[idx] = sizes[cells, None] ** 2 * wref[None, :]

    side_params: dict[str, np.ndarray] = {}
    for side in _SIDES:
        params: set[float] = {0.0, 1.0}
        for ci, s in mesh.boundary_edges:
            if s != side:
                continue
            (xa, ya), (xb, yb) = mesh.boundary_edge_segment(ci, s)
            a = xa if side in ("bottom", "top") else ya
            b = xb if side in ("bottom", "top") else yb
            h = b - a
            for i in range(per_edge + 1):
                params.add(a + h * i / per_edge)
        side_params[side] = np.array(sorted(params))

    seen: set[tuple[float, float]] = set()
    bpts = []
    for side in _SIDES:
        for p in _side_point(side, side_params[side]):
            key = (p[0], p[1])
            if key not in seen:
                seen.add(key)
                bpts.append(key)
    boundary = np.array(bpts)
    return SampleSet(
        mesh, interior, cell_index, weights, boundary, side_params, quad, min_level
    )


@dataclass
class LowerHull:
    """Lower convex hull of lifted samples with an evaluation structure."""

    samples: SampleSet
    values: np.ndarray  # v at samples.points, same order
    planes: np.ndarray  # (nf, 3): z = a0*x + a1*y + b per lower facet
    simplices: np.ndarray  # (nf, 3) indices into samples.points
    planar: bool
    on_hull: np.ndarray = field(init=False)  # bool per sample point
    _buckets: object = field(default=None, repr=False)

    def __post_init__(self):
        pts = self.samples.points
        gap = self.values - self.evaluate(pts)
        scale = 1.0 + float(np.max(np.abs(self.values))) if len(self.values) else 1.0
        self.on_hull = gap <= 1e-10 * scale

    # -- evaluation --------------------------------------------------------

    def _bucket_index(self):
        if self._buckets is not None:
            return self._buckets
        nf = len(self.planes)
        G = int(np.clip(np.sqrt(max(nf, 1)), 4, 512))
        pts = self.samples.points
        tri = pts[self.simplices]  # (nf, 3, 2)
        lo = np.clip((tri.min(axis=1) * G).astype(np.int64), 0, G - 1)
        hi = np.clip((tri.max(axis=1) * G).astype(np.int64), 0, G - 1)
        wx = hi[:, 0] - lo[:, 0] + 1
        wy = hi[:, 1] - lo[:, 1] + 1
        counts = wx * wy
        # facets covering very many buckets go to a chunked full-scan list
        big = counts > 4096
        small = np.nonzero(~big)[0]
        csm = counts[small]
        total = int(csm.sum())
        facet_ids = np.repeat(small, csm)
        within = np.arange(total) - np.repeat(np.cumsum(csm) - csm, csm)
        mod = np.repeat(wx[small], csm)
        dx = within % mod
        dy = within // mod
        bucket_ids = (np.repeat(lo[small, 0], csm) + dx) * G + (
            np.repeat(lo[small, 1], csm) + dy
        )
        order = np.argsort(bucket_ids, kind="stable")
        facet_ids = facet_ids[order]
        bucket_ids = bucket_ids[order]
        starts = np.searchsorted(bucket_ids, np.arange(G * G + 1))
        self._buckets = (G, facet_ids, starts, np.nonzero(big)[0])
        return self._buckets

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Envelope values at query points inside the unit square."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.planar:
            a0, a1, b = self.planes[0]
            return a0 * pts[:, 0] + a1 * pts[:, 1] + b
        G, facet_ids, starts, big = self._bucket_index()
        out = np.full(len(pts), -np.inf)
        q = np.clip(pts, 0.0, 1.0)
        bx = np.minimum((q[:, 0] * G).astype(int), G - 1)
        by = np.minimum((q[:, 1] * G).astype(int), G - 1)
        bucket = bx * G + by
        order = np.argsort(bucket, kind="stable")
        sb = bucket[order]
        edges = np.searchsorted(sb, np.arange(G * G + 1))
        for b in np.unique(sb):
            qi = order[edges[b] : edges[b + 1]]
            cand = facet_ids[starts[b] : starts[b + 1]]
            if len(cand) == 0:
                continue
            out[qi] = self._plane_max(self.planes[cand], pts[qi])
        if len(big):
            out = np.maximum(out, self._plane_max(self.planes[big], pts))
        miss = ~np.isfinite(out)
        if np.any(miss):  # isolated points whose bucket holds no facet
            out[miss] = self._plane_max(self.planes, pts[miss])
        return out

    @staticmethod
    def _plane_max(planes: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Running max over facet planes, chunked to bound the work array."""
        out = np.full(len(pts), -np.inf)
        for start in range(0, len(planes), 64):
            pl = planes[start : start + 64]
            vals = (
                pl[:, 0][:, None] * pts[:, 0]
                + pl[:, 1][:, None] * pts[:, 1]
                + pl[:, 2][:, None]
            )
            np.maximum(out, vals.max(axis=0), out=out)
        return out

    def boundary_trace(self, side: str, t: np.ndarray) -> np.ndarray:
        """Envelope restricted to one side, evaluated at parameters t.

        Equals the 1D lower hull of the side's own samples because the side
        plane of the square supports the full 3D hull.
        """
        params = self.samples.side_params[side]
        pts = _side_point(side, params)
        vals = self._value_at_sample(pts)
        hull_t, hull_v = _lower_hull_1d(params, vals)
        return np.interp(t, hull_t, hull_v)

    def _value_at_sample(self, pts: np.ndarray) -> np.ndarray:
        """Sample values looked up by coordinates (boundary points only)."""
        allpts = self.samples.points
        index = {(p[0], p[1]): i for i, p in enumerate(allpts[self.samples.n_interior :])}
        idx = [index[(p[0], p[1])] + self.samples.n_interior for p in pts]
        return self.values[idx]


def _lower_hull_1d(t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hull of points (t_i, v_i) with t strictly increasing."""
    keep: list[int] = []
    for i in range(len(t)):
        while len(keep) >= 2:
            i0, i1 = keep[-2], keep[-1]
            # drop i1 if it lies on or above the chord i0 -> i
            if (v[i1] - v[i0]) * (t[i] - t[i0]) >= (v[i] - v[i0]) * (t[i1] - t[i0]):
                keep.pop()
            else:
                break
        keep.append(i)
    return t[keep], v[keep]


def lower_hull(samples: SampleSet, values: np.ndarray) -> LowerHull:
    """Lower convex hull of the lifted samples (x, y, v).

    Facets are the Qhull simplices whose outward normal points downward.
    Affine data (a degenerate 3D hull) falls back to the fitted plane.
    """
    pts = samples.points
    values = np.asarray(values, dtype=float)
    if len(pts) < 3:
        raise ValueError("need at least 3 sample points")
    A = np.column_stack([pts, np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    scale = 1.0 + float(np.max(np.abs(values)))
    if float(np.max(np.abs(A @ coef - values))) <= 1e-12 * scale:
        if np.linalg.matrix_rank(A[:, :2] - A[:, :2].mean(axis=0)) < 2:
            raise ValueError("sample points are collinear")
        planes = np.array([[coef[0], coef[1], coef[2]]])
        return LowerHull(samples, values, planes, np.zeros((0, 3), int), True)

    lifted = np.column_stack([pts, values])
    try:
        hull = ConvexHull(lifted)
    except QhullError as exc:
        raise ValueError(f"degenerate hull input: {exc}") from exc
    eq = hull.equations  # nx, ny, nz, offset with n . p + offset <= 0 inside
    lower = eq[:, 2] < -1e-12
    simplices = hull.simplices[lower]
    eq = eq[lower]
    # plane z = a0 x + a1 y + b from nx x + ny y + nz z + off = 0
    planes = np.column_stack([-eq[:, 0] / eq[:, 2], -eq[:, 1] / eq[:, 2], -eq[:, 3] / eq[:, 2]])
    return LowerHull(samples, values, planes, simplices, False)


@dataclass
class ContactSet:
    """Flags over interior samples: envelope touches and Hessian is PSD."""

    flags: np.ndarray  # bool, length n_interior
    on_hull: np.ndarray
    psd: np.ndarray


def contact_set(hull: LowerHull, v_h: FeFunction, hessians=None) -> ContactSet:
    """Contact flags at the interior samples of the hull's sample set.

    A point belongs to the approximate contact set when its lifted sample
    lies on the lower hull and the piecewise Hessian of ``v_h`` there is
    positive semidefinite up to a relative tolerance.
    """
    samples = hull.samples
    ni = samples.n_interior
    if hessians is None:
        H = v_h.hessian(samples.interior)
        m11, m12, m22 = H[:, 0], H[:, 1], H[:, 2]
    else:
        m11, m12, m22 = hessians
    frob = np.sqrt(m11**2 + 2 * m12**2 + m22**2)
    tol = 1e-12 * float(np.max(frob)) if len(frob) else 0.0
    half = 0.5 * (m11 + m22)
    rad = np.hypot(0.5 * (m11 - m22), m12)
    psd = half - rad >= -tol
    on_hull = hull.on_hull[:ni]
    return ContactSet(on_hull & psd, on_hull, psd)


def boundary_residual(hull: LowerHull, g) -> float:
    """max |g - envelope| over boundary sample points and their midpoints."""
    mu = 0.0
    for side in _SIDES:
        params = hull.samples.side_params[side]
        mids = 0.5 * (params[:-1] + params[1:])
        t = np.concatenate([params, mids])
        pts = _side_point(side, t)
        gv = np.broadcast_to(np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float), t.shape)
        mu = max(mu, float(np.max(np.abs(gv - hull.boundary_trace(side, t)))))
    return mu
