import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay
from oracles import (
    boundary_g,
    boundary_residual_reference,
    boundary_values,
    bucket_index_reference,
    envelope_gap,
    lp_envelope,
    on_hull_reference,
    point_fields,
    point_values,
    rows_of,
    sample_hessians,
    sample_values,
    trace_error,
)

from macert import bench
from macert.bfs import BfsSpace, FeFunction, QuadRule
from macert.bench import EXPERIMENTS
from macert.envelope import (
    _CHUNK,
    SampleSet,
    _bucket_index,
    _side_point,
    _square,
    _square_budget,
    _square_key,
    boundary_residual,
    build_samples,
    contact_set,
    edge_values,
    lower_hull,
)
from macert.estimator import max_boundary_trace_error
from macert.geometry import SIDES, init_uniform, refine


def nodal_fe(mesh, u, ux, uy, uxy=lambda x, y: 0.0 * x):
    """BFS function with the nodal values and derivatives of a given function."""
    space = BfsSpace(mesh)
    xs, ys = mesh.vertex_coords[:, 0], mesh.vertex_coords[:, 1]
    coeffs = np.zeros(space.nfull)
    for k, fn in enumerate((u, ux, uy, uxy)):
        coeffs[k::4] = fn(xs, ys)
    return FeFunction(space, coeffs)


def grid_samples(n, rng=None, values=None):
    t = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(t, t, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    interior = np.array([p for p in pts if 0 < p[0] < 1 and 0 < p[1] < 1])
    boundary = np.array([p for p in pts if not (0 < p[0] < 1 and 0 < p[1] < 1)])
    if len(interior) == 0:
        interior = np.empty((0, 2))
    mesh = init_uniform(0)
    row = {tuple(p): k for k, p in enumerate(boundary)}
    edge_rows = np.array(
        [[row[tuple(p)] for p in _side_point(SIDES[k], t)] for k in mesh.boundary_edges[:, 1]]
    )
    return SampleSet(
        mesh,
        interior,
        np.zeros(len(interior), dtype=int),
        np.full(len(interior), 1.0 / max(len(interior), 1)),
        boundary,
        edge_rows,
    )


class TestBuildSamples:
    def test_counts_single_cell(self):
        samples = build_samples(init_uniform(0), QuadRule(1), per_edge=2)
        assert samples.n_interior == 1
        assert len(samples.boundary) == 8  # 4 corners + 4 edge midpoints

    def test_boundary_layout(self):
        # each point once, sides in order, first occurrence of each corner
        # kept, and edge_rows addresses every edge's points on its own side
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 0, 0)]))
        mesh = refine(mesh, rows_of(mesh, [(2, 1, 0)]))
        samples = build_samples(mesh, QuadRule(2), per_edge=3)
        expected = []
        for k, side in enumerate(SIDES):
            pts = samples.boundary[samples.edge_rows[mesh.boundary_edges[:, 1] == k]]
            pts = pts.reshape(-1, 2)
            assert np.all(pts[:, 1 - k % 2] == float(side in ("right", "top")))
            for p in pts[np.argsort(pts[:, k % 2], kind="stable")].tolist():
                if tuple(p) not in expected:
                    expected.append(tuple(p))
        assert [tuple(p) for p in samples.boundary] == expected

    @pytest.mark.parametrize("per_edge", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("mesh_name", ["level0", "level1", "level2", "graded"])
    def test_boundary_is_the_sorted_edge_grid(self, mesh_name, per_edge):
        # from coordinates alone: the distinct grid points of the boundary
        # edges, sorted by (first side holding the point, coordinate along
        # it), each once; edge_rows gathers the edge_values grid bit for bit
        if mesh_name == "graded":
            vh = TestBoundaryValues.graded_fe(0)
        else:
            mesh = init_uniform(int(mesh_name[-1]))
            vh = FeFunction(BfsSpace(mesh), np.zeros(BfsSpace(mesh).nfull))
        mesh = vh.space.mesh
        t = np.arange(per_edge + 1) / per_edge
        grid = set()
        for (level, ix, iy), k in zip(
            (mesh.cell_ids[c] for c in mesh.boundary_edges[:, 0]), mesh.boundary_edges[:, 1]
        ):
            h = 0.5**level
            fixed = float(SIDES[k] in ("right", "top"))
            along = (ix if k % 2 == 0 else iy) * h + h * t
            grid |= {(a, fixed) if k % 2 == 0 else (fixed, a) for a in along.tolist()}

        def first_side(p):
            x, y = p
            side = 0 if y == 0 else 1 if x == 1 else 2 if y == 1 else 3
            return side, p[side % 2]

        samples = build_samples(mesh, QuadRule(2), per_edge=per_edge)
        got = [tuple(p) for p in samples.boundary.tolist()]
        assert len(set(got)) == len(got)
        assert got == sorted(grid, key=first_side)
        assert np.array_equal(samples.boundary[samples.edge_rows], edge_values(vh, t)[1])

    def test_corners_present(self):
        samples = build_samples(init_uniform(2), QuadRule(2), per_edge=1)
        bset = {tuple(p) for p in samples.boundary}
        assert {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)} <= bset

    def test_doubling_density_halves_gap(self):
        def max_gap(per_edge):
            samples = build_samples(init_uniform(1), QuadRule(2), per_edge)
            b = samples.boundary
            gaps = []
            for axis in (0, 1):
                for fixed in (0.0, 1.0):
                    p = np.sort(b[b[:, 1 - axis] == fixed, axis])
                    gaps.append(np.max(np.diff(p)))
            return max(gaps)

        assert max_gap(4) == pytest.approx(0.5 * max_gap(2))

    def test_interior_points_are_quadrature_points(self):
        quad = QuadRule(3)
        samples = build_samples(init_uniform(1), quad, per_edge=2)
        assert samples.n_interior == 4 * quad.npoints
        assert samples.weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("level", [0, 1])
    def test_floor_subdivides_coarse_leaves(self, level):
        # below the floor a leaf gets the rule on each of its 1/4 sub-cells:
        # composite points inside the leaf, integrating a bicubic exactly
        quad = QuadRule(2)
        mesh = init_uniform(level)
        samples = build_samples(mesh, quad, per_edge=2 ** (2 - level), min_level=2)
        split = 2 ** (2 - level)
        assert samples.n_interior == len(mesh.cell_ids) * split**2 * quad.npoints
        p = samples.interior
        bicubic = 1.0 + p[:, 0] ** 3 * p[:, 1] ** 2 - 2.0 * p[:, 0] * p[:, 1] ** 3
        h = 0.5**level
        for c, cid in enumerate(mesh.cell_ids):
            m = samples.cell_index == c
            x0, y0 = cid[1] * h, cid[2] * h
            assert np.all((p[m, 0] > x0) & (p[m, 0] < x0 + h))
            assert np.all((p[m, 1] > y0) & (p[m, 1] < y0 + h))
            assert samples.weights[m].sum() == pytest.approx(h * h, abs=1e-15)
            x1, y1 = x0 + h, y0 + h
            exact = (
                h * h
                + (x1**4 - x0**4) / 4 * (y1**3 - y0**3) / 3
                - 2.0 * (x1**2 - x0**2) / 2 * (y1**4 - y0**4) / 4
            )
            assert np.sum(samples.weights[m] * bicubic[m]) == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize(
        "mesh",
        [
            init_uniform(2),
            init_uniform(3),
            refine(init_uniform(2), rows_of(init_uniform(2), [(2, 1, 1)])),
            # level-1 and level-2 leaves
            refine(init_uniform(1), rows_of(init_uniform(1), [(1, 0, 0)])),
        ],
        ids=["level2", "level3", "graded", "mixed"],
    )
    def test_floor_keeps_fine_leaves(self, mesh):
        # leaves at or below the floor keep their points, in the same order
        quad = QuadRule(3)
        plain = build_samples(mesh, quad, per_edge=1)
        floored = build_samples(mesh, quad, per_edge=1, min_level=2)
        assert np.all(np.diff(floored.cell_index) >= 0)
        for c, cid in enumerate(mesh.cell_ids):
            a, b = plain.cell_index == c, floored.cell_index == c
            if cid[0] >= 2:
                assert np.array_equal(floored.interior[b], plain.interior[a])
                assert np.array_equal(floored.weights[b], plain.weights[a])
            else:
                assert b.sum() == 4 ** (2 - cid[0]) * a.sum()

    def test_interior_fields_match_pointwise_values(self):
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 0, 0)]))
        space = BfsSpace(mesh)
        vh = FeFunction(space, np.random.default_rng(3).standard_normal(space.nfull))
        samples = build_samples(mesh, QuadRule(3), per_edge=1, min_level=2)
        fields = samples.interior_fields(vh, ("N", "Nxx", "Nxy", "Nyy"))
        assert np.allclose(fields["N"], point_values(vh, samples.interior), atol=1e-12)
        H = point_fields(vh, samples.interior, ("Nxx", "Nxy", "Nyy"))
        for k, name in enumerate(("Nxx", "Nxy", "Nyy")):
            assert np.allclose(fields[name], H[:, k], atol=1e-10)


class TestBoundaryValues:
    @staticmethod
    def graded_fe(seed):
        # boundary edges of levels 1 to 4, random coefficients
        mesh = init_uniform(1)
        for cid in ((1, 0, 0), (2, 0, 0), (3, 1, 0), (1, 1, 1)):
            mesh = refine(mesh, rows_of(mesh, [cid]))
        space = BfsSpace(mesh)
        return FeFunction(space, np.random.default_rng(seed).standard_normal(space.nfull))

    @pytest.mark.parametrize("per_edge", [1, 3, 4])
    def test_match_pointwise_oracle(self, per_edge):
        vh = self.graded_fe(per_edge)
        mesh = vh.space.mesh
        assert len(set(mesh.levels[mesh.boundary_edges[:, 0]].tolist())) >= 3
        samples = build_samples(mesh, QuadRule(2), per_edge=per_edge, min_level=2)
        _, pts = edge_values(vh, np.arange(per_edge + 1) / per_edge)
        assert np.array_equal(samples.boundary[samples.edge_rows], pts)
        got = boundary_values(vh, samples)
        want = point_values(vh, samples.boundary)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_trace_grid_nests_the_sample_grid(self):
        # one evaluation on the trace grid serves the hull and the trace
        # error: its every fourth column is the sample grid, bit for bit
        vh = self.graded_fe(5)
        mesh = vh.space.mesh
        assert len(set(mesh.levels[mesh.boundary_edges[:, 0]].tolist())) >= 3
        per_edge = bench._BOUNDARY_SEGMENTS
        n = bench._TRACE_REFINE * per_edge
        fine_vals, fine_pts = edge_values(vh, np.arange(n + 1) / n)
        vals, pts = edge_values(vh, np.arange(per_edge + 1) / per_edge)
        assert np.array_equal(fine_vals[:, :: bench._TRACE_REFINE], vals)
        assert np.array_equal(fine_pts[:, :: bench._TRACE_REFINE], pts)
        # the trace error reads the whole grid, the points of linspace(0, 1, 17)
        g = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
        errs, worst = max_boundary_trace_error(fine_vals, g(fine_pts[..., 0], fine_pts[..., 1]))
        want_errs, want_worst = trace_error(vh, g, 17)
        assert np.array_equal(errs, want_errs) and worst == want_worst

    def test_edge_endpoints_are_value_coefficients(self):
        # every owner of a shared endpoint or corner returns the vertex's
        # value coefficient bit for bit
        vh = self.graded_fe(0)
        mesh = vh.space.mesh
        vals, pts = edge_values(vh, np.array([0.0, 1.0]))
        keys = np.rint(pts * mesh.res).astype(np.int64)
        vertex = np.searchsorted(
            mesh.vertex_keys[:, 1] * (mesh.res + 1) + mesh.vertex_keys[:, 0],
            keys[..., 1] * (mesh.res + 1) + keys[..., 0],
        )
        assert np.array_equal(mesh.vertex_keys[vertex], keys)
        assert np.array_equal(vals, vh.coeffs[4 * vertex])
        # each boundary vertex ends two edges: a corner's two sides or two
        # neighbours along one side
        assert np.all(np.bincount(vertex.ravel())[vertex] == 2)


def is_corner_plane(hull):
    """One plane over two triangles that tile the square on its corner samples."""
    tris = [{tuple(p) for p in hull.samples.points[t]} for t in hull.simplices]
    corners = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
    diagonals = ({(0.0, 0.0), (1.0, 1.0)}, {(1.0, 0.0), (0.0, 1.0)})
    return (
        len(tris) == 2
        and tris[0] | tris[1] == corners
        and tris[0] & tris[1] in diagonals
        and np.array_equal(hull.planes[0], hull.planes[1])
    )


class TestLowerHull:
    def test_affine_values(self):
        samples = grid_samples(4)
        pts = samples.points
        values = 0.3 + 1.2 * pts[:, 0] - 0.7 * pts[:, 1]
        hull = lower_hull(samples, values)
        assert is_corner_plane(hull)
        assert hull.on_hull.all()
        q = np.array([[0.3, 0.4], [0.9, 0.1]])
        assert np.allclose(hull.evaluate(q), 0.3 + 1.2 * q[:, 0] - 0.7 * q[:, 1])

    def test_affine_values_without_a_corner_rejected(self):
        # the plane is spanned over the corner samples, so one must be present
        full = grid_samples(4)
        boundary = full.boundary[np.any(full.boundary != [1.0, 0.0], axis=1)]
        samples = SampleSet(full.mesh, full.interior, full.cell_index, full.weights,
                            boundary, np.zeros((0, 2), int))
        pts = samples.points
        with pytest.raises(ValueError, match="corner"):
            lower_hull(samples, 0.3 + 1.2 * pts[:, 0] - 0.7 * pts[:, 1])

    def test_center_spike_ignored(self):
        samples = grid_samples(3)
        pts = samples.points
        values = np.zeros(len(pts))
        center = np.where((pts[:, 0] == 0.5) & (pts[:, 1] == 0.5))[0]
        values[center] = 1.0
        hull = lower_hull(samples, values)
        assert np.allclose(hull.evaluate(pts), 0.0, atol=1e-12)
        assert not hull.on_hull[center].all()

    def test_paraboloid_matches_lp_oracle(self):
        samples = grid_samples(5)
        pts = samples.points
        values = pts[:, 0] ** 2 + pts[:, 1] ** 2
        hull = lower_hull(samples, values)
        assert hull.on_hull.all()  # strictly convex: every sample on the hull
        rng = np.random.default_rng(42)
        queries = rng.uniform(0, 1, size=(50, 2))
        ours = hull.evaluate(queries)
        for q, v in zip(queries, ours):
            assert v == pytest.approx(lp_envelope(pts, values, q), abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_random_grids_match_lp_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        samples = grid_samples(n)
        values = rng.uniform(-1, 1, size=len(samples.points))
        hull = lower_hull(samples, values)
        queries = rng.uniform(0, 1, size=(50, 2))
        ours = hull.evaluate(queries)
        for q, v in zip(queries, ours):
            assert v == pytest.approx(lp_envelope(samples.points, values, q), abs=1e-10)

    def test_samples_on_or_above_every_plane(self):
        rng = np.random.default_rng(9)
        samples = grid_samples(6)
        values = rng.uniform(-1, 1, size=len(samples.points))
        hull = lower_hull(samples, values)
        pts = samples.points
        scale = 1.0 + np.max(np.abs(values))
        for a0, a1, b in hull.planes:
            assert np.all(values >= a0 * pts[:, 0] + a1 * pts[:, 1] + b - 1e-12 * scale)

    def test_envelope_below_samples(self):
        rng = np.random.default_rng(10)
        samples = grid_samples(7)
        values = rng.uniform(-1, 1, size=len(samples.points))
        hull = lower_hull(samples, values)
        assert np.all(hull.evaluate(samples.points) <= values + 1e-12)

    def test_collinear_input_rejected(self):
        mesh = init_uniform(0)
        pts = np.column_stack([np.linspace(0, 1, 5), np.linspace(0, 1, 5)])
        samples = SampleSet(
            mesh, pts[:0], np.zeros(0, int), np.zeros(0), pts, np.zeros((0, 2), int)
        )
        with pytest.raises(ValueError):
            lower_hull(samples, pts[:, 0].copy())

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_values_past_the_hulls_precision_rejected(self, level):
        # ex3's exact Hessian is singular at the corners, so the nodal
        # interpolant's corner coefficients reach 2e16: the lower facets Qhull
        # returns cover none of the square at levels 3 and 4, and 0.993 of it
        # at level 5, and the error names the values' range
        mesh = init_uniform(level)
        vh = exact_fe(mesh, 3)
        samples = build_samples(mesh, QuadRule(5), per_edge=4, min_level=2)
        values = np.concatenate(
            [samples.interior_fields(vh, ("N",))["N"], boundary_values(vh, samples)]
        )
        with pytest.raises(ValueError, match=r"cover an area of .* values in \[-.*e\+1[12], 0\]"):
            lower_hull(samples, values)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_convexity_spot_checks(seed):
    rng = np.random.default_rng(seed)
    samples = grid_samples(5)
    values = rng.uniform(-1, 1, size=len(samples.points))
    hull = lower_hull(samples, values)
    x = rng.uniform(0, 1, size=(40, 2))
    y = rng.uniform(0, 1, size=(40, 2))
    lam = rng.uniform(0, 1, size=40)
    mid = lam[:, None] * x + (1 - lam[:, None]) * y
    vals = hull.evaluate(np.vstack([x, y, mid]))
    vx, vy, vm = vals[:40], vals[40:80], vals[80:]
    assert np.all(vm <= lam * vx + (1 - lam) * vy + 1e-12)


def exact_fe(mesh, experiment, zero_boundary=False):
    """Nodal BFS interpolant of a benchmark's exact solution."""
    exact = EXPERIMENTS[experiment].exact
    fields = (
        exact.u,
        lambda x, y: exact.grad(x, y)[0],
        lambda x, y: exact.grad(x, y)[1],
        lambda x, y: exact.hess(x, y)[1],
    )
    if zero_boundary:
        inside = lambda x, y: (0 < x) & (x < 1) & (0 < y) & (y < 1)
        fields = [lambda x, y, fn=fn: np.where(inside(x, y), fn(x, y), 0.0) for fn in fields]
    return nodal_fe(mesh, *fields)


class TestBucketIndex:
    """Indexed evaluation against the brute-force max over every lower plane."""

    @staticmethod
    def _corner_graded(levels=8):
        mesh = init_uniform(0)
        for level in range(levels):
            mesh = refine(mesh, rows_of(mesh, [(level, 0, 0)]))
        return mesh, exact_fe(mesh, 1)

    @classmethod
    def _corner_graded_30(cls):
        # the finest level a mesh holds, with ex1's u less (x^2 + y^2) / 2:
        # convex near the corner, concave away from it, so some facets span
        # most of the square, and at depth max_level + 2 = 32 their square
        # counts, over 2**63, would overflow int64
        mesh, _ = cls._corner_graded(30)
        exact = EXPERIMENTS[1].exact
        return mesh, nodal_fe(
            mesh,
            lambda x, y: exact.u(x, y) - 0.5 * (x**2 + y**2),
            lambda x, y: exact.grad(x, y)[0] - x,
            lambda x, y: exact.grad(x, y)[1] - y,
            lambda x, y: exact.hess(x, y)[1],
        )

    @staticmethod
    def _skinny():
        # ex3's u with zero nodal data on the boundary (its exact Hessian is
        # singular at the corners): long boundary-hugging facets
        mesh = init_uniform(3)
        return mesh, exact_fe(mesh, 3, zero_boundary=True)

    @staticmethod
    def _uniform():
        # ex1's u on a uniform mesh: convex, so every sample is a vertex
        mesh = init_uniform(4)
        return mesh, exact_fe(mesh, 1)

    @classmethod
    def _hull(cls, setup):
        mesh, vh = getattr(cls, setup)()
        samples = build_samples(mesh, QuadRule(5), per_edge=4, min_level=2)
        values = np.concatenate(
            [samples.interior_fields(vh, ("N",))["N"], boundary_values(vh, samples)]
        )
        return samples, values, lower_hull(samples, values)

    @staticmethod
    def _candidates(hull, queries):
        """(point, facet) pairs the index offers, as a boolean matrix."""
        keys, facets, depths = hull._buckets
        cand = np.zeros((len(queries), len(hull.planes)), dtype=bool)
        for n in 2**depths:
            key = _square_key(_square(queries, n), n)
            first = np.searchsorted(keys, key, "left")
            count = np.searchsorted(keys, key, "right") - first
            p = np.repeat(np.arange(len(queries)), count)
            pos = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())
            cand[p, facets[pos]] = True
        return cand

    @pytest.mark.parametrize("setup", ["_corner_graded", "_skinny"])
    def test_every_covering_facet_is_a_candidate(self, setup):
        # the index invariant: a facet whose closed bounding box holds a
        # point is among that point's candidates, on dyadic lines as well
        samples, _, hull = self._hull(setup)
        tri = samples.points[hull.simplices]
        lo, hi = tri.min(axis=1), tri.max(axis=1)
        rng = np.random.default_rng(11)
        t = rng.uniform(0.0, 1.0, 300)
        dyadic = rng.integers(0, 2**9 + 1, 300) / 2**9
        queries = np.vstack([
            samples.points,
            rng.uniform(0.0, 1.0, size=(1000, 2)),
            *(np.column_stack([c, t][::s]) for c in (np.zeros(300), np.ones(300)) for s in (1, -1)),
            np.column_stack([dyadic, t]),
            np.column_stack([t, dyadic]),
        ])
        for q in np.array_split(queries, 10):
            cover = np.all((lo[None] <= q[:, None]) & (q[:, None] <= hi[None]), axis=2)
            assert not np.any(cover & ~self._candidates(hull, q))

    @pytest.mark.parametrize("setup", ["_corner_graded", "_skinny", "_corner_graded_30"])
    def test_matches_all_planes(self, setup):
        samples, values, hull = self._hull(setup)
        keys, facets, depths = hull._buckets
        tri = samples.points[hull.simplices]
        budget = _square_budget(tri.min(axis=1), tri.max(axis=1))
        entries = np.bincount(facets, minlength=len(hull.planes))
        assert entries[budget == 8].max() <= 8
        assert np.all(entries <= budget) and budget.max() <= 256

        edge = np.random.default_rng(3).uniform(0.0, 1.0, 4000)
        queries = np.vstack([
            samples.points,
            np.random.default_rng(7).uniform(0.0, 1.0, size=(2000, 2)),
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            np.column_stack([np.ones_like(edge), edge]),
            np.column_stack([edge[::-1], np.ones_like(edge)]),
        ])
        pairs = 0
        for n in 2 ** depths:
            key = _square_key(_square(queries, n), n)
            pairs += np.sum(np.searchsorted(keys, key, "right") - np.searchsorted(keys, key))
        assert pairs > _CHUNK  # several chunks of the segmented max

        brute = np.concatenate([
            np.max(hull.planes[:, :2] @ q.T + hull.planes[:, 2:], axis=0)
            for q in np.array_split(queries, 20)
        ])
        scale = 1.0 + np.max(np.abs(values))
        assert np.max(np.abs(hull.evaluate(queries) - brute)) <= 1e-13 * scale

    @pytest.mark.parametrize("setup", ["_corner_graded", "_corner_graded_30", "_uniform"])
    def test_matches_reference_index(self, setup):
        # the lean build files the same entries, in the same order, as the
        # reference that keeps every per-facet array alive through the sort
        samples, _, hull = self._hull(setup)
        top = min(samples.mesh.max_level + 2, 31)
        tri = samples.points[hull.simplices]
        if setup != "_uniform":  # ex1's data fan slivers out of the corner
            assert np.sum(_square_budget(tri.min(axis=1), tri.max(axis=1)) > 8) >= 100
        want = bucket_index_reference(tri, top)
        got = _bucket_index(samples.points, hull.simplices, top)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert all(np.array_equal(a, b) for a, b in zip(hull._buckets, want))

    def test_peak_memory_per_entry(self):
        # the per-facet arrays are freed before the sort, so the build peaks
        # at the keys, the ids and the sort order: 36 B per index entry on
        # this 50k-facet hull, against 61 B when they all lived through it
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, size=(25000, 2))
        simplices = Delaunay(pts).simplices  # the lower hull of the lifted paraboloid
        assert len(simplices) > 49000
        _bucket_index(pts, simplices, 12)
        tracemalloc.start()
        try:
            keys = _bucket_index(pts, simplices, 12)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * len(keys)

    def test_slivers_get_a_larger_budget(self):
        # max(8, min(ceil(2 * aspect), 256)), a flat box taking the cap
        lo = np.zeros((6, 2))
        hi = np.array([[0.1, 0.1], [0.4, 0.1], [0.1, 0.55], [1.0, 0.01], [1.0, 3e-3], [0.5, 0.0]])
        assert _square_budget(lo, hi).tolist() == [8, 8, 11, 200, 256, 256]
        # zero boundary data: the facets fanned along a side are thin
        samples, _, hull = self._hull("_skinny")
        tri = samples.points[hull.simplices]
        lo, hi = tri.min(axis=1), tri.max(axis=1)
        extent = hi - lo
        aspect = extent.max(axis=1) / extent.min(axis=1)
        budget = _square_budget(lo, hi)
        assert np.array_equal(budget, np.maximum(8, np.minimum(np.ceil(2 * aspect), 256)))
        assert (budget > 8).any()


class TestVertexRule:
    """Envelope and flags at the samples against evaluating every sample."""

    @staticmethod
    def _check(hull):
        gamma, flags = on_hull_reference(hull)
        assert np.array_equal(hull.on_hull, flags)
        scale = 1.0 + np.max(np.abs(hull.values))
        assert np.max(np.abs(hull.gamma - gamma)) <= 1e-15 * scale

    @pytest.mark.parametrize("n", range(2, 10))
    def test_random_grids(self, n):
        samples = grid_samples(n)
        values = np.random.default_rng(200 + n).uniform(-1, 1, size=len(samples.points))
        self._check(lower_hull(samples, values))

    @pytest.mark.parametrize("setup, all_vertices", [("_corner_graded", True), ("_skinny", False)])
    def test_index_setups(self, setup, all_vertices):
        # every sample of the graded ex1 setup is a vertex, not so on _skinny
        _, _, hull = TestBucketIndex._hull(setup)
        assert (len(np.unique(hull.simplices)) == len(hull.values)) == all_vertices
        self._check(hull)

    def test_planar(self):
        samples = grid_samples(5)
        pts = samples.points
        hull = lower_hull(samples, 0.3 + 1.2 * pts[:, 0] - 0.7 * pts[:, 1])
        assert is_corner_plane(hull)
        self._check(hull)


class TestContactSet:
    def _quadratic_setup(self, fxx=1.0, fxy=0.0, fyy=1.0):
        mesh = init_uniform(2)
        vh = nodal_fe(
            mesh,
            lambda x, y: 0.5 * (fxx * x**2 + 2 * fxy * x * y + fyy * y**2),
            lambda x, y: fxx * x + fxy * y,
            lambda x, y: fxy * x + fyy * y,
            lambda x, y: fxy + 0.0 * x,
        )
        quad = QuadRule(3)
        samples = build_samples(mesh, quad, per_edge=4)
        return vh, samples, lower_hull(samples, sample_values(vh, samples))

    def test_convex_quadratic_all_flagged(self):
        vh, samples, hull = self._quadratic_setup()
        contact = contact_set(hull, sample_hessians(vh, samples))
        assert contact.all()

    def test_indefinite_hessian_filtered(self):
        # weakly concave in y: some samples still sit on the lower hull, but
        # the PSD filter must reject every one of them
        vh, samples, hull = self._quadratic_setup(fyy=-0.005)
        m11, m12, m22 = hessians = sample_hessians(vh, samples)
        contact = contact_set(hull, hessians)
        assert hull.on_hull[: samples.n_interior].any()
        smallest_eigenvalue = 0.5 * (m11 + m22) - np.hypot(0.5 * (m11 - m22), m12)
        assert not (smallest_eigenvalue >= 0).any()
        assert not contact.any()

    def test_monge_ampere_density_of_quadratic(self):
        # density of the envelope of a PD quadratic equals det M at samples
        for m11, m12, m22 in ((1.0, 0.0, 1.0), (2.0, 0.5, 1.0), (3.0, -1.0, 2.0)):
            vh, samples, hull = self._quadratic_setup(m11, m12, m22)
            contact = contact_set(hull, sample_hessians(vh, samples))
            H = point_fields(vh, samples.interior, ("Nxx", "Nxy", "Nyy"))
            det = H[:, 0] * H[:, 2] - H[:, 1] ** 2
            density = np.where(contact, det, 0.0)
            assert np.allclose(density, m11 * m22 - m12**2, atol=1e-9)

    def test_kink_interpolant_fully_flagged(self):
        # nodal data of |x - 1/2| on the single cell: the trace interpolant
        # is convex with curvature only in x, so every point is contact and
        # the resulting density vanishes identically
        mesh = init_uniform(0)
        vh = nodal_fe(
            mesh, lambda x, y: np.abs(x - 0.5), lambda x, y: np.sign(x - 0.5), lambda x, y: 0.0 * x
        )
        samples = build_samples(mesh, QuadRule(3), per_edge=8)
        hull = lower_hull(samples, sample_values(vh, samples))
        contact = contact_set(hull, sample_hessians(vh, samples))
        assert contact.all()
        H = point_fields(vh, samples.interior, ("Nxx", "Nxy", "Nyy"))
        det = H[:, 0] * H[:, 2] - H[:, 1] ** 2
        assert np.allclose(det, 0.0, atol=1e-12)

    def test_exact_contact_implies_flag(self):
        # brute-force global test: where v equals its true envelope, the
        # sampled approximation must flag the point as contact
        vh, samples, hull = self._quadratic_setup(2.0, 0.0, 1.0)
        contact = contact_set(hull, sample_hessians(vh, samples))
        pts = samples.interior
        vals = point_values(vh, pts)
        for k in range(0, len(pts), 7):
            exact = lp_envelope(samples.points, np.concatenate(
                [vals, boundary_values(vh, samples)]), pts[k])
            if abs(vals[k] - exact) < 1e-13:
                assert contact[k]


class TestBoundaryResidual:
    def test_zero_for_matching_convex_trace(self):
        mesh = init_uniform(1)
        one = lambda x, y: 1.0 + 0.0 * x
        vh = nodal_fe(mesh, lambda x, y: x + y, one, one)
        samples = build_samples(mesh, QuadRule(2), per_edge=4)
        hull = lower_hull(samples, sample_values(vh, samples))
        mu = boundary_residual(hull, boundary_g(samples, lambda x, y: x + y))
        assert mu <= 1e-12

    def test_zero_data_nonnegative_function(self):
        mesh = init_uniform(1)
        vh = nodal_fe(
            mesh,
            lambda x, y: x * (1 - x) * y * (1 - y),
            lambda x, y: (1 - 2 * x) * y * (1 - y),
            lambda x, y: x * (1 - x) * (1 - 2 * y),
        )
        samples = build_samples(mesh, QuadRule(2), per_edge=4)
        hull = lower_hull(samples, sample_values(vh, samples))
        mu = boundary_residual(hull, boundary_g(samples, lambda x, y: 0.0 * x))
        assert mu == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_interp_gap(self):
        # convex quadratic data: mu equals the chord gap of the trace hull
        mesh = init_uniform(1)
        vh = nodal_fe(mesh, lambda x, y: 0.5 * (x**2 + y**2), lambda x, y: x, lambda x, y: y)
        per_edge = 8  # 16 boundary segments per unit length
        samples = build_samples(mesh, QuadRule(3), per_edge)
        hull = lower_hull(samples, sample_values(vh, samples))
        mu = boundary_residual(hull, boundary_g(samples, lambda x, y: 0.5 * (x**2 + y**2)))
        assert mu == pytest.approx((1 / 16) ** 2 / 8, rel=1e-10)

    @pytest.mark.parametrize("setup", ["graded", "random", "quadratic", "planar", "zero_boundary"])
    def test_matches_side_hull_oracle(self, setup):
        # the envelope at the boundary samples, averaged at the midpoints,
        # against the 1D lower hull of each side's samples
        mesh = init_uniform(2)
        g = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
        if setup == "graded":
            mesh, vh = TestBucketIndex._corner_graded()
            g = EXPERIMENTS[1].g
        elif setup == "zero_boundary":
            mesh, vh = TestBucketIndex._skinny()
            g = EXPERIMENTS[3].g
        elif setup == "quadratic":
            vh = nodal_fe(mesh, lambda x, y: 0.5 * (x**2 + y**2), lambda x, y: x, lambda x, y: y)
        else:  # random values, or an affine v_h
            vh = nodal_fe(
                mesh,
                lambda x, y: 1 + 2 * x - y,
                lambda x, y: 2 * np.ones_like(x),
                lambda x, y: -np.ones_like(x),
            )
        samples = build_samples(mesh, QuadRule(5), per_edge=4, min_level=2)
        values = sample_values(vh, samples)
        if setup == "random":
            values = np.random.default_rng(5).uniform(-1, 1, size=len(values))
        hull = lower_hull(samples, values)
        assert is_corner_plane(hull) == (setup == "planar")
        mu = boundary_residual(hull, boundary_g(samples, g))
        want = boundary_residual_reference(hull, g)
        assert abs(mu - want) <= 1e-15 * (1.0 + np.max(np.abs(values)))


class TestEnvelopeGap:
    def test_affine_gap_zero(self):
        mesh = init_uniform(1)
        vh = nodal_fe(
            mesh,
            lambda x, y: 1 + 2 * x - y,
            lambda x, y: 2 * np.ones_like(x),
            lambda x, y: -np.ones_like(x),
            lambda x, y: np.zeros_like(x),
        )
        samples = build_samples(mesh, QuadRule(2), per_edge=2)
        assert envelope_gap(vh, samples) <= 1e-12

    def test_refining_samples_shrinks_gap(self):
        mesh = init_uniform(1)
        vh = nodal_fe(
            mesh,
            lambda x, y: np.sin(2 * x + y),
            lambda x, y: 2 * np.cos(2 * x + y),
            lambda x, y: np.cos(2 * x + y),
            lambda x, y: -2 * np.sin(2 * x + y),
        )
        coarse = envelope_gap(vh, build_samples(mesh, QuadRule(2), per_edge=2))
        fine = envelope_gap(vh, build_samples(mesh, QuadRule(5), per_edge=5))
        assert fine <= 0.5 * coarse


def test_sandwich_inequality():
    # hull of nodal values stays within the interpolation gap of the function
    mesh = init_uniform(2)
    vh = nodal_fe(mesh, lambda x, y: np.exp(x) + y**2, lambda x, y: np.exp(x), lambda x, y: 2 * y)
    samples = build_samples(mesh, QuadRule(3), per_edge=3)
    hull = lower_hull(samples, sample_values(vh, samples))
    delta = envelope_gap(vh, samples)
    check = samples.points
    assert np.all(hull.evaluate(check) - delta <= point_values(vh, check) + 1e-10)
