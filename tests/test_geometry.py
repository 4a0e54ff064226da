import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macert.bench import prolongate
from macert.bfs import BfsSpace, FeFunction, QuadRule, interpolate_boundary
from macert.envelope import SampleSet, build_samples
from macert.estimator import _certificate, select_j
from macert.geometry import SIDES, RectMesh, dissection_order, init_uniform, min_edge_length, refine

from oracles import (
    cell_rect,
    dissection_order_reference,
    elimination_permutation,
    locate_scalar,
    prolongate_reference,
    reduction_reference,
    refine_reference,
    rows_of,
    topology_reference,
)


def brute_force_valid(mesh: RectMesh):
    """Oracle for the mesh invariants: cover, no overlap, 1-irregularity."""
    rects = [cell_rect(cid) for cid in mesh.cell_ids]
    assert abs(sum(r.h * r.h for r in rects) - 1.0) < 1e-14
    for i, a in enumerate(rects):
        for b in rects[i + 1 :]:
            ox = min(a.x1, b.x1) - max(a.x0, b.x0)
            oy = min(a.y1, b.y1) - max(a.y0, b.y0)
            assert not (ox > 1e-15 and oy > 1e-15), "overlapping leaves"
            shares_edge = (ox > 1e-15 and oy > -1e-15) or (oy > 1e-15 and ox > -1e-15)
            if shares_edge:
                assert abs(a.level - b.level) <= 1, "1-irregularity violated"


class TestInitUniform:
    def test_single_cell(self):
        mesh = init_uniform(0)
        assert len(mesh) == 1
        assert mesh.cell_ids == ((0, 0, 0),)
        assert mesh.cell_sizes().tolist() == [1.0]

    def test_two_levels_counts(self):
        mesh = init_uniform(2)
        assert len(mesh) == 16
        assert len(mesh.vertex_keys) == 25
        assert np.all(mesh.cell_sizes() == 0.25)
        assert len(mesh.hanging) == 0

    def test_level_three_min_edge(self):
        assert min_edge_length(init_uniform(3)) == pytest.approx(1 / 8, abs=0)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            init_uniform(-1)

    @pytest.mark.parametrize("levels", [True, 2.0, 2.5])
    def test_non_integer_levels_rejected(self, levels):
        # True would build the level-1 mesh; 2.0 raised TypeError
        with pytest.raises(ValueError, match="levels"):
            init_uniform(levels)
        assert len(init_uniform(np.int64(1))) == 4


class TestRectMeshPartition:
    @pytest.mark.parametrize(
        "cells, message",
        [
            ([(1, 5, 0)], "out of range"),
            ([(0, 0, 0), (1, 0, 0)], "overlaps"),
            ([(1, 0, 0), (1, 1, 0), (1, 0, 1)], "gap"),
            ([(-1, 0, 0)], "out of range"),
            ([(0, 0.5, 0)], "integer"),
            ([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 1, 1)], "repeated"),
            # arrays that are not (level, ix, iy) rows: the level-1 cells as
            # pairs or flat, and four columns
            (np.array([[1, 0], [0, 1], [1, 0], [1, 0], [1, 1], [1, 1]]), r"shape \(6, 2\)"),
            (np.array([[1, 0, 0, 1], [1, 0, 1, 1]]), r"shape \(2, 4\)"),
            (np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1]), r"shape \(12,\)"),
        ],
        ids=["index-out-of-range", "overlap", "gap", "negative-level", "non-integer", "repeated",
             "pairs", "four-columns", "flat"],
    )
    def test_non_partition_rejected(self, cells, message):
        with pytest.raises(ValueError, match=message):
            RectMesh(cells)


class TestRefine:
    def test_uniform_refinement(self):
        mesh = refine(init_uniform(1), np.arange(4))
        assert len(mesh) == 16
        assert len(mesh.hanging) == 0

    def test_single_cell_split(self):
        mesh = refine(init_uniform(0), [0])
        assert len(mesh) == 4

    def test_corner_twice_keeps_one_irregularity(self):
        mesh = init_uniform(2)
        mesh = refine(mesh, rows_of(mesh, [(2, 0, 0)]))
        mesh = refine(mesh, rows_of(mesh, [(3, 0, 0)]))
        brute_force_valid(mesh)
        mesh = refine(mesh, rows_of(mesh, [(4, 0, 0)]))
        brute_force_valid(mesh)

    def test_closure_triggers(self):
        # refining a level-2 cell twice next to level-1 neighbours forces splits
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 0, 0)]))
        mesh = refine(mesh, rows_of(mesh, [(2, 1, 1)]))
        brute_force_valid(mesh)
        levels = {cid[0] for cid in mesh.cell_ids}
        assert 3 in levels

    def test_invalid_rows_raise(self):
        mesh = init_uniform(1)
        for rows in ([-1], [len(mesh)], np.array([0.0, 1.0])):
            with pytest.raises(ValueError):
                refine(mesh, rows)

    def test_min_edge_after_local_refine(self):
        mesh = init_uniform(2)
        mesh = refine(mesh, rows_of(mesh, [(2, 1, 1)]))
        assert min_edge_length(mesh) == pytest.approx(1 / 8, abs=0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 2)), min_size=1, max_size=4)
)
def test_random_refinement_keeps_invariants(plan):
    mesh = init_uniform(1)
    for pick, extra in plan:
        ids = mesh.cell_ids
        marked = {ids[pick % len(ids)], ids[(pick + extra) % len(ids)]}
        mesh = refine(mesh, rows_of(mesh, marked))
    brute_force_valid(mesh)
    assert min_edge_length(mesh) == 0.5**mesh.max_level


def assert_matches_reference(coarse, marked, rng):
    """Refinement, topology, constraints and prolongation against the
    dict-and-recursion references, all bitwise."""
    mesh = refine(coarse, rows_of(coarse, marked))
    assert list(mesh.cell_ids) == refine_reference(coarse, marked)
    ref = topology_reference(mesh)
    assert np.array_equal(mesh.vertex_keys, np.array(ref.vertex_keys))
    assert np.array_equal(mesh.cell_corners, ref.cell_corners)
    hanging = sorted((s, p, q, axis) for s, (p, q, axis, _h) in ref.hanging.items())
    assert np.array_equal(mesh.hanging, np.array(hanging, dtype=np.int64).reshape(-1, 4))
    edges = tuple((ci, SIDES[side]) for ci, side in mesh.boundary_edges.tolist())
    assert edges == ref.boundary_edges

    order = dissection_order_reference(mesh)
    assert np.array_equal(dissection_order(mesh), order)
    space = BfsSpace(mesh)
    g = lambda x, y: np.sin(x + 2 * y)
    boundary = interpolate_boundary(space, g, lambda x, y: (np.cos(x + 2 * y), 2 * np.cos(x + 2 * y)))
    # any DOFs may be fixed, slaves and several masters of one slave too
    some = rng.choice(space.nfull, space.nfull // 3, replace=False)
    for dofs, values in (boundary, (some, rng.standard_normal(len(some)))):
        red = space.reduction(dofs, values)
        P, offset, free = reduction_reference(space, dict(zip(dofs.tolist(), values.tolist())))
        # the free DOFs are numbered in the documented elimination order
        perm = elimination_permutation(free, order)
        P, free = P.tocsc()[:, perm], free[perm]
        assert red.P.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(red.P, name), getattr(P, name))
        assert np.array_equal(red.offset, offset)
        assert np.array_equal(red.free_dofs, free)

    # arbitrary full coefficients jump across cells, so the cell that
    # supplies a shared lattice point matters
    coarse_space = BfsSpace(coarse)
    v_h = FeFunction(coarse_space, rng.standard_normal(coarse_space.nfull))
    assert np.array_equal(prolongate(v_h, space), prolongate_reference(v_h, space))
    return mesh


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
    st.lists(
        st.tuples(st.integers(0, 12), st.lists(st.integers(0, 10**6), min_size=1, max_size=3)),
        max_size=4,
    ),
)
def test_array_mesh_matches_reference(corner, extra):
    # twelve corner-graded steps with random markings spliced in
    steps = [None] * 12
    for at, picks in sorted(extra, key=lambda e: -e[0]):
        steps.insert(at, picks)
    rng = np.random.default_rng(len(extra))
    mesh = init_uniform(1)
    for picks in steps:
        ids = mesh.cell_ids
        if picks is None:
            marked = {ids[locate_scalar(mesh, corner)[0]]}
        else:
            marked = {ids[k % len(ids)] for k in picks}
        mesh = assert_matches_reference(mesh, marked, rng)
    assert mesh.max_level - mesh.min_level >= 10


def test_min_edge_halves_under_uniform_refinement():
    mesh = init_uniform(1)
    for _ in range(3):
        previous = min_edge_length(mesh)
        mesh = refine(mesh, np.arange(len(mesh)))
        assert min_edge_length(mesh) == previous / 2


def band_parts(mesh, j, samples=None):
    """Per-cell (area, area of the band {dist >= j delta}) as the estimator
    measures them: its squared data-error norms of a unit residual on one
    cell at a time.  The samples default to the 2x2 Gauss rule, which is
    exact here because the band edges fall on cell edges or centres."""
    if samples is None:
        samples = build_samples(mesh, QuadRule(2), per_edge=1)
    certs = [_certificate(0.0, samples, (samples.cell_index == k) * 1.0, j)
             for k in range(len(mesh))]
    return np.array([[c.data_err_global**2, c.data_err_inner**2] for c in certs]).T


class TestInteriorBand:
    def test_validation(self):
        # the selected band stays nonempty, j * delta < 1/2, even when
        # shrinking it always lowers the bound
        n = 100
        assert select_j(0.0, np.full(n, 0.1), np.full(n, 1.0 / n), 0.25) == 1

    def test_membership_exact(self):
        pts = np.array([(0.25, 0.5), (0.25 - 1e-16, 0.5), (0.1, 0.9)])
        mesh = init_uniform(2)  # delta = 1/4
        samples = SampleSet(mesh, pts, np.arange(3), np.ones(3), np.empty((0, 2)),
                            np.empty((0, 2), dtype=int))
        _, inner = band_parts(mesh, 1, samples)
        assert inner[:3].tolist() == [1.0, 0.0, 0.0]


class TestBandSplit:
    def test_full_cell_at_j0(self):
        total, inner = band_parts(init_uniform(2), 0)
        assert np.array_equal(inner, total)
        assert total == pytest.approx(np.full(16, 1 / 16), abs=1e-15)

    def test_boundary_cell_empty(self):
        mesh = init_uniform(2)
        total, inner = band_parts(mesh, 1)
        assert inner[mesh.cell_ids.index((2, 0, 0))] == 0.0
        assert inner[mesh.cell_ids.index((2, 1, 1))] == total[mesh.cell_ids.index((2, 1, 1))]

    def test_interval_intersection(self):
        # delta = 1/8: the band edge x = 1/8 halves the coarse boundary leaf
        mesh = init_uniform(2)
        mesh = refine(mesh, rows_of(mesh, [(2, 1, 1)]))
        _, inner = band_parts(mesh, 1)
        assert inner[mesh.cell_ids.index((2, 0, 1))] == pytest.approx(1 / 32, abs=1e-15)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_band_areas_sum(self, j):
        mesh = init_uniform(3)
        expected = (1.0 - 2 * j * min_edge_length(mesh)) ** 2
        assert band_parts(mesh, j)[1].sum() == pytest.approx(expected, abs=1e-12)

    def test_band_areas_on_adaptive_mesh(self):
        mesh = init_uniform(2)
        mesh = refine(mesh, rows_of(mesh, [(2, 1, 1), (2, 2, 2)]))
        delta = min_edge_length(mesh)
        for j in (0, 1, 2):
            total = band_parts(mesh, j)[1].sum()
            assert total == pytest.approx((1.0 - 2 * j * delta) ** 2, abs=1e-12)


def test_locate_and_ids_stable():
    coarse = init_uniform(1)
    mesh = refine(coarse, rows_of(coarse, [(1, 0, 0)]))
    rows = locate_scalar(mesh, [(0.1, 0.1), (0.9, 0.9)])
    assert [mesh.cell_ids[r] for r in rows] == [(2, 0, 0), (1, 1, 1)]
    # parent-child path encoding: the surviving coarse ids are unchanged
    assert (1, 1, 1) in mesh.cell_ids


def test_cell_points_place_reference_points_by_level():
    # the one placement of reference points: (ix + ref, iy + ref) * 2**-level
    # on a mesh of level-1 and level-2 leaves, dyadic scaling of one rounded
    # sum, so equal bit for bit; the samples of the leaves at the sampling
    # floor or finer are these points, read by row
    mesh = refine(init_uniform(1), [0])
    quad = QuadRule(5)
    rows = np.array([5, 0, 2, 0, 6, 3])
    h = np.ldexp(1.0, -mesh.levels[rows])
    want = (mesh.cell_array[rows, None, 1:] + quad.ref_points) * h[:, None, None]
    assert set(mesh.levels[rows].tolist()) == {1, 2}
    assert np.array_equal(mesh.cell_points(rows, quad.ref_points), want)
    samples = build_samples(mesh, quad, per_edge=4, min_level=2)
    fine = np.flatnonzero(mesh.levels >= 2)
    first = np.searchsorted(samples.cell_index, fine)
    got = samples.interior[first[:, None] + np.arange(quad.npoints)]
    assert np.array_equal(got, mesh.cell_points(fine, quad.ref_points))
