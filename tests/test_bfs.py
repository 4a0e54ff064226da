import numpy as np
import pytest

from macert.bench import ExactSolution, RunConfig, norms_vs_exact, steps
from macert.bfs import (
    BfsSpace,
    FeFunction,
    QuadRule,
    count_free_dofs,
    interpolate_boundary,
    level_scale,
    tabulate_basis,
    uniform_free_dofs,
)
from macert.geometry import RectMesh, init_uniform, refine

from oracles import (
    boundary_reference,
    cell_rect,
    point_fields,
    point_values,
    rows_of,
    tabulate_basis_reference,
)


def interpolant(space, u, ux, uy, uxy):
    xs, ys = space.mesh.vertex_coords[:, 0], space.mesh.vertex_coords[:, 1]
    coeffs = np.empty(space.nfull)
    coeffs[0::4] = u(xs, ys)
    coeffs[1::4] = ux(xs, ys)
    coeffs[2::4] = uy(xs, ys)
    coeffs[3::4] = uxy(xs, ys)
    return FeFunction(space, coeffs)


class TestShapeEval:
    def test_hermite_duality_at_vertices(self):
        # reference corners of a cell of size 1/4, in local corner order
        unit = tabulate_basis(np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]))
        tab = {"N": unit["N"] * level_scale(2, 0)}
        tab.update({k: unit[k] * level_scale(2, 1) for k in ("Nx", "Ny")})
        for c in range(4):
            for j in range(16):
                expected = 1.0 if j == 4 * c else 0.0
                assert tab["N"][c, j] == pytest.approx(expected, abs=1e-14)
            # derivative DOFs are dual to the gradients at their own vertex
            assert tab["Nx"][c, 4 * c + 1] == pytest.approx(1.0, abs=1e-13)
            assert tab["Ny"][c, 4 * c + 2] == pytest.approx(1.0, abs=1e-13)

    def test_matches_columnwise_reference(self):
        # every h is a power of two, so the scaling is exact in any order
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, (25, 2))
        unit = tabulate_basis(pts)
        orders = {"N": 0, "Nx": 1, "Ny": 1, "Nxx": 2, "Nxy": 2, "Nyy": 2}
        for level in range(31):
            ref = tabulate_basis_reference(0.5**level, pts)
            assert all(
                np.array_equal(unit[k] * level_scale(level, m), ref[k]) for k, m in orders.items()
            )
        levels = rng.integers(0, 31, len(pts))  # one size per point
        ref = tabulate_basis_reference(0.5**levels, pts)
        assert all(
            np.array_equal(unit[k] * level_scale(levels, m), ref[k]) for k, m in orders.items()
        )
        assert all(unit[k].shape == (25, 16) and unit[k].flags.c_contiguous for k in ref)

    def test_reproduces_x2y_at_center(self):
        vals = tabulate_basis(np.array([(0.5, 0.5)]))["N"][0]
        # nodal data of v = x^2 y at the four corners
        data = np.zeros(16)
        for c, (a, b) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            data[4 * c + 0] = a * a * b
            data[4 * c + 1] = 2 * a * b
            data[4 * c + 2] = a * a
            data[4 * c + 3] = 2 * a
        assert vals @ data == pytest.approx(0.25 * 0.5, abs=1e-14)

    def test_hessian_of_x3y3_matches_finite_differences(self):
        space = BfsSpace(init_uniform(2))
        vh = interpolant(
            space,
            lambda x, y: x**3 * y**3,
            lambda x, y: 3 * x**2 * y**3,
            lambda x, y: x**3 * 3 * y**2,
            lambda x, y: 9 * x**2 * y**2,
        )
        cell = cell_rect((2, 2, 1))
        center = np.array([[cell.x0 + cell.h / 2, cell.y0 + cell.h / 2]])
        hess = point_fields(vh, center, ("Nxx", "Nxy", "Nyy"))[0]
        x, y = center[0]
        exact = (6 * x * y**3, 9 * x**2 * y**2, x**3 * 6 * y)
        assert np.allclose(hess, exact, atol=1e-12)
        # independent check of the evaluator by central differences
        h = 1e-5
        fd_xx = (
            point_values(vh, center + [h, 0])
            - 2 * point_values(vh, center)
            + point_values(vh, center - [h, 0])
        ) / h**2
        fd_xy = (
            point_values(vh, center + [h, h])
            - point_values(vh, center + [h, -h])
            - point_values(vh, center + [-h, h])
            + point_values(vh, center + [-h, -h])
        ) / (4 * h**2)
        assert fd_xx[0] == pytest.approx(hess[0], abs=1e-7)
        assert fd_xy[0] == pytest.approx(hess[1], abs=1e-7)


class TestQuadRule:
    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_exactness_per_coordinate(self, degree):
        quad = QuadRule(degree)
        pts, w = quad.ref_points, quad.ref_weights
        for p in range(degree + 1):
            for q in range(degree + 1):
                approx = float(w @ (pts[:, 0] ** p * pts[:, 1] ** q))
                exact = 1.0 / ((p + 1) * (q + 1))
                assert approx == pytest.approx(exact, rel=1e-12)

    def test_points_interior(self):
        pts = QuadRule(5).ref_points
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    def test_default_count(self):
        assert QuadRule(5).npoints == 25

    @pytest.mark.parametrize("degree", [0, True, 2.5])
    def test_non_integer_degree_rejected(self, degree):
        # QuadRule(2.5) counted 6.25 points, and True made a 1-point rule
        with pytest.raises(ValueError, match="degree"):
            QuadRule(degree)
        assert QuadRule(np.int64(2)).npoints == 4

    def test_points_and_weights_are_computed_once_and_read_only(self):
        quad = QuadRule(4)
        assert quad.ref_points is quad.ref_points
        assert quad.ref_weights is quad.ref_weights
        for arr in (quad.ref_points, quad.ref_weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert quad == QuadRule(4) and hash(quad) == hash(QuadRule(4))


class TestTabulationCache:
    def test_equal_points_share_a_table(self):
        # one table serves every level of a three-level mesh
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 0, 0)]))
        space = BfsSpace(refine(mesh, rows_of(mesh, [(2, 1, 1)])))
        assert len(np.unique(space.mesh.levels)) == 3
        pts = QuadRule(3).ref_points
        tab = space.tabulation(pts)
        assert tab is space.tabulation(pts.copy())
        vh = FeFunction(space, np.ones(space.nfull))
        vh.on_cells(np.arange(len(space.mesh)), pts.copy(), what=("N", "Nxx"))
        assert len(space._tab_cache) == 1 and space.tabulation(pts) is tab

    def test_different_points_get_their_own_table(self):
        space = BfsSpace(init_uniform(1))
        a, b = QuadRule(3).ref_points, QuadRule(4).ref_points[:9]
        tab_a, tab_b = space.tabulation(a), space.tabulation(b)
        assert tab_a is not tab_b
        for pts, tab in ((a, tab_a), (b, tab_b)):
            expected = tabulate_basis_reference(1.0, pts)
            assert all(np.array_equal(tab[k], expected[k]) for k in expected)


class TestOnCells:
    def test_any_cell_order_matches_cell_by_cell(self):
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 0, 0)]))
        mesh = refine(mesh, rows_of(mesh, [(2, 1, 1)]))
        space = BfsSpace(mesh)
        vh = FeFunction(space, np.random.default_rng(6).standard_normal(space.nfull))
        ref = QuadRule(3).ref_points
        keys = ("N", "Nxy")
        scale = 1e-12 * np.max(np.abs(vh.coeffs)) * 4**mesh.max_level
        coarse_last = np.r_[np.arange(len(mesh))[::-1], 0, 3]  # repeats too
        for cells in (coarse_last, np.random.default_rng(7).permutation(coarse_last)):
            got = vh.on_cells(cells, ref, what=keys)
            for row, ci in enumerate(cells):
                one = vh.on_cells(np.array([ci]), ref, what=keys)
                assert all(
                    np.allclose(got[k][row], one[k][0], rtol=0, atol=scale) for k in keys
                )
        assert vh.on_cells(np.array([], dtype=int), ref)["N"].shape == (0, len(ref))


class TestContinuity:
    @staticmethod
    def edge_jump(vh, cell_a, ref_a, cell_b, ref_b):
        """Max value/gradient jump, sampling the shared edge from both cells."""
        what = ("N", "Nx", "Ny")
        va = vh.on_cells(np.array([cell_a]), ref_a, what=what)
        vb = vh.on_cells(np.array([cell_b]), ref_b, what=what)
        return max(float(np.max(np.abs(va[k][0] - vb[k][0]))) for k in what)

    def test_c1_across_hanging_edges(self):
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 0, 0)]))
        space = BfsSpace(mesh)
        assert len(mesh.hanging)
        rng = np.random.default_rng(0)
        red = space.reduction([], [])
        vh = FeFunction(space, red.full_vector(rng.standard_normal(red.ndof)))
        # hanging edge x = 1/2: the left edge of coarse (1,1,0) faces the
        # right edges of the fine cells (2,1,0) and (2,1,1)
        idx = {cid: k for k, cid in enumerate(mesh.cell_ids)}
        t = np.linspace(0.0, 1.0, 9)
        scale = 1.0 + float(np.max(np.abs(vh.coeffs)))
        for fine, offset in (((2, 1, 0), 0.0), ((2, 1, 1), 0.5)):
            coarse_ref = np.column_stack([np.zeros_like(t), offset + 0.5 * t])
            fine_ref = np.column_stack([np.ones_like(t), t])
            jump = self.edge_jump(
                vh, idx[(1, 1, 0)], coarse_ref, idx[fine], fine_ref
            )
            assert jump < 1e-10 * scale

    def test_c1_on_conforming_mesh(self):
        space = BfsSpace(init_uniform(2))
        rng = np.random.default_rng(1)
        vh = FeFunction(space, rng.standard_normal(space.nfull))
        idx = {cid: k for k, cid in enumerate(space.mesh.cell_ids)}
        t = np.linspace(0.0, 1.0, 11)
        left_ref = np.column_stack([np.ones_like(t), t])
        right_ref = np.column_stack([np.zeros_like(t), t])
        scale = 1.0 + float(np.max(np.abs(vh.coeffs)))
        for row in range(4):
            jump = self.edge_jump(
                vh, idx[(2, 0, row)], left_ref, idx[(2, 1, row)], right_ref
            )
            assert jump < 1e-10 * scale


class TestBoundaryInterpolation:
    def test_zero_data(self):
        space = BfsSpace(init_uniform(1))
        zero = lambda x, y: np.zeros_like(x)
        dofs, values = interpolate_boundary(space, zero, lambda x, y: (0.0 * x, 0.0 * y))
        assert len(dofs) == len(values) > 0 and np.all(values == 0.0)

    def test_every_dof_fixed_once_as_the_vertex_loop(self):
        mesh = refine(init_uniform(2), rows_of(init_uniform(2), [(2, 0, 0), (2, 3, 1)]))
        space = BfsSpace(mesh)
        g = lambda x, y: np.sin(x + 2 * y)
        grad_g = lambda x, y: (np.cos(x + 2 * y), 2 * np.cos(x + 2 * y))
        dofs, values = interpolate_boundary(space, g, grad_g)
        assert len(np.unique(dofs)) == len(dofs) == len(values)
        fixed = boundary_reference(space, g, grad_g)
        assert dofs.tolist() == list(fixed)
        # scalar and array evaluation of sin and cos may round differently
        assert np.allclose(values, list(fixed.values()), rtol=4e-16, atol=4e-16)

    def test_affine_data_on_bottom_edge(self):
        space = BfsSpace(init_uniform(1))
        mesh = space.mesh
        dofs, values = interpolate_boundary(
            space, lambda x, y: x + 0.0 * y, lambda x, y: (np.ones_like(x), np.zeros_like(x))
        )
        fixed = dict(zip(dofs.tolist(), values.tolist()))
        for vi, (kx, ky) in enumerate(mesh.vertex_keys):
            if ky == 0:  # bottom edge: value x, tangential slope 1
                assert fixed[4 * vi + 0] == pytest.approx(mesh.vertex_coords[vi, 0])
                assert fixed[4 * vi + 1] == pytest.approx(1.0)
                assert 4 * vi + 3 not in fixed  # mixed DOF stays free

    def test_corner_fixes_both_first_derivatives(self):
        space = BfsSpace(init_uniform(1))
        dofs, values = interpolate_boundary(
            space, lambda x, y: x * y, lambda x, y: (y, x)
        )
        corner = [
            vi
            for vi, key in enumerate(space.mesh.vertex_keys)
            if tuple(key) == (space.mesh.res, space.mesh.res)
        ][0]
        fixed = dict(zip(dofs.tolist(), values.tolist()))
        assert fixed[4 * corner + 0] == pytest.approx(1.0)
        assert fixed[4 * corner + 1] == pytest.approx(1.0)
        assert fixed[4 * corner + 2] == pytest.approx(1.0)

    def test_trace_error_decays_for_singular_data(self):
        # boundary data of the radial benchmark: (2|x|)^{3/2}/3
        from macert.bench import EXPERIMENTS
        from macert.envelope import edge_values
        from macert.estimator import max_boundary_trace_error

        exp = EXPERIMENTS[1]
        errs = []
        t = np.linspace(0.0, 1.0, 101)
        for level in (2, 3, 4):
            space = BfsSpace(init_uniform(level))
            red = space.reduction(*interpolate_boundary(space, exp.g, exp.grad_g))
            vh = FeFunction(space, red.full_vector(np.zeros(red.ndof)))
            vals, pts = edge_values(vh, t)
            errs.append(max_boundary_trace_error(vals, exp.g(pts[..., 0], pts[..., 1]))[1])
        assert errs[1] < 0.5 * errs[0]
        assert errs[2] < 0.5 * errs[1]


class TestNdof:
    def test_counts_match_uniform_formula(self):
        # free DOFs after fixing boundary values and tangential slopes
        for level, expected in ((0, 4), (1, 16), (2, 64), (3, 256)):
            space = BfsSpace(init_uniform(level))
            red = space.reduction(
                *interpolate_boundary(
                    space, lambda x, y: 0 * x, lambda x, y: (0 * x, 0 * y)
                )
            )
            assert red.ndof == expected

    def test_ndof_scales_by_four(self):
        mesh = init_uniform(2)
        space = BfsSpace(mesh)
        zero = lambda x, y: 0 * x
        gz = lambda x, y: (0 * x, 0 * y)
        n1 = space.reduction(*interpolate_boundary(space, zero, gz)).ndof
        space2 = BfsSpace(refine(mesh, np.arange(len(mesh))))
        n2 = space2.reduction(*interpolate_boundary(space2, zero, gz)).ndof
        assert n2 == 4 * n1

    def test_uniform_closed_form(self):
        # the budget check of an initial level reads this instead of a mesh
        for level in range(7):
            assert count_free_dofs(init_uniform(level)) == 4 ** (level + 1)
            assert uniform_free_dofs(level) == 4 ** (level + 1)

    def test_count_matches_reduction(self):
        # uniform meshes, meshes graded toward a corner and an adaptive history
        meshes = [init_uniform(level) for level in range(4)]
        for level in range(1, 5):
            coarse = meshes[-1] if level > 1 else init_uniform(1)
            meshes.append(refine(coarse, rows_of(coarse, [(level, 0, 0)])))
        config = RunConfig(1, "adaptive", max_ndof=1000, initial_level=0)
        meshes += [step.solve.u_h.space.mesh for step in steps(config)]
        assert any(len(mesh.hanging) for mesh in meshes[-3:])
        zero = lambda x, y: 0 * x
        gz = lambda x, y: (0 * x, 0 * y)
        for mesh in meshes:
            space = BfsSpace(mesh)
            red = space.reduction(*interpolate_boundary(space, zero, gz))
            assert count_free_dofs(mesh) == red.ndof


class TestNorms:
    def test_patch_test_quadratic(self):
        # any global quadratic is reproduced with zero error in all norms
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 1, 0)]))
        space = BfsSpace(mesh)
        q = lambda x, y: 1.0 + x - 2 * y + 0.5 * x * x + x * y - y * y
        vh = interpolant(
            space,
            q,
            lambda x, y: 1.0 + x + y,
            lambda x, y: -2.0 + x - 2 * y,
            lambda x, y: np.ones_like(x),
        )
        exact = ExactSolution(
            q,
            lambda x, y: (1.0 + x + y, -2.0 + x - 2 * y),
            lambda x, y: (np.ones_like(x), np.ones_like(x), -2 * np.ones_like(x)),
        )
        for err in norms_vs_exact(vh, exact):
            assert err <= 1e-10

    def test_single_basis_function_linf(self):
        space = BfsSpace(init_uniform(1))
        coeffs = np.zeros(space.nfull)
        # value DOF of the centre vertex
        center = [
            vi
            for vi, key in enumerate(space.mesh.vertex_keys)
            if tuple(key) == (space.mesh.res // 2, space.mesh.res // 2)
        ][0]
        coeffs[4 * center] = 1.0
        vh = FeFunction(space, coeffs)
        zero = ExactSolution(
            lambda x, y: 0 * x,
            lambda x, y: (0 * x, 0 * x),
            lambda x, y: (0 * x, 0 * x, 0 * x),
        )
        linf = norms_vs_exact(vh, zero)[0]
        assert linf == pytest.approx(1.0, abs=1e-13)


def test_hanging_constraints_reproduce_bicubics():
    # a globally bicubic function must survive the slave-DOF elimination
    mesh = init_uniform(1)
    mesh = refine(mesh, rows_of(mesh, [(1, 0, 1)]))
    space = BfsSpace(mesh)
    u = lambda x, y: x**3 * y + y**2
    vh = interpolant(
        space,
        u,
        lambda x, y: 3 * x**2 * y,
        lambda x, y: x**3 + 2 * y,
        lambda x, y: 3 * x**2,
    )
    # slaved coefficients agree with direct interpolation
    red = space.reduction([], [])
    recovered = red.full_vector(vh.coeffs[red.free_dofs])
    assert np.allclose(recovered, vh.coeffs, atol=1e-12)


def test_chained_constraints_rejected():
    # 2-irregular: the level-3 block faces level-1 leaves across level-2
    # ones, so the masters of slaves 5 and 10 hang themselves
    mesh = RectMesh([
        (1, 0, 0), (2, 2, 0), (3, 4, 2), (3, 5, 2), (3, 4, 3), (3, 5, 3),
        (2, 3, 0), (2, 3, 1), (1, 0, 1), (1, 1, 1),
    ])
    slaves = mesh.hanging[:, 0]
    masters = mesh.hanging[:, 1:3]
    assert sorted(slaves[np.isin(masters, slaves).any(axis=1)]) == [5, 10]
    with pytest.raises(ValueError, match="not 1-irregular"):
        BfsSpace(mesh).reduction([], [])
