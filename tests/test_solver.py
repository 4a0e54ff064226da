import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from macert.bench import EXPERIMENTS, ExactSolution, RunConfig, norms_vs_exact, steps
from macert.bfs import BfsSpace, FeFunction, QuadRule, count_free_dofs, interpolate_boundary
from macert.geometry import init_uniform, refine
from macert.hjb import (
    _CHUNK_CELLS,
    QUAD,
    HjbProblem,
    _Assembler,
    _sweeps,
    eval_F_batch,
    solve,
)

from oracles import (
    assemble_bincount,
    assemble_reference,
    dirichlet_solve,
    dissection_node_reference,
    reduction_reference,
    rows_of,
)


TWO = lambda x, y: 2.0 + 0 * x  # f of u = (x^2 + y^2) / 2


def quadratic_exact():
    u = lambda x, y: 0.5 * (x**2 + y**2)
    grad = lambda x, y: (1.0 * x, 1.0 * y)
    hess = lambda x, y: (np.ones_like(x), np.zeros_like(x), np.ones_like(x))
    return ExactSolution(u, grad, hess)


class TestQuadraticReproduction:
    def test_poisson_regime(self):
        # eps = 1/2 pins the policy at I/2: the scheme is a Poisson solve
        exact = quadratic_exact()
        coarse = init_uniform(1)
        for mesh in (coarse, refine(coarse, rows_of(coarse, [(1, 1, 1)]))):
            res = dirichlet_solve(BfsSpace(mesh), 0.5, TWO, exact.u, exact.grad)
            assert res.converged
            linf = norms_vs_exact(res.u_h, exact)[0]
            assert linf <= 1e-9

    @pytest.mark.parametrize("eps", [0.2, 0.1, 1e-3])
    def test_inactive_regularisation(self, eps):
        exact = quadratic_exact()
        res = dirichlet_solve(BfsSpace(init_uniform(2)), eps, TWO, exact.u, exact.grad)
        assert res.converged
        linf = norms_vs_exact(res.u_h, exact)[0]
        assert linf <= 1e-8

    def test_hanging_node_mesh(self):
        exact = quadratic_exact()
        mesh = refine(init_uniform(2), rows_of(init_uniform(2), [(2, 0, 0), (2, 3, 3)]))
        assert len(mesh.hanging)
        res = dirichlet_solve(BfsSpace(mesh), 0.2, TWO, exact.u, exact.grad)
        linf = norms_vs_exact(res.u_h, exact)[0]
        assert linf <= 1e-8


class TestBenchmarkSolves:
    def test_radial_solution_accuracy(self):
        # discrete error at the 8x8 mesh within a factor two of the
        # reference history value 3.2142e-3
        exp = EXPERIMENTS[1]
        space = BfsSpace(init_uniform(2))
        res = dirichlet_solve(space, 1e-3, exp.f, exp.g, exp.grad_g)
        assert res.converged
        linf = norms_vs_exact(res.u_h, exp.exact)[0]
        assert 0.5 * 3.2142e-3 <= linf <= 2.0 * 3.2142e-3

    def test_eps_independence_in_inactive_range(self):
        # the radial benchmark's policy weights are (1/3, 2/3): solutions for
        # eps below 1/3 coincide
        exp = EXPERIMENTS[1]
        space = BfsSpace(init_uniform(2))
        sols = []
        for eps in (0.2, 1e-2, 1e-3):
            res = dirichlet_solve(space, eps, exp.f, exp.g, exp.grad_g)
            sols.append(res.u_h.coeffs)
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-7
        assert np.max(np.abs(sols[1] - sols[2])) <= 1e-7

    def test_oscillating_density_matches_reference(self):
        exp = EXPERIMENTS[3]
        space = BfsSpace(init_uniform(2))
        res = dirichlet_solve(space, 1e-4, exp.f, exp.g, exp.grad_g)
        linf = norms_vs_exact(res.u_h, exp.exact)[0]
        # reference history: 1.1503e-2 at this mesh
        assert 0.5 * 1.1503e-2 <= linf <= 2.0 * 1.1503e-2

    def test_niter_reported(self):
        exp = EXPERIMENTS[1]
        space = BfsSpace(init_uniform(1))
        res = dirichlet_solve(space, 1e-3, exp.f, exp.g, exp.grad_g)
        assert 1 <= res.niter <= 50
        assert res.residual >= 0.0

    @pytest.mark.parametrize("number, eps", [(1, 1e-3), (2, 0.1), (3, 1e-4)])
    def test_backward_error_measured(self, number, eps):
        exp = EXPERIMENTS[number]
        mesh = _corner_graded_mesh(2)
        res = dirichlet_solve(BfsSpace(mesh), eps, exp.f, exp.g, exp.grad_g)
        assert np.isfinite(res.backward_error)
        assert 0.0 <= res.backward_error < 1e-8

    def test_max_iter_flags_without_raising(self):
        exp = EXPERIMENTS[3]
        res = dirichlet_solve(BfsSpace(init_uniform(1)), 1e-4, exp.f, exp.g, exp.grad_g, max_iter=2)
        assert res.niter == 2
        assert not res.converged
        assert res.stop == "max_iter"

    def test_max_iter_returns_the_last_iterate(self):
        # ex3 on the uniform level-5 mesh: step 2's full step (22.44) is
        # damped to 7.79, step 3's (16.96) to 8.70, above step 2's; so
        # max_iter=3 returns the third iterate, not the lower second one
        exp = EXPERIMENTS[3]
        space = BfsSpace(init_uniform(5))
        two, three = (
            dirichlet_solve(space, 1e-4, exp.f, exp.g, exp.grad_g, max_iter=m) for m in (2, 3)
        )
        assert three.niter == 3 and len(three.history) == 3
        assert three.stop == "max_iter" and not three.converged
        assert three.residual > two.residual
        assert three.residual < three.history[-1][0]  # the damped trial was taken
        assert not np.array_equal(three.u_h.coeffs, two.u_h.coeffs)


def _record_splu(monkeypatch):
    """Replace scipy's splu by a wrapper that records (kwargs, lu) per call."""
    calls = []
    splu = spla.splu

    def recording(A, **kwargs):
        lu = splu(A, **kwargs)
        calls.append((kwargs, lu))
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    return calls


def _corner_graded_mesh(times):
    mesh = init_uniform(2)
    for level in range(2, 2 + times):
        mesh = refine(mesh, rows_of(mesh, [(level, 0, 0)]))
    return mesh


class TestDiagonalPivoting:
    @pytest.mark.parametrize(
        "number, eps, mesh",
        [(1, 1e-3, _corner_graded_mesh(3)), (3, 1e-4, init_uniform(3))],
        ids=["ex1-graded", "ex3-uniform"],
    )
    def test_factorisations_use_diagonal_pivots_without_row_interchanges(
        self, monkeypatch, number, eps, mesh
    ):
        exp = EXPERIMENTS[number]
        calls = _record_splu(monkeypatch)
        res = dirichlet_solve(BfsSpace(mesh), eps, exp.f, exp.g, exp.grad_g)
        # late policy systems are solved by sweeps with the latest LU
        assert res.converged and 2 <= len(calls) < res.niter
        assert res.factorisations == len(calls)
        assert res.lu_nnz == calls[-1][1].nnz
        for kwargs, lu in calls:
            assert kwargs == {
                "permc_spec": "NATURAL",
                "diag_pivot_thresh": 0.0,
                "options": {"SymmetricMode": True},
            }
            assert np.array_equal(lu.perm_r, lu.perm_c)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_policy_matrices_are_coercive(self, eps):
        # v^T K_r(A) v >= eps v^T K_r(I) v for every policy A with eigenvalues
        # in [eps, 1-eps] and unit trace: a few rounds of the pointwise policy
        # that minimises A:D^2 v Lap v for the worst v found so far
        mesh = refine(init_uniform(2), rows_of(init_uniform(2), [(2, 0, 0), (2, 3, 3)]))
        assert len(mesh.hanging)
        space = BfsSpace(mesh)
        asm = _Assembler(space)
        zero = lambda x, y: 0.0 * x
        red = space.reduction(*interpolate_boundary(space, zero, lambda x, y: (zero(x, y),) * 2))
        ones = np.ones(asm.weights.shape)

        def reduced(a11, a12, a22):
            return red.reduce_matrix(asm.linear_system(a11, a12, a22, 0 * ones)[0]).toarray()

        B = reduced(ones, 0 * ones, ones)
        cells = np.arange(len(mesh))
        v = np.random.default_rng(0).standard_normal(red.ndof)
        hess = ("Nxx", "Nxy", "Nyy")
        for _ in range(5):
            H = FeFunction(space, red.full_vector(v)).on_cells(cells, QUAD.ref_points, hess)
            sign = np.sign(H["Nxx"] + H["Nyy"])
            # with f = 0 the operator's policy minimises A:(sign D^2 v)
            policy = eval_F_batch(eps, 0.0 * sign, *(sign * H[k] for k in hess))[2:]
            K = reduced(*policy)
            lam, vecs = sla.eigh(0.5 * (K + K.T), B)
            assert lam[0] >= eps * (1.0 - 1e-8)
            v = vecs[:, 0]


    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_miranda_talenti_identity_needs_three_gauss_points(self, degree):
        # sum w (v_xy^2 - v_xx v_yy) vanishes for v_h with zero boundary data
        # when the rule integrates degree (4, 4) exactly: 3 points or more
        mesh = init_uniform(1)
        mesh = refine(mesh, rows_of(mesh, [(1, 0, 0)]))
        mesh = refine(mesh, rows_of(mesh, [(2, 1, 1)]))
        assert len(np.unique(mesh.levels)) == 3
        space, quad = BfsSpace(mesh), QuadRule(degree)
        zero = lambda x, y: 0.0 * x
        red = space.reduction(*interpolate_boundary(space, zero, lambda x, y: (zero(x, y),) * 2))
        v = np.random.default_rng(degree).standard_normal(red.ndof)
        cells = np.arange(len(mesh))
        H = FeFunction(space, red.full_vector(v)).on_cells(
            cells, quad.ref_points, ("Nxx", "Nxy", "Nyy")
        )
        w = mesh.cell_sizes()[:, None] ** 2 * quad.ref_weights
        defect = 2.0 * np.sum(w * (H["Nxy"] ** 2 - H["Nxx"] * H["Nyy"]))
        relative = abs(defect) / np.sum(w * (H["Nxx"] + H["Nyy"]) ** 2)
        if degree >= 3:
            assert relative <= 1e-12
        else:
            assert relative >= 1e-2


def _zero_boundary(space):
    zero = lambda x, y: 0.0 * x
    return interpolate_boundary(space, zero, lambda x, y: (zero(x, y),) * 2)


def _policy_matrix(space, red, seed):
    """K_r of a random policy with unit trace and eigenvalues in [0.01, 0.99],
    like the solver's."""
    asm = _Assembler(space)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.01, 0.99, asm.weights.shape)
    theta = rng.uniform(0.0, np.pi, t.shape)
    c, s = np.cos(theta), np.sin(theta)
    policy = (t * s * s + (1 - t) * c * c, (1 - 2 * t) * c * s, t * c * c + (1 - t) * s * s)
    return red.reduce_matrix(asm.linear_system(*policy, np.ones(t.shape))[0])


class TestDissectionOrder:
    MESHES = {
        "ex1-graded": _corner_graded_mesh(6),
        "two-corners": refine(init_uniform(2), rows_of(init_uniform(2), [(2, 0, 0), (2, 3, 3)])),
    }

    @pytest.mark.parametrize("name", MESHES)
    def test_policy_matrix_joins_nested_nodes_only(self, name):
        # the reduction numbers each free DOF once, and K_r, hanging-node
        # constraints folded in, never joins two quadrants of a node's cross
        mesh = self.MESHES[name]
        space = BfsSpace(mesh)
        dofs, values = _zero_boundary(space)
        red = space.reduction(dofs, values)
        free = reduction_reference(space, dict(zip(dofs.tolist(), values.tolist())))[2]
        assert np.array_equal(np.sort(red.free_dofs), free)
        Kr = _policy_matrix(space, red, 0).tocoo()
        nodes = np.array(dissection_node_reference(mesh))[red.free_dofs // 4]
        a, b = nodes[Kr.row], nodes[Kr.col]  # (depth, nx, ny) per entry
        coarse = a[:, :1] <= b[:, :1]
        outer, inner = np.where(coarse, a, b), np.where(coarse, b, a)
        assert np.array_equal(inner[:, 1:] >> (inner[:, :1] - outer[:, :1]), outer[:, 1:])
        assert len(mesh.hanging)

    @pytest.mark.parametrize("mesh", [init_uniform(5), _corner_graded_mesh(6)],
                             ids=["uniform-5", "ex1-graded"])
    def test_fill_at_most_minimum_degree(self, mesh):
        # the entries of L and U in dissection order against a minimum-degree
        # order of K_r + K_r^T, whether K_r comes in that order or by DOF
        space = BfsSpace(mesh)
        red = space.reduction(*_zero_boundary(space))
        Kr = _policy_matrix(space, red, 1)
        by_dof = np.argsort(red.free_dofs)
        fill = spla.splu(Kr, **_LU_OPTIONS).nnz
        options = dict(_LU_OPTIONS, permc_spec="MMD_AT_PLUS_A")
        for K in (Kr, Kr[by_dof][:, by_dof].tocsc()):
            assert fill <= spla.splu(K, **options).nnz


def _random_policy(shape, seed):
    rng = np.random.default_rng(seed)
    a11 = rng.uniform(0.0, 1.0, shape)
    return a11, rng.uniform(-0.5, 0.5, shape), 1.0 - a11


class TestAssembly:
    MESHES = {
        "ex1-graded": _corner_graded_mesh(3),
        "graded-20-levels": _corner_graded_mesh(18),  # entries scale like 4^level
        "ex3-uniform": init_uniform(3),
    }

    @pytest.mark.parametrize("name", MESHES)
    def test_matches_coo_assembly(self, name):
        mesh = self.MESHES[name]
        space = BfsSpace(mesh)
        asm = _Assembler(space)
        policy = _random_policy(asm.weights.shape, 0)
        K = asm.linear_system(*policy, np.ones(asm.weights.shape))[0]
        ref = assemble_reference(space, QUAD, *policy)
        assert ref.has_canonical_format  # sorted indices, no duplicates
        # K is CSC; its pattern is symmetric, so its arrays are those of the CSR ref
        assert K.format == "csc"
        assert np.array_equal(K.indptr, ref.indptr)
        assert np.array_equal(K.indices, ref.indices)
        row_max = np.maximum.reduceat(np.abs(ref.data), ref.indptr[:-1])
        scale = np.repeat(row_max, np.diff(ref.indptr))
        assert np.all(np.abs(K.tocsr().data - ref.data) <= 1e-13 * scale)

    def test_reduced_matrix_is_sorted_csc(self):
        # splu takes CSC; sorted indices keep K_r equal to a CSR -> CSC round trip
        mesh = refine(init_uniform(2), rows_of(init_uniform(2), [(2, 0, 0), (2, 3, 3)]))
        space = BfsSpace(mesh)
        asm = _Assembler(space)
        zero = lambda x, y: 0.0 * x
        red = space.reduction(*interpolate_boundary(space, zero, lambda x, y: (zero(x, y),) * 2))
        K = asm.linear_system(*_random_policy(asm.weights.shape, 1), np.ones(asm.weights.shape))[0]
        Kr = red.reduce_matrix(K)
        ref = (red.P.T @ (K @ red.P)).tocsr().tocsc()
        assert Kr.format == "csc" and Kr.has_sorted_indices
        assert np.array_equal(Kr.indptr, ref.indptr)
        assert np.array_equal(Kr.indices, ref.indices)
        assert np.array_equal(Kr.data, ref.data)

    @pytest.mark.parametrize("name", ["uniform-6", "graded-hanging"])
    def test_chunks_match_one_bincount_bitwise(self, name):
        # chunk after chunk, np.add.at sums each entry's terms in the order
        # of one bincount over all cells: on full chunks only, and on a mesh
        # with hanging nodes that ends on a partial chunk
        if name == "uniform-6":
            mesh = init_uniform(6)
        else:
            mesh = init_uniform(5)
            mesh = refine(mesh, rows_of(mesh, [(5, i, j) for i in range(6) for j in range(6)]))
            mesh = refine(mesh, rows_of(mesh, [(6, i, j) for i in range(4) for j in range(4)]))
            assert len(mesh.hanging) and len(mesh) % _CHUNK_CELLS
        assert len(mesh) > _CHUNK_CELLS
        space = BfsSpace(mesh)
        asm = _Assembler(space)
        policy = _random_policy(asm.weights.shape, 3)
        rhs = np.random.default_rng(4).standard_normal(asm.weights.shape)
        K, load = asm.linear_system(*policy, rhs)
        ref, ref_load = assemble_bincount(asm, *policy, rhs)
        assert np.array_equal(K.data, ref.data)
        assert np.array_equal(load, ref_load)

    def test_peak_memory_below_one_block_array(self):
        # one call holds the matrix data and one chunk of element blocks:
        # below the data plus the (nc, 256) blocks of all cells at once
        space = BfsSpace(init_uniform(6))
        asm = _Assembler(space)
        policy = _random_policy(asm.weights.shape, 5)
        rhs = np.ones(asm.weights.shape)
        asm.linear_system(*policy, rhs)
        tracemalloc.start()
        try:
            K = asm.linear_system(*policy, rhs)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < K.data.nbytes + len(space.mesh) * 256 * 8

    def test_repeat_calls_are_bitwise_equal(self):
        space = BfsSpace(self.MESHES["ex1-graded"])
        asm = _Assembler(space)
        policy = _random_policy(asm.weights.shape, 2)
        rhs = np.ones(asm.weights.shape)
        K1, load1 = asm.linear_system(*policy, rhs)
        K2, load2 = asm.linear_system(*policy, rhs)
        assert np.array_equal(K1.data, K2.data) and np.array_equal(load1, load2)


_LU_OPTIONS = dict(
    permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
)


def _direct(K, F):
    """LU, solution and relative residual of one direct solve."""
    lu = spla.splu(K, **_LU_OPTIONS)
    u = lu.solve(F)
    return lu, u, np.linalg.norm(K @ u - F) / np.linalg.norm(F)


class TestSweeps:
    @pytest.fixture(scope="class")
    def ex3_systems(self):
        """The reduced system (K_r, F_r) of every policy step of one ex3 solve."""
        exp = EXPERIMENTS[3]
        space = BfsSpace(init_uniform(3))
        red = space.reduction(*interpolate_boundary(space, exp.g, exp.grad_g))
        systems = []
        assemble = _Assembler.linear_system

        def recording(self, *args):
            K, load = assemble(self, *args)
            systems.append((red.reduce_matrix(K), red.reduce_vector(load - K @ red.offset)))
            return K, load

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Assembler, "linear_system", recording)
            solve(space, HjbProblem(1e-4, exp.f), reduction=red)
        return systems

    def test_late_policy_refined_with_previous_lu(self, ex3_systems):
        (K1, F1), (K2, F2) = ex3_systems[-2:]
        lu, u1, berr = _direct(K1, F1)
        u, rel = _sweeps(lu, K2, F2, u1, 2.0 * berr)
        exact = _direct(K2, F2)[1]
        assert np.max(np.abs(u - exact)) <= 1e-9 * np.max(np.abs(exact))
        assert rel == np.linalg.norm(K2 @ u - F2) / np.linalg.norm(F2)
        assert rel <= 2.0 * berr

    def test_poisson_lu_far_from_late_policy_refactorises(self, ex3_systems):
        (K1, F1), (K2, F2) = ex3_systems[0], ex3_systems[-1]
        lu, u1, berr = _direct(K1, F1)
        solves = []

        class Counting:
            def solve(self, r):
                solves.append(r)
                return lu.solve(r)

        assert _sweeps(Counting(), K2, F2, u1, 2.0 * berr) is None
        assert len(solves) == 1  # the rate test gives up after one sweep


def _graded_toward_half(times):
    """init_uniform(2) refined ``times`` times at the finest cells touching x = 1/2."""
    mesh = init_uniform(2)
    for _ in range(times):
        size = 0.5**mesh.levels
        left = mesh.cell_array[:, 1] * size
        touch = (mesh.levels == mesh.max_level) & (left <= 0.5) & (left + size >= 0.5)
        mesh = refine(mesh, np.flatnonzero(touch))
    return mesh


class TestFloorStop:
    def test_stops_at_first_step_within_twice_the_linear_residual(self):
        # ex2's kink at x = 1/2 leaves a residual floor above tol on this mesh
        exp = EXPERIMENTS[2]
        space = BfsSpace(_graded_toward_half(4))
        assert count_free_dofs(space.mesh) >= 570
        res = dirichlet_solve(space, 0.1, exp.f, exp.g, exp.grad_g)
        assert res.stop == "floor"
        assert len(res.history) == res.niter
        *earlier, (last_res, last_lin) = res.history
        assert last_res <= 2.0 * last_lin
        assert all(r > 2.0 * r_lin for r, r_lin in earlier)
        assert res.residual <= min(r for r, _ in res.history)

    @pytest.mark.parametrize(
        "number, eps, mesh",
        [
            (1, 1e-3, _corner_graded_mesh(3)),
            (2, 0.1, _graded_toward_half(4)),
            (3, 1e-4, init_uniform(3)),
        ],
        ids=["ex1-graded", "ex2-graded", "ex3-uniform"],
    )
    def test_restart_from_converged_solution_takes_one_solve(self, number, eps, mesh):
        exp = EXPERIMENTS[number]
        space = BfsSpace(mesh)
        first = dirichlet_solve(space, eps, exp.f, exp.g, exp.grad_g)
        assert first.converged
        again = dirichlet_solve(space, eps, exp.f, exp.g, exp.grad_g, initial=first.u_h.coeffs)
        assert again.niter == len(again.history) == 1
        assert again.stop in ("tol", "floor")

    def test_policy_fixed_point_stops_at_the_floor(self):
        # on ex3 adaptive from level 5 the last mesh reaches a policy fixed
        # point: the step's policy is the one it solved, so its residual and
        # r_lin are one vector and the floor test ends the iteration
        *_, last = steps(RunConfig(experiment=3, mode="adaptive", max_ndof=4800, initial_level=5))
        assert last.row.ndof == 4780
        assert last.solve.stop == "floor" and last.solve.niter == 6
        last_res, last_lin = last.solve.history[-1]
        assert last_res <= 2.0 * last_lin

    def test_max_iter_below_one_rejected(self):
        exp = EXPERIMENTS[1]
        with pytest.raises(ValueError, match="max_iter"):
            dirichlet_solve(BfsSpace(init_uniform(1)), 1e-3, exp.f, exp.g, exp.grad_g, max_iter=0)

    @pytest.mark.parametrize("value", [2.5, 1.0, True])
    def test_non_integer_max_iter_rejected(self, value):
        # max_iter=2.5 would run 3 solves and True 1
        exp = EXPERIMENTS[1]
        space = BfsSpace(init_uniform(1))
        with pytest.raises(ValueError, match="max_iter"):
            dirichlet_solve(space, 1e-3, exp.f, exp.g, exp.grad_g, max_iter=value)
        res = dirichlet_solve(space, 1e-3, exp.f, exp.g, exp.grad_g, max_iter=np.int64(1))
        assert res.niter == 1
