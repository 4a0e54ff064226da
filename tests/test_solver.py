import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from macert.bench import EXPERIMENTS, ExactSolution
from macert.bfs import (
    BfsSpace, FeFunction, QuadRule, count_free_dofs, interpolate_boundary, norms_vs_exact,
)
from macert.geometry import init_uniform, refine
from macert.hjb import HjbProblem, _Assembler, eval_F_batch, solve

from oracles import assemble_reference


def quadratic_exact():
    u = lambda x, y: 0.5 * (x**2 + y**2)
    grad = lambda x, y: (1.0 * x, 1.0 * y)
    hess = lambda x, y: (np.ones_like(x), np.zeros_like(x), np.ones_like(x))
    return ExactSolution(u, grad, hess)


class TestQuadraticReproduction:
    def test_poisson_regime(self):
        # eps = 1/2 pins the policy at I/2: the scheme is a Poisson solve
        exact = quadratic_exact()
        problem = HjbProblem(0.5, lambda x, y: 2.0 + 0 * x, exact.u, exact.grad)
        for mesh in (init_uniform(1), refine(init_uniform(1), [(1, 1, 1)])):
            res = solve(BfsSpace(mesh), problem, QuadRule(5))
            assert res.converged
            linf = norms_vs_exact(res.u_h, exact, QuadRule(5))[0]
            assert linf <= 1e-9

    @pytest.mark.parametrize("eps", [0.2, 0.1, 1e-3])
    def test_inactive_regularisation(self, eps):
        exact = quadratic_exact()
        problem = HjbProblem(eps, lambda x, y: 2.0 + 0 * x, exact.u, exact.grad)
        res = solve(BfsSpace(init_uniform(2)), problem, QuadRule(5))
        assert res.converged
        linf = norms_vs_exact(res.u_h, exact, QuadRule(5))[0]
        assert linf <= 1e-8

    def test_hanging_node_mesh(self):
        exact = quadratic_exact()
        problem = HjbProblem(0.2, lambda x, y: 2.0 + 0 * x, exact.u, exact.grad)
        mesh = refine(init_uniform(2), [(2, 0, 0), (2, 3, 3)])
        assert len(mesh.hanging)
        res = solve(BfsSpace(mesh), problem, QuadRule(5))
        linf = norms_vs_exact(res.u_h, exact, QuadRule(5))[0]
        assert linf <= 1e-8


class TestBenchmarkSolves:
    def test_radial_solution_accuracy(self):
        # discrete error at the 8x8 mesh within a factor two of the
        # reference history value 3.2142e-3
        exp = EXPERIMENTS[1]
        problem = HjbProblem(1e-3, exp.f, exp.g, exp.grad_g)
        res = solve(BfsSpace(init_uniform(2)), problem, QuadRule(5))
        assert res.converged
        linf = norms_vs_exact(res.u_h, exp.exact, QuadRule(5))[0]
        assert 0.5 * 3.2142e-3 <= linf <= 2.0 * 3.2142e-3

    def test_eps_independence_in_inactive_range(self):
        # the radial benchmark's policy weights are (1/3, 2/3): solutions for
        # eps below 1/3 coincide
        exp = EXPERIMENTS[1]
        space = BfsSpace(init_uniform(2))
        sols = []
        for eps in (0.2, 1e-2, 1e-3):
            res = solve(space, HjbProblem(eps, exp.f, exp.g, exp.grad_g), QuadRule(5))
            sols.append(res.u_h.coeffs)
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-7
        assert np.max(np.abs(sols[1] - sols[2])) <= 1e-7

    def test_oscillating_density_matches_reference(self):
        exp = EXPERIMENTS[3]
        problem = HjbProblem(1e-4, exp.f, exp.g, exp.grad_g)
        res = solve(BfsSpace(init_uniform(2)), problem, QuadRule(5))
        linf = norms_vs_exact(res.u_h, exp.exact, QuadRule(5))[0]
        # reference history: 1.1503e-2 at this mesh
        assert 0.5 * 1.1503e-2 <= linf <= 2.0 * 1.1503e-2

    def test_niter_reported(self):
        exp = EXPERIMENTS[1]
        res = solve(BfsSpace(init_uniform(1)), HjbProblem(1e-3, exp.f, exp.g, exp.grad_g), QuadRule(5))
        assert 1 <= res.niter <= 50
        assert res.residual >= 0.0

    @pytest.mark.parametrize("number, eps", [(1, 1e-3), (2, 0.1), (3, 1e-4)])
    def test_backward_error_measured(self, number, eps):
        exp = EXPERIMENTS[number]
        mesh = _corner_graded_mesh(2)
        res = solve(BfsSpace(mesh), HjbProblem(eps, exp.f, exp.g, exp.grad_g), QuadRule(5))
        assert np.isfinite(res.backward_error)
        assert 0.0 <= res.backward_error < 1e-8

    def test_max_iter_flags_without_raising(self):
        exp = EXPERIMENTS[3]
        res = solve(
            BfsSpace(init_uniform(1)),
            HjbProblem(1e-4, exp.f, exp.g, exp.grad_g),
            QuadRule(5),
            max_iter=2,
        )
        assert res.niter == 2
        assert not res.converged
        assert res.stop == "max_iter"


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
        mesh = refine(mesh, [(level, 0, 0)])
    return mesh


class TestDiagonalPivoting:
    @pytest.mark.parametrize(
        "number, eps, mesh",
        [(1, 1e-3, _corner_graded_mesh(3)), (3, 1e-4, init_uniform(3))],
        ids=["ex1-graded", "ex3-uniform"],
    )
    def test_one_factorisation_per_solve_without_row_interchanges(
        self, monkeypatch, number, eps, mesh
    ):
        exp = EXPERIMENTS[number]
        calls = _record_splu(monkeypatch)
        res = solve(BfsSpace(mesh), HjbProblem(eps, exp.f, exp.g, exp.grad_g), QuadRule(5))
        assert res.converged and len(calls) == res.niter >= 2
        for kwargs, lu in calls:
            assert kwargs == {
                "permc_spec": "MMD_AT_PLUS_A",
                "diag_pivot_thresh": 0.0,
                "options": {"SymmetricMode": True},
            }
            assert np.array_equal(lu.perm_r, lu.perm_c)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_policy_matrices_are_coercive(self, eps):
        # v^T K_r(A) v >= eps v^T K_r(I) v for every policy A with eigenvalues
        # in [eps, 1-eps] and unit trace: a few rounds of the pointwise policy
        # that minimises A:D^2 v Lap v for the worst v found so far
        mesh = refine(init_uniform(2), [(2, 0, 0), (2, 3, 3)])
        assert len(mesh.hanging)
        space, quad = BfsSpace(mesh), QuadRule(5)
        asm = _Assembler(space, quad)
        zero = lambda x, y: 0.0 * x
        red = space.reduction(interpolate_boundary(space, zero, lambda x, y: (zero(x, y),) * 2))
        ones = np.ones(asm.weights.shape)

        def reduced(a11, a12, a22):
            return red.reduce_matrix(asm.linear_system(a11, a12, a22, 0 * ones)[0]).toarray()

        B = reduced(ones, 0 * ones, ones)
        cells = np.arange(len(mesh.cell_ids))
        v = np.random.default_rng(0).standard_normal(red.ndof)
        hess = ("Nxx", "Nxy", "Nyy")
        for _ in range(5):
            H = FeFunction(space, red.full_vector(v)).on_cells(cells, quad.ref_points, hess)
            sign = np.sign(H["Nxx"] + H["Nyy"])
            # with f = 0 the operator's policy minimises A:(sign D^2 v)
            policy = eval_F_batch(eps, 0.0 * sign, *(sign * H[k] for k in hess))[2:]
            K = reduced(*policy)
            lam, vecs = sla.eigh(0.5 * (K + K.T), B)
            assert lam[0] >= eps * (1.0 - 1e-8)
            v = vecs[:, 0]


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
        space, quad = BfsSpace(mesh), QuadRule(5)
        asm = _Assembler(space, quad)
        policy = _random_policy(asm.weights.shape, 0)
        K = asm.linear_system(*policy, np.ones(asm.weights.shape))[0]
        ref = assemble_reference(space, quad, *policy)
        assert ref.has_canonical_format  # sorted indices, no duplicates
        assert np.array_equal(K.indptr, ref.indptr)
        assert np.array_equal(K.indices, ref.indices)
        row_max = np.maximum.reduceat(np.abs(ref.data), ref.indptr[:-1])
        scale = np.repeat(row_max, np.diff(ref.indptr))
        assert np.all(np.abs(K.data - ref.data) <= 1e-13 * scale)

    def test_reduced_matrix_is_sorted_csc(self):
        # splu takes CSC; sorted indices keep K_r equal to a CSR -> CSC round trip
        mesh = refine(init_uniform(2), [(2, 0, 0), (2, 3, 3)])
        space, quad = BfsSpace(mesh), QuadRule(5)
        asm = _Assembler(space, quad)
        zero = lambda x, y: 0.0 * x
        red = space.reduction(interpolate_boundary(space, zero, lambda x, y: (zero(x, y),) * 2))
        K = asm.linear_system(*_random_policy(asm.weights.shape, 1), np.ones(asm.weights.shape))[0]
        Kr = red.reduce_matrix(K)
        ref = (red.P.T @ (K @ red.P)).tocsr().tocsc()
        assert Kr.format == "csc" and Kr.has_sorted_indices
        assert np.array_equal(Kr.indptr, ref.indptr)
        assert np.array_equal(Kr.indices, ref.indices)
        assert np.array_equal(Kr.data, ref.data)

    def test_repeat_calls_are_bitwise_equal(self):
        space, quad = BfsSpace(self.MESHES["ex1-graded"]), QuadRule(5)
        asm = _Assembler(space, quad)
        policy = _random_policy(asm.weights.shape, 2)
        rhs = np.ones(asm.weights.shape)
        K1, load1 = asm.linear_system(*policy, rhs)
        K2, load2 = asm.linear_system(*policy, rhs)
        assert np.array_equal(K1.data, K2.data) and np.array_equal(load1, load2)


def _graded_toward_half(times):
    """init_uniform(2) refined ``times`` times at the finest cells touching x = 1/2."""
    mesh = init_uniform(2)
    for _ in range(times):
        size = 0.5**mesh.levels
        left = mesh.cell_array[:, 1] * size
        touch = (mesh.levels == mesh.max_level) & (left <= 0.5) & (left + size >= 0.5)
        mesh = refine(mesh, [tuple(c) for c in mesh.cell_array[touch].tolist()])
    return mesh


class TestFloorStop:
    def test_stops_at_first_step_within_twice_the_linear_residual(self):
        # ex2's kink at x = 1/2 leaves a residual floor above tol on this mesh
        exp = EXPERIMENTS[2]
        space = BfsSpace(_graded_toward_half(4))
        assert count_free_dofs(space.mesh) >= 570
        res = solve(space, HjbProblem(0.1, exp.f, exp.g, exp.grad_g), QuadRule(5))
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
        space, quad = BfsSpace(mesh), QuadRule(5)
        problem = HjbProblem(eps, exp.f, exp.g, exp.grad_g)
        first = solve(space, problem, quad)
        assert first.converged
        again = solve(space, problem, quad, initial=first.u_h.coeffs)
        assert again.niter == len(again.history) == 1
        assert again.stop in ("tol", "floor")

    def test_max_iter_below_one_rejected(self):
        exp = EXPERIMENTS[1]
        with pytest.raises(ValueError, match="max_iter"):
            solve(BfsSpace(init_uniform(1)), HjbProblem(1e-3, exp.f, exp.g, exp.grad_g),
                  QuadRule(5), max_iter=0)
