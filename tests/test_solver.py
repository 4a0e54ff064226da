import numpy as np
import pytest
import scipy.sparse.linalg as spla

from macert.bench import EXPERIMENTS, ExactSolution
from macert.bfs import BfsSpace, QuadRule, norms_vs_exact
from macert.geometry import init_uniform, refine
from macert.hjb import HjbProblem, solve


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
        assert mesh.hanging
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
    """Replace scipy's splu by a wrapper that records (matrix, permc_spec, lu)."""
    calls = []
    splu = spla.splu

    def recording(A, permc_spec=None, **kwargs):
        lu = splu(A, permc_spec=permc_spec, **kwargs)
        calls.append((A, permc_spec, lu))
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    return calls


class TestOrderingReuse:
    @staticmethod
    def _solve(monkeypatch):
        exp = EXPERIMENTS[1]
        problem = HjbProblem(1e-3, exp.f, exp.g, exp.grad_g)
        calls = _record_splu(monkeypatch)
        res = solve(BfsSpace(init_uniform(3)), problem, QuadRule(5))
        assert res.converged and len(calls) >= 3
        return calls

    def test_one_ordering_per_solve(self, monkeypatch):
        specs = [spec for _, spec, _ in self._solve(monkeypatch)]
        assert specs[0] == "MMD_ATA"
        assert set(specs[1:]) == {"NATURAL"}

    def test_reused_ordering_matches_fresh_factorisation(self, monkeypatch):
        # a later policy matrix, factorised in the first matrix's column
        # order, gives bitwise the solution of its own MMD_ATA factorisation
        calls = self._solve(monkeypatch)
        perm_c = calls[0][2].perm_c
        q = np.argsort(perm_c)
        permuted = calls[-1][0]
        A = permuted[:, perm_c]  # undo the column permutation
        b = np.random.default_rng(0).standard_normal(A.shape[0])
        fresh = spla.splu(A, permc_spec="MMD_ATA")
        assert np.array_equal(fresh.perm_c, perm_c)
        reused = np.empty_like(b)
        reused[q] = spla.splu(permuted, permc_spec="NATURAL").solve(b)
        assert np.array_equal(reused, fresh.solve(b))
