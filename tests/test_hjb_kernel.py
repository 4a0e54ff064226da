import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import F, bisect_xi, eigenvalues, grid_search_F

from macert.hjb import eval_F_batch, xi_of_batch

# a symmetric 2x2 matrix M is the tuple (m11, m12, m22)


def rotate(mu1, mu2, theta):
    c, s = np.cos(theta), np.sin(theta)
    return (mu1 * s * s + mu2 * c * c, (mu2 - mu1) * s * c, mu1 * c * c + mu2 * s * s)


def frobenius(M):
    return float(np.sqrt(M[0] ** 2 + 2 * M[1] ** 2 + M[2] ** 2))


sym_mats = st.tuples(st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8))
eps_vals = st.floats(1e-4, 0.5)
f_vals = st.floats(-8, 8)


class TestEvalF:
    def test_eps_half_forces_identity_policy(self):
        value, t, a11, a12, a22 = eval_F_batch(0.5, 3.0, 2.0, 0.0, 4.0)
        assert value == pytest.approx(-1.5, abs=1e-14)
        assert t == pytest.approx(0.5)
        assert a11 == pytest.approx(0.5, abs=1e-14)
        assert a22 == pytest.approx(0.5, abs=1e-14)
        assert a12 == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("eps", [0.5, 0.3, 0.1, 1e-3])
    def test_zero_f_identity_matrix(self, eps):
        assert F(eps, 0.0, (1.0, 0.0, 1.0)) == pytest.approx(-1.0, abs=1e-14)

    def test_clipped_stationary_point(self):
        value, t, *_ = eval_F_batch(0.1, 2.0, 4.0, 0.0, 1.0)
        assert t == pytest.approx(0.9)
        assert value == pytest.approx(-0.7, abs=1e-12)

    def test_against_grid_search(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            eps = float(rng.uniform(1e-3, 0.5))
            fval = float(rng.uniform(-6, 6))
            M = tuple(rng.uniform(-5, 5, size=3))
            value, t, a11, a12, a22 = eval_F_batch(eps, fval, *M)
            assert value == pytest.approx(grid_search_F(eps, fval, M), abs=1e-10)
            # policy realises its own value
            assert eps - 1e-15 <= t <= 1 - eps + 1e-15
            realised = -(a11 * M[0] + 2 * a12 * M[1] + a22 * M[2])
            realised += fval * np.sqrt(max(a11 * a22 - a12**2, 0.0))
            assert realised == pytest.approx(value, abs=1e-11)

    def test_policy_in_control_set(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            eps = float(rng.uniform(1e-4, 0.5))
            _, _, *A = eval_F_batch(eps, float(rng.uniform(-5, 5)), *rng.uniform(-5, 5, 3))
            a1, a2 = eigenvalues(A)
            assert a1 >= eps - 1e-12
            assert a1 + a2 == pytest.approx(1.0, abs=1e-12)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            eval_F_batch(0.0, 1.0, 1, 0, 1)
        with pytest.raises(ValueError):
            eval_F_batch(0.6, 1.0, 1, 0, 1)


class TestXiOf:
    def test_identity(self):
        for eps in (0.5, 0.25, 0.1, 1e-3):
            assert xi_of_batch(eps, 1, 0, 1) == pytest.approx(2.0, abs=1e-13)

    def test_inactive_regularisation(self):
        M = (2.0, 0.0, 0.5)
        for eps in (0.2, 0.1, 1e-3):
            assert xi_of_batch(eps, *M) == pytest.approx(2.0, abs=1e-12)
        assert xi_of_batch(0.2, *M) == pytest.approx(bisect_xi(0.2, M), abs=1e-10)

    def test_indefinite_matrix(self):
        assert xi_of_batch(0.1, 1.0, 0.0, -1.0) == pytest.approx(-8 / 3, abs=1e-12)

    def test_against_bisection(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            eps = float(rng.uniform(1e-3, 0.5))
            M = tuple(rng.uniform(-5, 5, size=3))
            assert xi_of_batch(eps, *M) == pytest.approx(bisect_xi(eps, M), abs=1e-9)


# -- operator properties -------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(eps_vals, f_vals, f_vals, sym_mats)
def test_monotone_in_f(eps, f1, f2, M):
    lo, hi = min(f1, f2), max(f1, f2)
    assert F(eps, lo, M) <= F(eps, hi, M) + 1e-12


@settings(max_examples=150, deadline=None)
@given(eps_vals, f_vals, sym_mats, st.floats(0, 4), st.floats(-2, 2), st.floats(0, 4))
def test_elliptic_in_M(eps, fval, M, p, q, r):
    # N = M + PSD perturbation built from a Gram matrix
    gram = np.array([[p, q], [q, r]]) @ np.array([[p, q], [q, r]]).T
    N = (M[0] + gram[0, 0], M[1] + gram[0, 1], M[2] + gram[1, 1])
    assert F(eps, fval, M) >= F(eps, fval, N) - 1e-11


@settings(max_examples=150, deadline=None)
@given(eps_vals, eps_vals, f_vals, sym_mats)
def test_monotone_in_eps(e1, e2, fval, M):
    lo, hi = min(e1, e2), max(e1, e2)
    assert F(lo, fval, M) >= F(hi, fval, M) - 1e-12


@settings(max_examples=150, deadline=None)
@given(eps_vals, f_vals, f_vals, sym_mats, sym_mats)
def test_subadditive(eps, f1, f2, M, N):
    total = F(eps, f1 + f2, tuple(m + n for m, n in zip(M, N)))
    assert total <= F(eps, f1, M) + F(eps, f2, N) + 1e-11


@settings(max_examples=150, deadline=None)
@given(eps_vals, sym_mats)
def test_round_trip(eps, M):
    xi = xi_of_batch(eps, *M)
    assert abs(F(eps, xi, M)) <= 1e-10 * (1.0 + frobenius(M))


@settings(max_examples=150, deadline=None)
@given(eps_vals, sym_mats, sym_mats)
def test_xi_lipschitz(eps, M, N):
    diff = tuple(m - n for m, n in zip(M, N))
    bound = frobenius(diff) / np.sqrt(eps * (1.0 - eps)) + 1e-10
    assert abs(xi_of_batch(eps, *M) - xi_of_batch(eps, *N)) <= bound


@settings(max_examples=150, deadline=None)
@given(
    st.floats(1e-4, 0.49),
    st.floats(0.05, 4.0),
    st.floats(1.0, 50.0),
    st.floats(0, np.pi),
)
def test_inactivity_predicate(eps, mu1, ratio, theta):
    # positive definite M with det M = (xi/2)^2; when the spectral radius
    # obeys |M|^2 <= xi^2 (1/eps - 1) / 4 the constrained and unconstrained
    # maxima coincide, i.e. F(xi; M) = 0
    mu2 = mu1 * ratio
    M = rotate(mu1, mu2, theta)
    xi = 2.0 * np.sqrt(mu1 * mu2)
    if mu2**2 <= xi**2 * (1.0 / eps - 1.0) / 4.0:
        assert abs(F(eps, xi, M)) <= 1e-10 * (1.0 + frobenius(M))
