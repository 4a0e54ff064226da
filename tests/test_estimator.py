import numpy as np
import pytest

from oracles import (
    bisect_xi,
    boundary_edge_segment,
    boundary_g,
    envelope_gap,
    mark_reference,
    point_fields,
    point_values,
    rows_of,
    sample_hessians,
    sample_values,
    select_j_scalar,
    trace_error,
)

from macert import estimator
from macert.bench import EXPERIMENTS
from macert.bfs import BfsSpace, FeFunction, QuadRule
from macert.envelope import (
    SampleSet,
    boundary_residual,
    build_samples,
    contact_set,
    edge_values,
    lower_hull,
)
from macert.estimator import (
    _certificate,
    bound_value,
    contact_density,
    indicators_and_mark,
    max_boundary_trace_error,
    rhs0,
    rhs_eps,
    select_j,
)
from macert.geometry import SIDES, init_uniform, min_edge_length, refine


def quadratic_fe(mesh, m11=1.0, m12=0.0, m22=1.0):
    space = BfsSpace(mesh)
    xs, ys = mesh.vertex_coords[:, 0], mesh.vertex_coords[:, 1]
    coeffs = np.zeros(space.nfull)
    coeffs[0::4] = 0.5 * (m11 * xs**2 + 2 * m12 * xs * ys + m22 * ys**2)
    coeffs[1::4] = m11 * xs + m12 * ys
    coeffs[2::4] = m12 * xs + m22 * ys
    coeffs[3::4] = m12
    return FeFunction(space, coeffs)


def envelope_of(vh, samples):
    return lower_hull(samples, sample_values(vh, samples))


def rhs0_in_band(f, g, hull, contact, hessians, j):
    """``rhs0`` with the band fixed at ``j`` rather than chosen by ``select_j``."""
    samples = hull.samples
    fvals = f(samples.interior[:, 0], samples.interior[:, 1])
    residual = fvals - contact_density(hessians, contact)
    return _certificate(boundary_residual(hull, boundary_g(samples, g)), samples, residual, j)


def samples_at(dist, weights, mesh):
    """Samples, all filed in cell 0, at distances ``dist`` < 1/2 from the boundary."""
    interior = np.column_stack([dist, np.full(len(dist), 0.5)])
    return SampleSet(mesh, interior, np.zeros(len(dist), dtype=int), weights,
                     np.empty((0, 2)), np.empty((0, 2), dtype=int))


def graded_certificate_data(levels=10):
    """Sample distances and weighted squared residuals w * (f - f_h)**2 of
    ex1's ``rhs0`` for the nodal interpolant of its u on a mesh graded
    ``levels`` times into the corner (0, 0)."""
    mesh = init_uniform(0)
    for level in range(levels):
        mesh = refine(mesh, rows_of(mesh, [(level, 0, 0)]))
    exact = EXPERIMENTS[1].exact
    space = BfsSpace(mesh)
    xs, ys = mesh.vertex_coords.T
    coeffs = np.zeros(space.nfull)
    coeffs[0::4] = exact.u(xs, ys)
    coeffs[1::4], coeffs[2::4] = exact.grad(xs, ys)
    coeffs[3::4] = exact.hess(xs, ys)[1]
    vh = FeFunction(space, coeffs)
    samples = build_samples(mesh, QuadRule(5), per_edge=4, min_level=2)
    hull = envelope_of(vh, samples)
    H = sample_hessians(vh, samples)
    x, y = samples.interior.T
    residual = EXPERIMENTS[1].f(x, y) - contact_density(H, contact_set(hull, H))
    return samples.boundary_dist, samples.weights * residual**2


class TestDataErrorNorms:
    def test_exact_quadratic_zero_residual(self):
        mesh = init_uniform(2)
        vh = quadratic_fe(mesh)
        samples = build_samples(mesh, QuadRule(5), per_edge=4)
        hull = envelope_of(vh, samples)
        g = lambda x, y: 0.5 * (x**2 + y**2)
        H = sample_hessians(vh, samples)
        cert = rhs0_in_band(lambda x, y: 2.0 + 0 * x, g, hull, contact_set(hull, H), H, j=1)
        assert cert.data_err_global <= 1e-11
        assert cert.data_err_inner <= cert.data_err_global + 1e-15

    def test_constant_f_zero_vh(self):
        # v_h = 0: contact everywhere with zero density, so the residual is f
        mesh = init_uniform(3)
        space = BfsSpace(mesh)
        vh = FeFunction(space, np.zeros(space.nfull))
        samples = build_samples(mesh, QuadRule(5), per_edge=2)
        hull = envelope_of(vh, samples)
        H = sample_hessians(vh, samples)
        contact = contact_set(hull, H)
        assert contact.all()
        delta = min_edge_length(mesh)
        for j in (0, 1, 2):
            cert = rhs0_in_band(lambda x, y: 1.0 + 0 * x, lambda x, y: 0.0 * x, hull, contact,
                                H, j=j)
            glob, inner, jd = cert.data_err_global, cert.data_err_inner, j * delta
            assert glob == pytest.approx(1.0, abs=1e-13)
            # the band [jd, 1 - jd]^2 has area (1 - 2jd)^2
            assert inner == pytest.approx(1.0 - 2 * jd, abs=1e-12)
            # per-cell indicators add up to the two global squares
            expected = jd * np.sqrt(2) * glob**2 + (1 - 2 * jd) ** 2 * inner**2
            assert cert.per_element_eta.sum() == pytest.approx(expected, rel=1e-12)

    def test_residual_scaling_is_linear(self):
        # scaling f - f_h by lam scales both data terms by exactly lam
        rng = np.random.default_rng(2)
        n = 200
        residual = rng.uniform(-1, 1, n)
        weights = rng.uniform(0, 1, n)
        samples = samples_at(rng.uniform(0, 0.5, n), weights, init_uniform(4))
        lam = 3.7
        for j in (0, 2, 5):  # bands at 0, 1/8 and 5/16 from the boundary
            assert _certificate(0.0, samples, lam * residual, j).data_err_inner == pytest.approx(
                lam * _certificate(0.0, samples, residual, j).data_err_inner, rel=1e-12
            )


class TestSelectJ:
    def test_first_ascent(self):
        # residual concentrated near the boundary: shrinking the band pays
        # off until the global term's sqrt(jd) growth dominates
        rng = np.random.default_rng(0)
        n = 4000
        dist = rng.uniform(0, 0.5, n)
        residual = np.where(dist < 0.05, 10.0, 0.01)
        weights = np.full(n, 1.0 / n)
        samples = samples_at(dist, weights, init_uniform(5))
        delta = 1 / 32
        j = select_j(0.0, dist, weights * residual**2, delta)
        vals = [_certificate(0.0, samples, residual, k).rhs0 for k in range(j + 2)]
        assert all(vals[k + 1] <= vals[k] for k in range(j))  # descended to j
        assert vals[j + 1] > vals[j]  # first ascent right after

    def test_monotone_increasing_gives_zero(self):
        # residual mass away from the boundary: any band shrink only adds the
        # global term, so j = 0 is the first minimum
        n = 1000
        assert select_j(0.0, np.full(n, 0.49), np.full(n, 1.0 / n), 1 / 16) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_sweep(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        dist = rng.uniform(0, 0.5, n) ** rng.uniform(0.5, 4.0)
        residual = rng.standard_normal(n) * np.exp(-dist / rng.uniform(0.01, 0.5))
        wr2 = rng.uniform(0, 1e-3, n) * residual**2
        mu = float(rng.uniform(0, 1e-2))
        for delta in (1.0, 0.5, 1 / 4, 1 / 64, 2.0**-12):
            assert select_j(mu, dist, wr2, delta) == select_j_scalar(mu, dist, wr2, delta)

    @pytest.mark.parametrize(
        "j, delta",
        [(63, 2.0**-16), (64, 2.0**-16), (65, 2.0**-16), (511, 2.0**-22), (512, 2.0**-22)],
    )
    def test_first_ascent_far_out(self, j, delta):
        # one unit of residual in each of the first j bands: every shrink
        # drops more inner mass than the sqrt(jd) term adds, until band j
        dist = np.append((np.arange(j) + 0.5) * delta, 0.49)
        wr2 = np.append(np.ones(j), 1e-3)
        assert select_j(0.0, dist, wr2, delta) == select_j_scalar(0.0, dist, wr2, delta) == j

    def test_zero_residual_walks_to_the_last_band(self):
        n = 500
        dist = np.random.default_rng(7).uniform(0, 0.5, n)
        wr2, delta = np.zeros(n), 2.0**-16
        assert select_j(0.0, dist, wr2, delta) == select_j_scalar(0.0, dist, wr2, delta) == 2**15 - 1

    def test_candidates_bounded_by_the_sample_count(self, monkeypatch):
        # 2**21 bands, every bound mu: the last band is the answer, and the
        # bound is compared at no more than 2n + 1 of them, each with the next
        n = 500
        dist = np.random.default_rng(7).uniform(0, 0.5, n)
        compared = []

        def counting(mu, jd, inner, glob):
            assert np.array_equal(jd[1], jd[0] + 2.0**-22)
            compared.append(jd.shape[1])
            return bound_value(mu, jd, inner, glob)

        monkeypatch.setattr(estimator, "bound_value", counting)
        assert select_j(1e-3, dist, np.zeros(n), 2.0**-22) == 2**21 - 1
        assert sum(compared) <= 2 * n + 1

    def test_matches_scalar_sweep_on_graded_samples(self):
        # ex1's residual on a mesh graded into a corner leaves the band at a
        # few bands b only; the first rise falls inside a stretch of bands
        # with one inner norm, at its first band b, and on a step b - 1 -> b
        dist, wr2 = graded_certificate_data()
        kinds = set()
        for m in range(2, 11):
            delta = 2.0**-m
            leave = set((np.floor(dist / delta) + 1).astype(int).tolist())
            for scale in (0.01, 0.1, np.inf):
                w = wr2 * np.exp(-dist / scale)
                for mu in (0.0, 1e-3):
                    j = select_j(mu, dist, w, delta)
                    assert j == select_j_scalar(mu, dist, w, delta)
                    if 0 < j < 0.5 / delta - 1:
                        kinds.add(("start" if j in leave else "inside",
                                   "step" if j + 1 in leave else "stretch"))
        assert kinds == {("start", "stretch"), ("start", "step")}


class TestCertificates:
    def test_quadratic_certificate_small(self):
        mesh = init_uniform(2)
        vh = quadratic_fe(mesh)
        samples = build_samples(mesh, QuadRule(5), per_edge=128)
        hull = envelope_of(vh, samples)
        H = sample_hessians(vh, samples)
        contact = contact_set(hull, H)
        g = lambda x, y: 0.5 * (x**2 + y**2)
        mu = boundary_residual(hull, boundary_g(samples, g))
        cert = rhs0(np.full(samples.n_interior, 2.0), mu, samples, contact, H)
        assert cert.rhs0 <= 1e-6
        assert cert.rhs0 >= cert.mu >= 0.0
        assert cert.sigma == pytest.approx(cert.rhs0 - cert.mu, abs=1e-15)

    def test_certificate_formula(self):
        mesh = init_uniform(3)
        space = BfsSpace(mesh)
        vh = FeFunction(space, np.zeros(space.nfull))
        samples = build_samples(mesh, QuadRule(3), per_edge=1)
        hull = envelope_of(vh, samples)
        H = sample_hessians(vh, samples)
        contact = contact_set(hull, H)
        mu = boundary_residual(hull, boundary_g(samples, lambda x, y: 0.0 * x))
        cert = rhs0(np.full(samples.n_interior, 1.0), mu, samples, contact, H)
        jd = cert.j * cert.delta
        expected = (
            cert.mu
            + 0.5 * (1 - 2 * jd) * cert.data_err_inner
            + 0.5 * 2**0.25 * np.sqrt(jd) * cert.data_err_global
        )
        assert cert.rhs0 == pytest.approx(expected, rel=1e-14)
        # eta consistency: per-cell sums reproduce the two global squares
        eta_sum = cert.per_element_eta.sum()
        expected_eta = (
            jd * np.sqrt(2) * cert.data_err_global**2
            + (1 - 2 * jd) ** 2 * cert.data_err_inner**2
        )
        assert eta_sum == pytest.approx(expected_eta, rel=1e-12)

    def test_rhs_eps_constant_hessian(self):
        mesh = init_uniform(2)
        vh = quadratic_fe(mesh)
        samples = build_samples(mesh, QuadRule(4), per_edge=4)
        H = sample_hessians(vh, samples)
        f_h = contact_density(H, contact_set(envelope_of(vh, samples), H))
        assert np.allclose(f_h, 2.0, atol=1e-10)
        g = lambda x, y: 0.5 * (x**2 + y**2)
        boundary_err = trace_error(vh, g)[1]
        cert = rhs_eps(np.full(samples.n_interior, 2.0), 0.1, samples, H, boundary_err)
        # xi(I) = 2 = f everywhere and the trace is exact
        assert cert.rhs0 <= 1e-9

    def test_rhs_eps_matches_bisection_oracle(self):
        mesh = init_uniform(1)
        space = BfsSpace(mesh)
        rng = np.random.default_rng(4)
        vh = FeFunction(space, rng.standard_normal(space.nfull))
        samples = build_samples(mesh, QuadRule(3), per_edge=4)
        H = point_fields(vh, samples.interior, ("Nxx", "Nxy", "Nyy"))
        eps = 0.07
        from macert.hjb import xi_of_batch

        f_h = xi_of_batch(eps, H[:, 0], H[:, 1], H[:, 2])
        for k in range(0, len(f_h), 5):
            assert f_h[k] == pytest.approx(bisect_xi(eps, H[k]), abs=1e-9)
        boundary_err = trace_error(vh, lambda x, y: 0.0 * x)[1]
        cert = rhs_eps(np.zeros(samples.n_interior), eps, samples, tuple(H.T), boundary_err)
        assert cert.rhs0 >= 0.0

    def test_guaranteed_bound_on_quadratic(self):
        # known exact solution: certified bound dominates the sampled error
        mesh = init_uniform(2)
        vh = quadratic_fe(mesh)
        samples = build_samples(mesh, QuadRule(5), per_edge=16)
        hull = envelope_of(vh, samples)
        H = sample_hessians(vh, samples)
        contact = contact_set(hull, H)
        g = lambda x, y: 0.5 * (x**2 + y**2)
        mu = boundary_residual(hull, boundary_g(samples, g))
        cert = rhs0(np.full(samples.n_interior, 2.0), mu, samples, contact, H)
        pts = np.random.default_rng(1).uniform(0, 1, size=(500, 2))
        lhs = float(np.max(np.abs(g(pts[:, 0], pts[:, 1]) - hull.evaluate(pts))))
        # the certified bound controls the true envelope; the computed hull
        # of the nodal interpolant sits above it by at most the envelope gap
        gap = envelope_gap(vh, samples)
        assert lhs <= cert.rhs0 + gap + 1e-10


class TestMarking:
    def _certificate(self, eta, sigma=0.0, mu=0.0):
        from macert.estimator import ErrorCertificate

        return ErrorCertificate(
            mu=mu, j=0, delta=0.25, data_err_inner=0.0, data_err_global=0.0,
            rhs0=mu + sigma, per_element_eta=np.asarray(eta, dtype=float), sigma=sigma,
        )

    def test_bulk_prefix(self):
        mesh = init_uniform(1)
        cert = self._certificate([4.0, 3.0, 2.0, 1.0], sigma=100.0)
        marked = indicators_and_mark(cert, np.zeros(len(mesh.boundary_edges)), mesh)
        assert marked.tolist() == [0, 1]

    def test_boundary_branch_threshold(self):
        mesh = init_uniform(1)
        cert = self._certificate(np.ones(len(mesh)), sigma=100.0)
        edges = np.full(len(mesh.boundary_edges), 20.0)
        # sigma/10 = 10 < 20: boundary branch fires
        marked = indicators_and_mark(cert, edges, mesh)
        assert len(marked) >= 1
        # one fifth of 8 edges, rounded up = 2 edges; all tie, so the first
        # two by owner win, both of cell 0
        assert mesh.boundary_edges[:2, 0].tolist() == [0, 0]
        assert marked.tolist() == [0]

    def test_one_fifth_of_twenty_edges(self):
        mesh = init_uniform(2)  # 16 boundary edges... use level 2: 4*4 = 16
        edges = np.arange(len(mesh.boundary_edges), dtype=float)
        cert = self._certificate(np.zeros(len(mesh)), sigma=0.0)
        marked = indicators_and_mark(cert, edges, mesh)
        k = int(np.ceil(len(edges) / 5))
        assert marked.tolist() == sorted(set(mesh.boundary_edges[-k:, 0].tolist()))

    def test_ties_broken_by_cell_id(self):
        mesh = init_uniform(1)
        cert = self._certificate(np.ones(len(mesh)), sigma=1000.0)
        marked = indicators_and_mark(cert, np.zeros(len(mesh.boundary_edges)), mesh)
        assert marked.tolist() == [0, 1]

    def test_zero_everything_marks_nothing(self):
        mesh = init_uniform(1)
        cert = self._certificate(np.zeros(len(mesh)), sigma=0.0)
        marked = indicators_and_mark(cert, np.zeros(len(mesh.boundary_edges)), mesh)
        assert marked.dtype == np.int64 and marked.size == 0

    @pytest.mark.parametrize("sigma", [0.0, 1e3], ids=["boundary", "doerfler"])
    def test_matches_reference_with_ties(self, sigma):
        # values in {0, 0.1, 0.2, 0.3} tie exactly, and half the total often
        # falls on a prefix sum, where only the summation order decides;
        # hanging nodes and three levels
        mesh = init_uniform(1)
        for cid in ((1, 0, 0), (2, 0, 0), (1, 1, 1)):
            mesh = refine(mesh, rows_of(mesh, [cid]))
        assert len(mesh.hanging) and len(set(mesh.levels.tolist())) == 3
        edge_keys = [(ci, SIDES[side]) for ci, side in mesh.boundary_edges.tolist()]
        rng = np.random.default_rng(11)
        for _ in range(400):
            eta = rng.integers(0, 4, len(mesh)) / 10
            errs = rng.integers(1, 4, len(edge_keys)) / 10
            marked = indicators_and_mark(self._certificate(eta, sigma=sigma), errs, mesh)
            expected = mark_reference(
                sigma, dict(zip(mesh.cell_ids, eta.tolist())),
                dict(zip(edge_keys, errs.tolist())), mesh,
            )
            assert marked.dtype == np.int64 and np.all(np.diff(marked) > 0)
            assert {mesh.cell_ids[r] for r in marked.tolist()} == expected


def test_boundary_trace_error_per_edge():
    mesh = init_uniform(1)
    vh = quadratic_fe(mesh)
    errs, worst = trace_error(vh, lambda x, y: 0.5 * (x**2 + y**2))
    assert worst <= 1e-12  # quadratic trace is in the space
    errs, worst = trace_error(vh, lambda x, y: 0.0 * x)
    assert worst == pytest.approx(1.0, abs=1e-12)  # |g - v_h| peaks at (1,1)


def test_boundary_trace_error_matches_pointwise_evaluation():
    # edges of several levels on every side, evaluated one group at a time
    mesh = init_uniform(1)
    for cid in ((1, 0, 0), (2, 0, 0), (1, 1, 1)):
        mesh = refine(mesh, rows_of(mesh, [cid]))
    space = BfsSpace(mesh)
    vh = FeFunction(space, np.random.default_rng(4).standard_normal(space.nfull))
    g = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
    t = np.linspace(0.0, 1.0, 9)
    vals, pts = edge_values(vh, t)
    errs, worst = max_boundary_trace_error(vals, g(pts[..., 0], pts[..., 1]))
    assert errs.shape == (len(mesh.boundary_edges),)
    assert len(set(mesh.levels[mesh.boundary_edges[:, 0]].tolist())) >= 3
    scale = 1.0 + float(np.max(np.abs(vh.coeffs)))
    for (ci, side), err in zip(mesh.boundary_edges.tolist(), errs.tolist()):
        (xa, ya), (xb, yb) = boundary_edge_segment(mesh, ci, SIDES[side])
        pts = np.column_stack([xa + (xb - xa) * t, ya + (yb - ya) * t])
        expected = np.max(np.abs(g(pts[:, 0], pts[:, 1]) - point_values(vh, pts)))
        assert err == pytest.approx(expected, abs=1e-12 * scale)
    assert worst == errs.max()
