"""Acceptance suite: executable versions of the nine delivery criteria.

The expensive criteria reuse cached benchmark runs (session-scoped fixtures),
and every criterion reports one PASS line on success.  Reference history
values quoted below come from recorded runs of these classical benchmarks;
row-level agreement is asserted within a factor of two since quadrature,
boundary-interpolation and contact-sampling choices are implementation
parameters.
"""
import subprocess
import sys

import numpy as np
import pytest
from oracles import boundary_g, dirichlet_solve, lp_envelope, sample_hessians, sample_values

from macert.bench import RunConfig, norms_vs_exact, rate_fit, run, steps
from macert.bfs import BfsSpace, QuadRule
from macert.envelope import boundary_residual, build_samples, contact_set, lower_hull
from macert.estimator import rhs0
from macert.geometry import init_uniform
from macert.hjb import eval_F_batch, xi_of_batch

# reference convergence history, radial benchmark, uniform meshes, eps 1e-3
REFERENCE_EX1_UNIFORM = {
    4: dict(Linferr=3.0223122619448928e-02, LHS=3.7568859087610873e-02,
            H1error=6.1538863598108944e-02, H2error=7.0045143011360078e-01),
    16: dict(Linferr=9.0910039917471049e-03, LHS=1.1213834584730704e-02,
             H1error=1.9547502410545658e-02, H2error=4.8900191518003278e-01),
    64: dict(Linferr=3.2141552851791735e-03, LHS=3.9646892389836527e-03,
             H1error=6.5649787320555151e-03, H2error=3.3596777272797307e-01),
    256: dict(Linferr=1.1363754989683881e-03, LHS=1.4017293230913380e-03,
              H1error=2.2466137258790406e-03, H2error=2.3476662405213319e-01),
    1024: dict(Linferr=4.0176941064739668e-04, LHS=4.9558615487295681e-04,
               H1error=7.8109614593203762e-04, H2error=1.6501562511815387e-01),
    4096: dict(Linferr=1.4204693737104851e-04, LHS=1.7521616538641725e-04,
               H1error=2.7382563076302536e-04, H2error=1.1633351389434252e-01),
    16384: dict(Linferr=5.0221176330924585e-05, LHS=6.1948269359119574e-05,
                H1error=9.6398999044750987e-05, H2error=8.2136368967077059e-02),
    65536: dict(Linferr=1.7755867171381064e-05, LHS=2.1902020673302142e-05,
                H1error=3.4009120090034724e-05, H2error=5.8035387288411032e-02),
}


def _report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE PASS [{criterion}]{': ' + detail if detail else ''}")


# -- cached benchmark runs ---------------------------------------------------


@pytest.fixture(scope="session")
def ex1_uniform():
    return run(RunConfig(experiment=1, mode="uniform", max_ndof=66000, initial_level=0))


@pytest.fixture(scope="session")
def ex1_adaptive():
    return run(RunConfig(experiment=1, mode="adaptive", max_ndof=20000, initial_level=0))


@pytest.fixture(scope="session")
def ex2_uniform():
    return run(
        RunConfig(experiment=2, mode="uniform", max_ndof=17000, initial_level=0, eps=0.1)
    )


@pytest.fixture(scope="session")
def ex2_adaptive_certificates():
    config = RunConfig(experiment=2, mode="adaptive", max_ndof=8000, initial_level=0, eps=0.1)
    return [step.certificate for step in steps(config)]


@pytest.fixture(scope="session")
def ex3_uniform():
    return run(RunConfig(experiment=3, mode="uniform", max_ndof=17000, initial_level=0))


@pytest.fixture(scope="session")
def ex3_adaptive_h0():
    return run(RunConfig(experiment=3, mode="adaptive", max_ndof=2500, initial_level=0))


@pytest.fixture(scope="session")
def ex3_adaptive_h5():
    return run(RunConfig(experiment=3, mode="adaptive", max_ndof=9000, initial_level=5))


# -- criterion 1: operator kernel properties ---------------------------------


def test_criterion_1_operator_kernel():
    rng = np.random.default_rng(2024)
    n = 10_000
    eps = rng.uniform(1e-4, 0.5, n)
    f1 = rng.uniform(-8, 8, n)
    f2 = rng.uniform(-8, 8, n)
    m11, m12, m22 = rng.uniform(-8, 8, (3, n))
    n11, n12, n22 = rng.uniform(-8, 8, (3, n))

    def F(e, f, a, b, c):
        return eval_F_batch(e, f, a, b, c)[0]

    base = F(eps, f1, m11, m12, m22)

    lo = np.minimum(f1, f2)
    hi = np.maximum(f1, f2)
    assert np.all(F(eps, lo, m11, m12, m22) <= F(eps, hi, m11, m12, m22) + 1e-12)

    # ellipticity: add a random PSD matrix (Gram of a random 2x2)
    g11, g12, g22 = rng.uniform(-2, 2, (3, n))
    p11 = g11**2 + g12**2
    p12 = g11 * g12 + g12 * g22
    p22 = g12**2 + g22**2
    assert np.all(
        base >= F(eps, f1, m11 + p11, m12 + p12, m22 + p22) - 1e-11
    )

    eps2 = rng.uniform(1e-4, 0.5, n)
    elo = np.minimum(eps, eps2)
    ehi = np.maximum(eps, eps2)
    assert np.all(F(elo, f1, m11, m12, m22) >= F(ehi, f1, m11, m12, m22) - 1e-12)

    # sub-additivity
    assert np.all(
        F(eps, f1 + f2, m11 + n11, m12 + n12, m22 + n22)
        <= base + F(eps, f2, n11, n12, n22) + 1e-11
    )

    # round trip and Lipschitz stability of the pointwise inverse
    xi_m = xi_of_batch(eps, m11, m12, m22)
    xi_n = xi_of_batch(eps, n11, n12, n22)
    rt = F(eps, xi_m, m11, m12, m22)
    frob_m = np.sqrt(m11**2 + 2 * m12**2 + m22**2)
    assert np.all(np.abs(rt) <= 1e-10 * (1.0 + frob_m))
    diff = np.sqrt((m11 - n11) ** 2 + 2 * (m12 - n12) ** 2 + (m22 - n22) ** 2)
    assert np.all(
        np.abs(xi_m - xi_n) <= diff / np.sqrt(eps * (1 - eps)) + 1e-10
    )

    # inactivity predicate: PD matrices with det M = (xi/2)^2 whose spectral
    # radius obeys |M|^2 <= xi^2 (1/eps - 1)/4 keep F(xi; M) = 0
    mu1 = rng.uniform(0.05, 4.0, n)
    mu2 = mu1 * rng.uniform(1.0, 40.0, n)
    theta = rng.uniform(0, np.pi, n)
    c, s = np.cos(theta), np.sin(theta)
    q11 = mu1 * s * s + mu2 * c * c
    q12 = (mu2 - mu1) * s * c
    q22 = mu1 * c * c + mu2 * s * s
    xi = 2.0 * np.sqrt(mu1 * mu2)
    applicable = mu2**2 <= xi**2 * (1.0 / eps - 1.0) / 4.0
    vals = F(eps, xi, q11, q12, q22)
    frob_q = np.sqrt(q11**2 + 2 * q12**2 + q22**2)
    bad = applicable & (np.abs(vals) > 1e-10 * (1.0 + frob_q))
    assert not np.any(bad)
    _report("1 operator kernel", f"{n} samples, zero violations")


# -- criterion 2: envelope oracle equivalence --------------------------------


def test_criterion_2_envelope_oracle():
    from test_envelope import grid_samples

    rng = np.random.default_rng(7)
    for size in range(2, 10):
        samples = grid_samples(size)
        values = rng.uniform(-1, 1, len(samples.points))
        hull = lower_hull(samples, values)
        queries = rng.uniform(0, 1, size=(50, 2))
        ours = hull.evaluate(queries)
        for q, v in zip(queries, ours):
            assert v == pytest.approx(
                lp_envelope(samples.points, values, q), abs=1e-10
            )
        # convexity spot checks
        x = rng.uniform(0, 1, (30, 2))
        y = rng.uniform(0, 1, (30, 2))
        lam = rng.uniform(0, 1, 30)
        vals = hull.evaluate(np.vstack([x, y, lam[:, None] * x + (1 - lam[:, None]) * y]))
        assert np.all(vals[60:] <= lam * vals[:30] + (1 - lam) * vals[30:60] + 1e-12)
    _report("2 envelope oracle", "grids 2x2..9x9 vs LP at 50 queries each")


# -- criterion 3: quadratic reproduction --------------------------------------


def test_criterion_3_quadratic_reproduction():
    u = lambda x, y: 0.5 * (x**2 + y**2)
    grad = lambda x, y: (1.0 * x, 1.0 * y)
    quad = QuadRule(5)
    mesh = init_uniform(2)  # 4x4
    space = BfsSpace(mesh)
    for eps in (0.2, 0.05):
        result = dirichlet_solve(space, eps, lambda x, y: 2.0 + 0 * x, u, grad)
        assert result.stop == "tol" and result.niter == 1
        from macert.bench import ExactSolution

        exact = ExactSolution(
            u, grad, lambda x, y: (np.ones_like(x), np.zeros_like(x), np.ones_like(x))
        )
        linf = norms_vs_exact(result.u_h, exact)[0]
        assert linf <= 1e-8
        samples = build_samples(mesh, quad, per_edge=128)
        v_h = result.u_h
        hull = lower_hull(samples, sample_values(v_h, samples))
        hessians = sample_hessians(v_h, samples)
        contact = contact_set(hull, hessians)
        mu = boundary_residual(hull, boundary_g(samples, u))
        cert = rhs0(np.full(samples.n_interior, 2.0), mu, samples, contact, hessians)
        assert cert.rhs0 <= 1e-6
    _report("3 quadratic reproduction", "Linf <= 1e-8, RHS0 <= 1e-6")


# -- criterion 4: guaranteed bound --------------------------------------------


@pytest.mark.slow
def test_criterion_4_guaranteed_bound(ex1_uniform, ex1_adaptive, ex3_uniform, ex3_adaptive_h0):
    checked = 0
    for rows in (ex1_uniform, ex1_adaptive, ex3_uniform, ex3_adaptive_h0):
        for r in rows:
            if r.ndof <= 20000:
                assert r.LHS <= r.eta2 + 1e-10, f"bound violated at ndof {r.ndof}"
                checked += 1
    assert checked >= 20
    _report("4 guaranteed bound", f"LHS <= RHS0 on {checked} steps")


# -- criterion 5: experiment 1 uniform rates and row values -------------------


@pytest.mark.slow
def test_criterion_5_ex1_uniform(ex1_uniform):
    rows = ex1_uniform
    assert rows[-1].ndof == 65536
    slopes = {c: rate_fit(rows, c, window=4) for c in ("Linferr", "H1error", "H2error")}
    assert abs(slopes["Linferr"] - (-0.8)) <= 0.15
    assert abs(slopes["H1error"] - (-0.75)) <= 0.15
    assert abs(slopes["H2error"] - (-0.25)) <= 0.15
    by_ndof = {r.ndof: r for r in rows}
    for ndof, ref in REFERENCE_EX1_UNIFORM.items():
        row = by_ndof[ndof]
        for col, expected in ref.items():
            got = row.column(col)
            assert expected / 2 <= got <= expected * 2, (
                f"{col} at ndof {ndof}: {got:.4e} vs reference {expected:.4e}"
            )
    _report(
        "5 exp1 uniform",
        "slopes " + ", ".join(f"{k} {v:+.3f}" for k, v in slopes.items()),
    )


# -- criterion 6: experiment 1 adaptive ---------------------------------------


@pytest.mark.slow
def test_criterion_6_ex1_adaptive(ex1_adaptive):
    rows = [r for r in ex1_adaptive if r.ndof >= 100]
    assert len(rows) >= 5
    linf_slope = rate_fit(rows, "Linferr")
    rhs0_slope = rate_fit(rows, "eta2")
    assert linf_slope <= -1.4
    assert abs(rhs0_slope - (-1.0)) <= 0.2
    _report("6 exp1 adaptive", f"Linf slope {linf_slope:+.3f}, RHS0 slope {rhs0_slope:+.3f}")


# -- criterion 7: experiment 2 ------------------------------------------------


@pytest.mark.slow
def test_criterion_7_ex2(ex2_uniform, ex2_adaptive_certificates):
    rows = ex2_uniform
    last4 = rows[-4:]
    stagnation = last4[-1].Linferr / last4[0].Linferr
    assert stagnation >= 0.8, f"Linferr still decaying: ratio {stagnation:.3f}"
    lhs_slope = rate_fit(rows, "LHS", window=4)
    assert abs(lhs_slope - (-0.5)) <= 0.15
    assert all(r.Linferr >= 0 and r.LHS >= 0 for r in rows)
    assert all(r.LHS < r.Linferr for r in rows[-4:])  # envelope beats u_h here
    sigmas = [c.sigma / max(c.rhs0, 1e-300) for c in ex2_adaptive_certificates]
    best = min(sigmas)
    assert best <= 1e-10, f"no step with vanishing data error (min sigma ratio {best:.2e})"
    _report(
        "7 exp2",
        f"stagnation ratio {stagnation:.2f}, LHS slope {lhs_slope:+.3f}, "
        f"min data share {best:.1e}",
    )


# -- criterion 8: experiment 3 ------------------------------------------------


@pytest.mark.slow
def test_criterion_8_ex3(ex3_uniform, ex3_adaptive_h0, ex3_adaptive_h5):
    rows = ex3_uniform
    eta2 = [r.eta2 for r in rows]
    assert all(b < a for a, b in zip(eta2, eta2[1:])), "RHS0 not monotone"
    slope = rate_fit(rows, "eta2", window=4)
    assert abs(slope) <= 0.2
    # adaptive from a fine initial mesh drops LHS much faster initially
    def initial_slope(rows, k=6):
        sub = rows[: k + 1]
        return rate_fit(sub, "LHS")

    steep = initial_slope(ex3_adaptive_h5)
    shallow = initial_slope(ex3_adaptive_h0)
    assert steep < shallow, f"h0=2^-5 slope {steep:.2f} not steeper than {shallow:.2f}"
    # and reaches a smaller certified bound within those first steps
    assert min(r.eta2 for r in ex3_adaptive_h5[:7]) < min(
        r.eta2 for r in ex3_adaptive_h0[:7]
    )
    _report(
        "8 exp3",
        f"uniform RHS0 slope {slope:+.3f}, initial LHS slopes "
        f"{steep:+.2f} (h0=2^-5) vs {shallow:+.2f} (h0=1)",
    )


# -- criterion 9: determinism --------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    def invoke(name):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "macert.cli",
            "--experiment", "3", "--mode", "adaptive", "--max-ndof", "600",
            "--initial-level", "1", "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    assert invoke("a.dat") == invoke("b.dat")
    _report("9 determinism", "byte-identical dat files on rerun")
