"""Batched HJB operator kernels for n = 2 and the Galerkin solver.

The operator is

    F_eps(f; M) = sup { -A:M + f * sqrt(det A) : A symmetric PSD,
                        tr A = 1, eigenvalues of A >= eps }.

Writing mu1 <= mu2 for the eigenvalues of M and putting the weight
t in [eps, 1-eps] on the mu1 eigendirection, the inner problem is the scalar
maximisation of g(t) = -(t*mu1 + (1-t)*mu2) + f*sqrt(t(1-t)).  For f > 0 the
function g is concave with stationary point t = 1/2 + d / (2*sqrt(f^2+d^2)),
d = mu2 - mu1; for f <= 0 the sqrt term is equal at both endpoints, so the
maximum sits at t = 1-eps (or anywhere when d = 0; ties break toward eps).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bfs import BfsSpace, FeFunction, QuadRule, Reduction, interpolate_boundary


@dataclass(frozen=True)
class HjbProblem:
    """Regularised problem data: F_eps(f; x, D^2 u) = 0, u = g on the boundary."""

    eps: float
    f: object  # f(x, y) -> array
    g: object  # g(x, y) -> array
    grad_g: object  # gradient of an extension of g, used tangentially

    def __post_init__(self):
        _check_eps(self.eps)


def _check_eps(eps):
    eps = np.asarray(eps)
    if not (np.all(eps > 0.0) and np.all(eps <= 0.5)):
        raise ValueError("eps must lie in (0, 1/2] for n = 2")


def _eig_batch(m11, m12, m22):
    half = 0.5 * (m11 + m22)
    rad = np.hypot(0.5 * (m11 - m22), m12)
    phi = 0.5 * np.arctan2(2.0 * m12, m11 - m22)
    return half - rad, half + rad, phi


def optimal_weight(eps, fval, mu1, mu2):
    """Argmax weight t on the mu1 direction (arrays welcome)."""
    d = mu2 - mu1
    denom = np.hypot(fval, d)
    interior = 0.5 + d / np.where(denom > 0.0, 2.0 * denom, 1.0)
    return np.where(
        fval > 0.0,
        np.clip(interior, eps, 1.0 - eps),
        np.where(d > 0.0, 1.0 - eps, eps),
    )


def eval_F_batch(eps, fval, m11, m12, m22):
    """Vectorised operator value and policy parameters (eps may be an array).

    Returns (value, t, a11, a12, a22).
    """
    _check_eps(eps)
    fval = np.asarray(fval, dtype=float)
    mu1, mu2, phi = _eig_batch(
        np.asarray(m11, dtype=float),
        np.asarray(m12, dtype=float),
        np.asarray(m22, dtype=float),
    )
    t = optimal_weight(eps, fval, mu1, mu2)
    value = -(t * mu1 + (1.0 - t) * mu2) + fval * np.sqrt(t * (1.0 - t))
    c, s = np.cos(phi), np.sin(phi)  # eigenvector of mu2 is (c, s)
    a11 = t * s * s + (1.0 - t) * c * c
    a22 = t * c * c + (1.0 - t) * s * s
    a12 = (1.0 - 2.0 * t) * c * s
    return value, t, a11, a12, a22


def xi_of_batch(eps, m11, m12, m22):
    """Unique root xi of xi -> F_eps(xi; M), vectorised.

    If M is positive definite and the optimal weight mu2/(mu1+mu2) stays in
    [eps, 1-eps] (equivalently eps*mu2 <= (1-eps)*mu1), the regularisation is
    inactive and xi = 2 sqrt(det M).  Otherwise the argmax is pinned at the
    endpoint t = 1-eps and xi = ((1-eps)*mu1 + eps*mu2) / sqrt(eps(1-eps)).
    """
    _check_eps(eps)
    mu1, mu2, _ = _eig_batch(
        np.asarray(m11, dtype=float),
        np.asarray(m12, dtype=float),
        np.asarray(m22, dtype=float),
    )
    inactive = (mu1 > 0.0) & (eps * mu2 <= (1.0 - eps) * mu1)
    with np.errstate(invalid="ignore"):
        xi_in = 2.0 * np.sqrt(np.maximum(mu1 * mu2, 0.0))
    xi_clip = ((1.0 - eps) * mu1 + eps * mu2) / np.sqrt(eps * (1.0 - eps))
    return np.where(inactive, xi_in, xi_clip)


# -- Galerkin solver ----------------------------------------------------------


@dataclass
class SolveResult:
    """Best iterate of policy iteration and why the iteration stopped.

    ``stop`` is "tol" (residual below tolerance), "policy" (policy fixed
    point), "floor" (residual down to the residual of its own frozen-policy
    linear system) or "max_iter".  Only "max_iter" counts as not converged.
    ``backward_error`` is the largest ||K_r u - F_r|| / ||F_r|| over its
    linear solves.  ``history`` holds one (residual, linear residual) pair
    per full policy step, before any damping.
    """

    u_h: FeFunction
    niter: int
    residual: float
    stop: str
    backward_error: float
    history: list[tuple[float, float]]

    @property
    def converged(self) -> bool:
        return self.stop != "max_iter"


class SolverError(RuntimeError):
    """Linearised system is singular or iterates became non-finite."""


class _Assembler:
    """Per-mesh workspace shared by every policy solve on one mesh.

    Holds the quadrature points and weights; per level, Lap(phi_i) at the
    quadrature points and the table M[m*nq + q, 16*i + j] = Lap(phi_i)(x_q) *
    H_m(phi_j)(x_q) for H = (Nxx, 2 Nxy, Nyy); and the CSR pattern of the
    full matrix with the slot of each of the nc*256 element-block entries.
    """

    def __init__(self, space: BfsSpace, quad: QuadRule):
        self.space = space
        ref = quad.ref_points
        cells = np.arange(len(space.mesh.cell_ids))
        self.points = space.cell_points(cells, ref)  # (nc, nq, 2)
        areas = space.mesh.cell_sizes() ** 2
        self.weights = areas[:, None] * quad.ref_weights[None, :]  # (nc, nq)
        # (cell slice, Lap phi (nq, 16), M (3 nq, 256)) per level; sorted ids
        # keep the cells of a level contiguous
        self.groups = []
        for level, group in space.level_groups():
            tab = space.tabulation(level, ref)
            lap = tab["Nxx"] + tab["Nyy"]
            table = np.vstack([
                (lap[:, :, None] * H[:, None, :]).reshape(len(lap), 256)
                for H in (tab["Nxx"], 2.0 * tab["Nxy"], tab["Nyy"])
            ])
            self.groups.append((slice(group[0], group[-1] + 1), lap, table))
        # Block entry (c, i, j) sits at row dofs[c, i] and column dofs[c, j],
        # with dofs = 4 * vertex + kind.  The pattern is that of the vertex
        # pairs sharing a cell, each expanded to 4 x 4: row 4v + k holds the
        # columns 4w + l of every neighbour w of v in ascending order.
        corners = space.mesh.cell_corners
        nc, nv = len(corners), space.nvertices
        pairs = (corners[:, :, None] * nv + corners[:, None, :]).ravel()
        unique, pair_slot = np.unique(pairs, return_inverse=True)
        degree = np.bincount(unique // nv, minlength=nv)  # neighbours per vertex
        first = (np.cumsum(degree) - degree)[corners][:, :, None]  # (nc, a, 1)
        base = 16 * first + 4 * (pair_slot.reshape(nc, 4, 4) - first)  # (nc, a, b)
        row_len = 4 * degree[corners]  # (nc, a)
        k = np.arange(4)
        self.slot = (
            base[:, :, None, :, None]
            + row_len[:, :, None, None, None] * k[:, None, None]
            + k
        ).ravel()  # (c, a, k, b, l) order, i = 4a + k and j = 4b + l
        self.indices = np.empty(16 * len(unique), dtype=np.int32)
        self.indices[self.slot] = np.broadcast_to(
            space.cell_dofs[:, None, :], (nc, 16, 16)
        ).ravel()
        row_nnz = np.repeat(4 * degree, 4)
        self.indptr = np.concatenate([[0], np.cumsum(row_nnz)]).astype(np.int32)

    def load(self, vals):
        """Assemble r_i = sum_q w * vals(x_q) * Lap(phi_i)(x_q) over all cells."""
        nfull = self.space.nfull
        r = np.zeros(nfull)
        wV = self.weights * vals
        for s, lap, _ in self.groups:
            contrib = wV[s] @ lap  # (ncells, 16)
            r += np.bincount(
                self.space.cell_dofs[s].ravel(), weights=contrib.ravel(), minlength=nfull
            )
        return r

    def linear_system(self, a11, a12, a22, rhs_vals):
        """Matrix of (A:D^2 w, Lap phi) and load vector of (rhs, Lap phi).

        Each level's element blocks are one product [w a11 | w a12 | w a22]
        @ M, summed into the fixed CSR pattern by one ``bincount``.
        """
        nfull = self.space.nfull
        blocks = np.empty((self.weights.shape[0], 256))
        for s, _, table in self.groups:
            w = self.weights[s]
            np.matmul(np.hstack([w * a11[s], w * a12[s], w * a22[s]]), table, out=blocks[s])
        data = np.bincount(self.slot, weights=blocks.ravel(), minlength=len(self.indices))
        K = sp.csr_matrix((data, self.indices, self.indptr), shape=(nfull, nfull))
        return K, self.load(rhs_vals)


def _policy_fields(eps, fvals, m11, m12, m22):
    value, t, a11, a12, a22 = eval_F_batch(eps, fvals, m11, m12, m22)
    rhs = fvals * np.sqrt(t * (1.0 - t))  # f * sqrt(det A)
    return value, a11, a12, a22, rhs


def solve(
    space: BfsSpace,
    problem: HjbProblem,
    quad: QuadRule,
    max_iter: int = 50,
    reduction: Reduction | None = None,
    initial: np.ndarray | None = None,
) -> SolveResult:
    """Policy iteration for the discrete problem (F_eps(f; D^2 u_h), Lap v_h) = 0.

    Starting from the eps = 1/2 case (a Poisson problem, A = I/2), each sweep
    freezes the pointwise argmax policy and solves the resulting linear,
    nonsymmetric system K_r u = F_r by sparse LU (SuperLU) with diagonal
    pivots in a minimum-degree order of K_r + K_r^T.  No row interchange is
    needed: A has eigenvalues in [eps, 1-eps] and unit trace, and the
    Miranda-Talenti identity holds under the Gauss rule, so v^T K_r v >=
    eps v^T B_r v with B_r = ((Lap w, Lap phi)) SPD, and no pivot vanishes.
    Iteration stops when the Euclidean norm of the reduced residual falls
    below 1e-11 (1 + ||f||_L2) ("tol"), when the policy reaches a fixed
    point ("policy"), when a full step's residual is at most twice the
    residual r_lin of the frozen-policy linear system it solved ("floor":
    the nonlinear residual has reached the rounding floor of the linear
    solve and further steps cannot lower it), or after ``max_iter`` linear
    solves ("max_iter": not converged, best iterate returned);
    ``SolveResult.stop`` records which.  r_lin = ||P^T (rhs - A:D^2 u_h,
    Lap phi)|| is taken through the same quadrature as the residual.  A
    full step that overshoots the previous residual, without reaching the
    floor, is damped.

    ``initial`` (a full coefficient vector, e.g. a solution prolongated from
    a coarser mesh) replaces the Poisson warm start: only its policy is used,
    so it need not satisfy the boundary conditions.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    eps = problem.eps
    asm = _Assembler(space, quad)
    pts = asm.points.reshape(-1, 2)
    fvals = np.asarray(problem.f(pts[:, 0], pts[:, 1]), dtype=float)
    if fvals.ndim == 0:
        fvals = np.full(pts.shape[0], float(fvals))
    fvals = fvals.reshape(asm.weights.shape)
    if not np.all(np.isfinite(fvals)):
        raise SolverError("right-hand side not finite at quadrature points")
    if reduction is None:
        fixed = interpolate_boundary(space, problem.g, problem.grad_g)
        reduction = space.reduction(fixed)
    red = reduction
    cells = np.arange(len(space.mesh.cell_ids))
    hess = ("Nxx", "Nxy", "Nyy")
    ref = quad.ref_points
    fnorm = float(np.sqrt(np.sum(asm.weights * fvals**2)))
    tol = 1e-11 * (1.0 + fnorm)
    berrs = []  # ||Kr u - Fr|| / ||Fr|| of every linear solve

    def solve_linear(a11, a12, a22, rhs):
        K, load = asm.linear_system(a11, a12, a22, rhs)
        Kr = red.reduce_matrix(K)
        Fr = red.reduce_vector(load - K @ red.offset)
        try:
            u_red = spla.splu(
                Kr, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            ).solve(Fr)
        except RuntimeError as exc:  # singular factorisation
            raise SolverError(f"linear solve failed: {exc}") from exc
        if not np.all(np.isfinite(u_red)):
            raise SolverError("linear solve produced non-finite values")
        berrs.append(np.linalg.norm(Kr @ u_red - Fr) / (np.linalg.norm(Fr) or 1.0))
        return red.full_vector(u_red)

    def reduced_norm(vals):
        return float(np.linalg.norm(red.reduce_vector(asm.load(vals))))

    def residual_of(coeffs, solved_policy=None):
        """Residual, linear residual and policy at ``coeffs``.

        The linear residual is that of the frozen-policy system ``coeffs``
        solves, ``solved_policy``; it is None without one.
        """
        H = FeFunction(space, coeffs).on_cells(cells, ref, hess)
        hxx, hxy, hyy = (H[k] for k in hess)
        value, a11, a12, a22, rhs = _policy_fields(eps, fvals, hxx, hxy, hyy)
        r_lin = None
        if solved_policy is not None:
            p11, p12, p22, p_rhs = solved_policy
            r_lin = reduced_norm(p_rhs - (p11 * hxx + 2.0 * p12 * hxy + p22 * hyy))
        return reduced_norm(value), r_lin, (a11, a12, a22, rhs)

    if initial is None:
        ones = np.ones_like(fvals)
        policy = (0.5 * ones, 0.0 * ones, 0.5 * ones, 0.5 * fvals)
    else:
        _, _, policy = residual_of(np.asarray(initial, dtype=float))
    history = []  # (residual, linear residual) of every full policy step
    niter, stop = 0, None
    coeffs, res = None, np.inf
    best_res, best_coeffs = np.inf, None
    while stop is None and niter < max_iter:
        new_coeffs = solve_linear(*policy)
        niter += 1
        new_res, r_lin, new_policy = residual_of(new_coeffs, policy)
        history.append((new_res, r_lin))
        # the residual has reached what the linear solve itself leaves
        at_floor = new_res <= 2.0 * r_lin
        if new_res > res and not at_floor:
            # damped fallback when the full policy step overshoots
            for alpha in (0.5, 0.25, 0.125):
                trial = coeffs + alpha * (new_coeffs - coeffs)
                trial_res, _, trial_policy = residual_of(trial)
                if trial_res < new_res:
                    new_coeffs, new_res, new_policy = trial, trial_res, trial_policy
                    break
        policy_fixed = niter > 1 and _policy_close(policy, new_policy)
        coeffs, res, policy = new_coeffs, new_res, new_policy
        if best_coeffs is None or res < best_res:
            best_res, best_coeffs = res, coeffs
        if res <= tol:
            stop = "tol"
        elif policy_fixed:
            stop = "policy"
        elif at_floor:
            stop = "floor"

    best = FeFunction(space, best_coeffs)
    return SolveResult(best, niter, best_res, stop or "max_iter", max(berrs), history)


def _policy_close(p, q) -> bool:
    scale = 1.0 + max(float(np.max(np.abs(a))) for a in q[:3])
    return all(
        float(np.max(np.abs(a - b))) <= 1e-12 * scale for a, b in zip(p[:3], q[:3])
    )
