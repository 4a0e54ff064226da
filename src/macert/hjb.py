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

from .bfs import BfsSpace, FeFunction, QuadRule, Reduction, level_scale
from .geometry import check_integer

# The Gauss rule of the solve: 3 or more points per coordinate keep the
# Miranda-Talenti identity exact, so the diagonal-pivot LU needs no row interchanges.
QUAD = QuadRule(5)


@dataclass(frozen=True)
class HjbProblem:
    """Regularised problem data: F_eps(f; x, D^2 u) = 0; u = g enters by the reduction."""

    eps: float
    f: object  # f(x, y) -> array

    def __post_init__(self):
        check_eps(self.eps, scalar=True)


def check_eps(eps, scalar=False):
    """Raise ``ValueError`` unless every eps lies in (0, 1/2]; with
    ``scalar``, also unless eps is one real number."""
    if scalar and not isinstance(eps, (int, float, np.integer, np.floating)):
        raise ValueError(f"eps must be a real number, got {eps!r}")
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
    check_eps(eps)
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
    check_eps(eps)
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
    """Last iterate of policy iteration and why the iteration stopped.

    ``stop`` is "tol" (residual below tolerance), "floor" (a step's
    residual down to r_lin, the residual of its own frozen-policy linear
    system through the same quadrature, as at a policy fixed point) or
    "max_iter", the only stop not counted as converged.  ``history`` holds
    the (residual, r_lin) pair of every step, one linear solve each, so
    ``niter`` and ``residual`` are read from it.  ``factorisations`` counts
    the sparse LU factorisations among the solves (the others were solved by
    sweeps with an earlier LU), and ``lu_nnz`` is the ``SuperLU.nnz`` of the
    last.  ``relative_residual`` is the largest ||K_r u - F_r|| / ||F_r||
    over the accepted linear solutions, direct or swept.
    """

    u_h: FeFunction
    stop: str
    relative_residual: float
    history: list[tuple[float, float]]
    factorisations: int
    lu_nnz: int

    @property
    def niter(self) -> int:
        return len(self.history)

    @property
    def residual(self) -> float:
        return self.history[-1][0]

    @property
    def converged(self) -> bool:
        return self.stop != "max_iter"


class SolverError(RuntimeError):
    """Linearised system is singular or iterates became non-finite."""


_CHUNK_CELLS = 256  # cells per chunk of element blocks: 512 KiB of float64, cache-sized


class _Assembler:
    """Per-mesh workspace shared by every policy solve on one mesh.

    Holds the ``QUAD`` weights; on the unit cell, Lap(phi_i) at the
    quadrature points and the table M[m*nq + q, 16*i + j] = Lap(phi_i)(x_q)
    * H_m(phi_j)(x_q) for H = (Nxx, 2 Nxy, Nyy); the per-cell factor
    ``level_scale(levels, 2)`` that takes both to a cell's size; and the CSC
    pattern of the full matrix with the int32 slot of each of the nc*256
    element-block entries.
    """

    def __init__(self, space: BfsSpace):
        self.space = space
        ref = QUAD.ref_points
        areas = space.mesh.cell_sizes() ** 2
        self.weights = areas[:, None] * QUAD.ref_weights[None, :]  # (nc, nq)
        tab = space.tabulation(ref)
        self.lap = tab["Nxx"] + tab["Nyy"]  # (nq, 16)
        self.table = np.vstack([
            (self.lap[:, :, None] * H[:, None, :]).reshape(len(ref), 256)
            for H in (tab["Nxx"], 2.0 * tab["Nxy"], tab["Nyy"])
        ])  # (3 nq, 256)
        self.scale = level_scale(space.mesh.levels, 2)  # (nc, 16)
        # Block entry (c, i, j) sits at row dofs[c, i] and column dofs[c, j],
        # with dofs = 4 * vertex + kind.  The pattern is that of the vertex
        # pairs sharing a cell, each expanded to 4 x 4: row 4v + k holds the
        # columns 4w + l of every neighbour w of v in ascending order.  It is
        # symmetric, so its CSR arrays serve as CSC, where entry (c, i, j)
        # takes the CSR slot of (c, j, i).  With i = 4a + k and j = 4b + l
        # that is base[c, b, a] + row_len[c, b] * l + k, written in place in
        # (c, a, k, b, l) order; ``indices`` is filled by broadcast.  Neither
        # makes a full-size temporary.
        corners = space.mesh.cell_corners
        nc, nv = len(corners), space.nvertices
        pairs = (corners[:, :, None] * nv + corners[:, None, :]).ravel()
        unique, pair_slot = np.unique(pairs, return_inverse=True)
        degree = np.bincount(unique // nv, minlength=nv)  # neighbours per vertex
        first = (np.cumsum(degree) - degree)[corners][:, :, None]  # (nc, a, 1)
        base = 16 * first + 4 * (pair_slot.reshape(nc, 4, 4) - first)  # (nc, a, b)
        row_len = 4 * degree[corners]  # (nc, a)
        k = np.arange(4)
        slot = np.empty((nc, 4, 4, 4, 4), dtype=np.int32)  # (c, a, k, b, l)
        slot[...] = base.transpose(0, 2, 1)[:, :, None, :, None] + k[:, None, None]
        slot += row_len[:, None, None, :, None] * k
        self.slot = slot.reshape(-1)
        self.indices = np.empty(16 * len(unique), dtype=np.int32)
        self.indices[slot.reshape(nc, 16, 16)] = space.cell_dofs[:, :, None]
        row_nnz = np.repeat(4 * degree, 4)
        self.indptr = np.concatenate([[0], np.cumsum(row_nnz)]).astype(np.int32)

    def load(self, vals):
        """Assemble r_i = sum_q w * vals(x_q) * Lap(phi_i)(x_q) over all cells."""
        contrib = (self.weights * vals) @ self.lap * self.scale  # (nc, 16)
        return np.bincount(
            self.space.cell_dofs.ravel(), weights=contrib.ravel(), minlength=self.space.nfull
        )

    def linear_system(self, a11, a12, a22, rhs_vals):
        """Matrix of (A:D^2 w, Lap phi) and load vector of (rhs, Lap phi).

        The element blocks are built ``_CHUNK_CELLS`` cells at a time: one
        product [w a11 | w a12 | w a22] @ M, one in-place scaling by each
        cell's factors s_i s_j (powers of two, so exact), and one
        ``np.add.at`` into the fixed CSC pattern.  Chunk after chunk, each
        entry sums its terms in block order from zero, as one ``bincount``
        over all cells would, so the matrix does not depend on the chunk.
        """
        nfull = self.space.nfull
        w, s = self.weights, self.scale
        data = np.zeros(len(self.indices))
        for lo in range(0, len(w), _CHUNK_CELLS):
            c = slice(lo, lo + _CHUNK_CELLS)
            blocks = np.hstack([w[c] * a11[c], w[c] * a12[c], w[c] * a22[c]]) @ self.table
            blocks = blocks.reshape(-1, 16, 16)
            blocks *= s[c, :, None] * s[c, None, :]
            np.add.at(data, self.slot[256 * lo:256 * lo + blocks.size], blocks.ravel())
        K = sp.csc_matrix((data, self.indices, self.indptr), shape=(nfull, nfull))
        return K, self.load(rhs_vals)


def solve(
    space: BfsSpace,
    problem: HjbProblem,
    reduction: Reduction,
    max_iter: int = 50,
    initial: np.ndarray | None = None,
) -> SolveResult:
    """Policy iteration for the discrete problem (F_eps(f; D^2 u_h), Lap v_h) = 0.

    Starting from the eps = 1/2 case (a Poisson problem, A = I/2), each step
    freezes the pointwise argmax policy and solves the resulting linear,
    nonsymmetric system K_r u = F_r.  A factorisation is sparse LU (SuperLU)
    with diagonal pivots, in the natural order of K_r: ``reduction`` numbers
    the free DOFs in quadtree nested-dissection order.  No row interchange
    is needed in that order or any other symmetric one: A has eigenvalues in
    [eps, 1-eps] and unit trace, and the Miranda-Talenti identity holds
    under the Gauss rule ``QUAD``, so v^T K_r v >= eps v^T B_r v with
    B_r = ((Lap w, Lap phi)) SPD, for K_r and every symmetric permutation of
    it, and no pivot vanishes.
    Late policy matrices barely differ, so the latest LU on the mesh is
    reused: from the previous solution, sweeps u <- u + LU^-1 (F_r - K_r u)
    run until the relative residual ||K_r u - F_r|| / ||F_r|| is at most
    twice that of the LU's own solve, which accepts u.  The system is
    refactorised instead once a sweep fails to halve the residual, or the
    rate observed cannot reach that target within 12 sweeps.  The LU lives
    for one call, one mesh, and is dropped before the next factorisation.
    Every step takes the full solve.  Iteration stops when the Euclidean
    norm of the reduced residual falls below 1e-11 (1 + ||f||_L2) ("tol"),
    when it is at most twice the residual r_lin of the frozen-policy linear
    system the step solved ("floor": the rounding floor of the linear
    solve, which further steps cannot lower), or after ``max_iter`` solves
    ("max_iter": not converged); the last iterate is returned.  r_lin =
    ||P^T (rhs - A:D^2 u_h, Lap phi)|| is taken through the same quadrature
    as the residual, so at a policy fixed point the two are one vector and
    the step stops "floor".

    ``reduction`` fixes u = g, e.g. ``space.reduction(*interpolate_boundary(...))``.
    ``initial`` (a full coefficient vector, e.g. a solution prolongated from
    a coarser mesh) replaces the Poisson warm start: only its policy is used,
    so it need not satisfy the boundary conditions.
    """
    check_integer("max_iter", max_iter, 1)
    eps = problem.eps
    asm = _Assembler(space)
    cells = np.arange(len(space.mesh))
    pts = space.mesh.cell_points(cells, QUAD.ref_points).reshape(-1, 2)
    fvals = np.asarray(problem.f(pts[:, 0], pts[:, 1]), dtype=float)
    if fvals.ndim == 0:
        fvals = np.full(pts.shape[0], float(fvals))
    fvals = fvals.reshape(asm.weights.shape)
    del pts
    if not np.all(np.isfinite(fvals)):
        raise SolverError("right-hand side not finite at quadrature points")
    hess = ("Nxx", "Nxy", "Nyy")
    fnorm = float(np.sqrt(np.sum(asm.weights * fvals**2)))
    tol = 1e-11 * (1.0 + fnorm)
    rel_max = 0.0  # largest ||Kr u - Fr|| / ||Fr|| of an accepted linear solution
    last = {}  # latest LU on this mesh: "lu", its own "rel", last solution "u"
    nfact = 0

    def solve_linear(a11, a12, a22, rhs):
        nonlocal nfact, rel_max
        K, load = asm.linear_system(a11, a12, a22, rhs)
        Kr = reduction.reduce_matrix(K)
        Fr = reduction.reduce_vector(load - K @ reduction.offset)
        del K, load  # from here on, one policy system is held: the reduced one
        swept = _sweeps(last["lu"], Kr, Fr, last["u"], 2.0 * last["rel"]) if last else None
        if swept is not None:
            u_red, rel = swept
        else:
            last.clear()  # never hold two factorisations at once
            try:
                lu = spla.splu(
                    Kr, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:  # singular factorisation
                raise SolverError(f"linear solve failed: {exc}") from exc
            nfact += 1
            u_red = lu.solve(Fr)
            if not np.all(np.isfinite(u_red)):
                raise SolverError("linear solve produced non-finite values")
            rel = np.linalg.norm(Kr @ u_red - Fr) / (np.linalg.norm(Fr) or 1.0)
            last.update(lu=lu, rel=rel)
        last["u"] = u_red
        rel_max = max(rel, rel_max)
        return reduction.full_vector(u_red)

    def reduced_norm(vals):
        return float(np.linalg.norm(reduction.reduce_vector(asm.load(vals))))

    def policy_of(coeffs):
        """Hessian and F_eps at the quadrature points, and the argmax policy
        (a11, a12, a22, f sqrt(det A)) at ``coeffs``."""
        H = FeFunction(space, coeffs).on_cells(cells, QUAD.ref_points, hess)
        hxx, hxy, hyy = (H[k] for k in hess)
        value, t, a11, a12, a22 = eval_F_batch(eps, fvals, hxx, hxy, hyy)
        return (hxx, hxy, hyy), value, (a11, a12, a22, fvals * np.sqrt(t * (1.0 - t)))

    if initial is None:
        ones = np.ones_like(fvals)
        policy = (0.5 * ones, 0.0 * ones, 0.5 * ones, 0.5 * fvals)
    else:
        policy = policy_of(np.asarray(initial, dtype=float))[2]  # holds no Hessian or F_eps
    history = []  # (residual, linear residual) of every policy step
    stop = None
    while stop is None and len(history) < max_iter:
        coeffs = solve_linear(*policy)
        (hxx, hxy, hyy), value, new_policy = policy_of(coeffs)
        a11, a12, a22, rhs = policy
        res = reduced_norm(value)
        # r_lin: the residual of the frozen-policy system this step solved
        r_lin = reduced_norm(rhs - (a11 * hxx + 2.0 * a12 * hxy + a22 * hyy))
        del hxx, hxy, hyy, value, a11, a12, a22, rhs  # the next solve holds one policy only
        history.append((res, r_lin))
        policy = new_policy
        if res <= tol:
            stop = "tol"
        elif res <= 2.0 * r_lin:  # the residual has reached what the linear solve leaves
            stop = "floor"

    return SolveResult(
        FeFunction(space, coeffs), stop or "max_iter", rel_max, history, nfact, last["lu"].nnz
    )


_MAX_SWEEPS = 12


def _sweeps(lu, Kr, Fr, u, target):
    """Refine ``u`` towards Kr^-1 Fr by sweeps u <- u + lu.solve(Fr - Kr u).

    ``lu`` factorises a nearby matrix.  Returns the refined vector and its
    relative residual ||Kr u - Fr|| / ||Fr|| once that is at most ``target``,
    or None when refactorising is the better course: a sweep fails to halve
    the residual, or the residual at the rate observed so far would still
    exceed ``target`` after ``_MAX_SWEEPS`` sweeps in all.  Each sweep costs
    one ``lu.solve`` and one product with Kr, since the residual tested is
    the next sweep's right-hand side.
    """
    fnorm = np.linalg.norm(Fr) or 1.0
    r = Fr - Kr @ u
    rel = np.linalg.norm(r) / fnorm
    done = 0
    while not rel <= target:
        u = u + lu.solve(r)
        r = Fr - Kr @ u
        new = np.linalg.norm(r) / fnorm
        rate = new / rel
        done += 1
        if not rate <= 0.5 or new * rate ** (_MAX_SWEEPS - done) > target:
            return None
        rel = new
    return u, rel
