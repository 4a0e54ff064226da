"""Independent brute-force oracles shared across test modules."""
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import Delaunay

from macert.estimator import bound_value
from macert.hjb import eval_F_batch


def sample_hessians(vh, samples):
    """(m11, m12, m22) of vh at the interior samples of a build_samples set."""
    H = samples.interior_fields(vh, ("Nxx", "Nxy", "Nyy"))
    return H["Nxx"], H["Nxy"], H["Nyy"]


def eigenvalues(M):
    """Ascending eigenvalues of the symmetric matrix M = (m11, m12, m22)."""
    m11, m12, m22 = M
    return np.linalg.eigvalsh([[m11, m12], [m12, m22]])


def F(eps, fval, M):
    """Operator value F_eps(fval; M) at a single matrix M = (m11, m12, m22)."""
    return float(eval_F_batch(eps, fval, *M)[0])


def grid_search_F(eps, fval, M, refinements=4, n=2001):
    """Brute-force inner maximisation over the policy weight t."""
    lo, hi = eps, 1.0 - eps
    mu1, mu2 = eigenvalues(M)
    best_t = lo
    for _ in range(refinements):
        t = np.linspace(lo, hi, n)
        g = -(t * mu1 + (1.0 - t) * mu2) + fval * np.sqrt(t * (1.0 - t))
        k = int(np.argmax(g))
        best_t = t[k]
        span = (hi - lo) / (n - 1)
        lo, hi = max(eps, best_t - span), min(1.0 - eps, best_t + span)
    return -(best_t * mu1 + (1.0 - best_t) * mu2) + fval * np.sqrt(
        best_t * (1.0 - best_t)
    )


def bisect_xi(eps, M, tol=1e-13):
    """Independent root finder for xi: the operator is increasing in f."""
    mu1, mu2 = eigenvalues(M)
    scale = 1.0 + abs(mu1) + abs(mu2)
    lo, hi = -40.0 * scale, 40.0 * scale
    assert F(eps, lo, M) < 0 < F(eps, hi, M)
    while hi - lo > tol * scale:
        mid = 0.5 * (lo + hi)
        if F(eps, mid, M) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lp_envelope(points, values, query):
    """Supporting-plane oracle: max a.q + b subject to a.x_i + b <= v_i."""
    n = len(points)
    c = -np.array([query[0], query[1], 1.0])
    A_ub = np.column_stack([points, np.ones(n)])
    res = linprog(c, A_ub=A_ub, b_ub=values, bounds=[(None, None)] * 3, method="highs")
    assert res.status == 0
    return -res.fun


def envelope_gap(v_h, samples, subdiv=4):
    """Sampled sup of |v_h - nodal PL interpolant| over the induced triangulation."""
    pts = samples.points
    vals = v_h.value(pts)
    tri = Delaunay(pts)
    bary = np.array(
        [(i / subdiv, j / subdiv, (subdiv - i - j) / subdiv)
         for i in range(subdiv + 1) for j in range(subdiv + 1 - i)]
    )
    qpts = np.einsum("bk,tkd->tbd", bary, pts[tri.simplices]).reshape(-1, 2)
    ivals = (vals[tri.simplices] @ bary.T).ravel()
    return float(np.max(np.abs(v_h.value(qpts) - ivals)))


def select_j_scalar(mu, data, delta):
    """Band index by a scalar sweep: j = 0, 1, ... until RHS0(j+1) > RHS0(j)."""
    order = np.argsort(data.dist, kind="stable")
    wr2 = (data.weights * data.residual**2)[order]
    dist_sorted = data.dist[order]
    suffix = np.concatenate([np.cumsum(wr2[::-1])[::-1], [0.0]])

    def rhs0_at(j):
        k = np.searchsorted(dist_sorted, j * delta, side="left")
        return bound_value(mu, j * delta, np.sqrt(max(suffix[k], 0.0)), np.sqrt(suffix[0]))

    j = 0
    current = rhs0_at(0)
    while (j + 1) * delta < 0.5:
        nxt = rhs0_at(j + 1)
        if nxt > current:
            return j
        j += 1
        current = nxt
    return j


def assemble_reference(space, quad, a11, a12, a22):
    """Policy matrix by an einsum per level and a COO -> CSR conversion."""
    nc = len(space.mesh.cell_ids)
    weights = (space.mesh.cell_sizes() ** 2)[:, None] * quad.ref_weights[None, :]
    blocks = np.empty((nc, 16, 16))
    for level, cells in space.level_groups():
        tab = space.tabulation(level, quad.ref_points)
        lap = tab["Nxx"] + tab["Nyy"]
        G = (
            a11[cells, :, None] * tab["Nxx"][None, :, :]
            + 2.0 * a12[cells, :, None] * tab["Nxy"][None, :, :]
            + a22[cells, :, None] * tab["Nyy"][None, :, :]
        )
        blocks[cells] = np.einsum("cq,qi,cqj->cij", weights[cells], lap, G, optimize=True)
    dofs = space.cell_dofs
    rows = np.repeat(dofs, 16, axis=1).ravel()
    cols = np.tile(dofs, (1, 16)).ravel()
    return sp.coo_matrix(
        (blocks.ravel(), (rows, cols)), shape=(space.nfull, space.nfull)
    ).tocsr()


def locate_scalar(mesh, x, y):
    """Leaf index of (x, y) by a walk from the finest level down, point by point."""
    index = {cid: i for i, cid in enumerate(mesh.cell_ids)}
    for level in range(mesh.max_level, mesh.min_level - 1, -1):
        n = 1 << level
        cid = (level, min(int(x * n), n - 1), min(int(y * n), n - 1))
        if cid in index:
            return index[cid]
    raise RuntimeError("point not covered")
