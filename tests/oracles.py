"""Independent brute-force oracles shared across test modules."""
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import Delaunay

from macert.bfs import _hermite1d
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


def tabulate_basis_reference(h, ref_pts):
    """Basis tabulation filled one column and one derivative key at a time."""
    corners = ((0, 0), (1, 0), (0, 1), (1, 1))
    kinds = ((0, 0), (1, 0), (0, 1), (1, 1))
    derivs = {"N": (0, 0), "Nx": (1, 0), "Ny": (0, 1), "Nxx": (2, 0), "Nxy": (1, 1), "Nyy": (0, 2)}
    X = _hermite1d(np.asarray(ref_pts)[:, 0])
    Y = _hermite1d(np.asarray(ref_pts)[:, 1])
    out = {key: np.empty((len(ref_pts), 16)) for key in derivs}
    for c, (a, b) in enumerate(corners):
        for k, (kx, ky) in enumerate(kinds):
            for key, (mx, my) in derivs.items():
                out[key][:, 4 * c + k] = h ** (kx + ky - mx - my) * X[a, kx, mx] * Y[b, ky, my]
    return out


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


# -- the dict and tuple mesh code that the integer-array mesh replaced --------


def cell_rect(cid):
    """Corners, size and level of the leaf ``cid`` = (level, ix, iy)."""
    level, ix, iy = cid
    h = 0.5**level
    x0, y0 = ix * h, iy * h
    return SimpleNamespace(x0=x0, y0=y0, x1=x0 + h, y1=y0 + h, h=h, level=level)


def boundary_edge_segment(mesh, ci, side):
    """Endpoints ((xa, ya), (xb, yb)) of a boundary edge of cell ci."""
    r = cell_rect(mesh.cell_ids[ci])
    return {
        "bottom": ((r.x0, r.y0), (r.x1, r.y0)),
        "top": ((r.x0, r.y1), (r.x1, r.y1)),
        "left": ((r.x0, r.y0), (r.x0, r.y1)),
        "right": ((r.x1, r.y0), (r.x1, r.y1)),
    }[side]


def refine_reference(mesh, marked):
    """Sorted leaves after splitting ``marked`` with recursive closure."""
    leaves = set(mesh.cell_ids)

    def covering_ancestor(level, ix, iy):
        while level >= 0:
            if (level, ix, iy) in leaves:
                return (level, ix, iy)
            level, ix, iy = level - 1, ix >> 1, iy >> 1
        return None

    def split(cid):
        level, ix, iy = cid
        n = 1 << level
        for nx, ny in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
            if 0 <= nx < n and 0 <= ny < n:
                anc = covering_ancestor(level, nx, ny)
                if anc is not None and anc[0] < level:
                    split(anc)
        leaves.remove(cid)
        for dy in (0, 1):
            for dx in (0, 1):
                leaves.add((level + 1, 2 * ix + dx, 2 * iy + dy))

    for cid in sorted(set(marked)):
        if cid not in leaves:
            raise ValueError(f"marked cell {cid} is not a leaf")
    for cid in sorted(set(marked)):
        if cid in leaves:  # may have been split by closure already
            split(cid)
    return sorted(leaves)


def topology_reference(mesh):
    """Vertex keys, cell corners, hanging records and boundary edges by dicts.

    ``hanging`` maps a slave vertex to (p, q, axis, edge length).
    """
    R = mesh.res
    corner_keys = {}
    cell_corners = np.empty((len(mesh.cell_ids), 4), dtype=np.int64)
    for ci, (level, ix, iy) in enumerate(mesh.cell_ids):
        step = R >> level
        x0, y0 = ix * step, iy * step
        for k, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            key = (x0 + dx * step, y0 + dy * step)
            cell_corners[ci, k] = corner_keys.setdefault(key, len(corner_keys))
    order = sorted(corner_keys, key=lambda k: (k[1], k[0]))
    remap = np.empty(len(order), dtype=np.int64)
    for new, key in enumerate(order):
        remap[corner_keys[key]] = new
    vidx = {key: i for i, key in enumerate(order)}

    hanging = {}
    bedges = []
    for ci, (level, ix, iy) in enumerate(mesh.cell_ids):
        step = R >> level
        x0, y0 = ix * step, iy * step
        half = step >> 1
        edges = (
            ((x0, y0), (x0 + step, y0), (x0 + half, y0), 0),
            ((x0, y0 + step), (x0 + step, y0 + step), (x0 + half, y0 + step), 0),
            ((x0, y0), (x0, y0 + step), (x0, y0 + half), 1),
            ((x0 + step, y0), (x0 + step, y0 + step), (x0 + step, y0 + half), 1),
        )
        for pkey, qkey, midkey, axis in edges:
            mid = vidx.get(midkey)
            if mid is not None:
                hanging[mid] = (vidx[pkey], vidx[qkey], axis, step / R)
        n = 1 << level
        for side, on in (("bottom", iy == 0), ("top", iy == n - 1),
                         ("left", ix == 0), ("right", ix == n - 1)):
            if on:
                bedges.append((ci, side))
    return SimpleNamespace(
        vertex_keys=order,
        cell_corners=remap[cell_corners],
        hanging=hanging,
        boundary_edges=tuple(bedges),
    )


def reduction_reference(space, fixed):
    """(P, offset, free DOFs) by recursive expansion of the slave DOFs."""
    V, DX, DY, DXY = 0, 1, 2, 3
    slave = {}
    for s, (p, q, axis, h) in topology_reference(space.mesh).hanging.items():
        pairs = ((V, DX), (DY, DXY)) if axis == 0 else ((V, DY), (DX, DXY))
        for val_k, der_k in pairs:
            vp, dp = 4 * p + val_k, 4 * p + der_k
            vq, dq = 4 * q + val_k, 4 * q + der_k
            slave[4 * s + val_k] = [(vp, 0.5), (vq, 0.5), (dp, h / 8.0), (dq, -h / 8.0)]
            slave[4 * s + der_k] = [(vp, -1.5 / h), (vq, 1.5 / h), (dp, -0.25), (dq, -0.25)]
    memo = {}

    def expand(dof):
        got = memo.get(dof)
        if got is not None:
            return got
        if dof in fixed:
            res = ({}, fixed[dof])
        elif dof in slave:
            combo, const = {}, 0.0
            for m, c in slave[dof]:
                sub, sub_const = expand(m)
                const += c * sub_const
                for g, cg in sub.items():
                    combo[g] = combo.get(g, 0.0) + c * cg
            res = (combo, const)
        else:
            res = ({dof: 1.0}, 0.0)
        memo[dof] = res
        return res

    free = [d for d in range(space.nfull) if d not in fixed and d not in slave]
    col_of = {d: i for i, d in enumerate(free)}
    rows, cols, vals = [], [], []
    offset = np.zeros(space.nfull)
    for dof in range(space.nfull):
        combo, const = expand(dof)
        offset[dof] = const
        for g, c in combo.items():
            rows.append(dof)
            cols.append(col_of[g])
            vals.append(c)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(space.nfull, len(free)))
    return P, offset, np.array(free, dtype=np.int64)


def prolongate_reference(v_h, fine_space):
    """Fine coefficients from a dict of coarse 3x3-lattice data per key."""
    coarse = v_h.space
    cells = np.arange(len(coarse.mesh.cell_ids))
    t = np.linspace(0.0, 1.0, 3)
    lattice = np.column_stack([np.repeat(t, 3), np.tile(t, 3)])
    vals = v_h.on_cells(cells, lattice, what=("N", "Nx", "Ny", "Nxy"))
    data = {}
    res = coarse.mesh.res
    for k, (level, ix, iy) in enumerate(coarse.mesh.cell_ids):
        step = res >> (level + 1)
        x0, y0 = 2 * ix * step, 2 * iy * step
        for p, (s, t) in enumerate(lattice):
            key = (x0 + int(2 * s) * step, y0 + int(2 * t) * step)
            data[key] = (vals["N"][k, p], vals["Nx"][k, p], vals["Ny"][k, p], vals["Nxy"][k, p])
    scale = fine_space.mesh.res // res
    coeffs = np.empty(fine_space.nfull)
    for vi, (kx, ky) in enumerate(topology_reference(fine_space.mesh).vertex_keys):
        coeffs[4 * vi : 4 * vi + 4] = data[(kx // scale, ky // scale)]
    return coeffs
