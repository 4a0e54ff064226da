"""Independent brute-force oracles shared across test modules."""
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import Delaunay

from macert.bfs import _hermite1d, interpolate_boundary
from macert.envelope import _side_point, _square, _square_budget, _square_key, edge_values
from macert.estimator import bound_value, max_boundary_trace_error
from macert.geometry import SIDES
from macert.hjb import HjbProblem, eval_F_batch, solve


def dirichlet_solve(space, eps, f, g, grad_g, **kwargs):
    """``solve`` with u = g on the boundary: the reduction of g and grad g."""
    reduction = space.reduction(*interpolate_boundary(space, g, grad_g))
    return solve(space, HjbProblem(eps, f), reduction, **kwargs)


def boundary_values(vh, samples):
    """Values of vh at the boundary samples of a build_samples set, by one
    ``edge_values`` batch on the sample grid itself."""
    per_edge = samples.edge_rows.shape[1] - 1
    return samples.boundary_values(edge_values(vh, np.arange(per_edge + 1) / per_edge)[0])


def trace_error(vh, g, npoints=17):
    """``max_boundary_trace_error`` of vh on ``npoints`` equispaced points of
    every boundary edge, 17 as on the trace grid of ``bench``."""
    vals, pts = edge_values(vh, np.linspace(0.0, 1.0, npoints))
    return max_boundary_trace_error(vals, g(pts[..., 0], pts[..., 1]))


def boundary_g(samples, g):
    """g at the boundary samples of every edge and their midpoints, in turn,
    (ne, 2 per_edge + 1) as ``boundary_residual`` reads it; the points are
    the samples' own coordinates and their means."""
    ends = samples.boundary[samples.edge_rows]
    pts = np.empty((len(ends), 2 * ends.shape[1] - 1, 2))
    pts[:, ::2], pts[:, 1::2] = ends, 0.5 * (ends[:, :-1] + ends[:, 1:])
    return g(pts[..., 0], pts[..., 1])


def point_fields(vh, pts, what):
    """Columns of the derivatives ``what`` of vh at arbitrary points: each
    point's leaf by the scalar walk, the column-wise tabulation at its
    reference coordinates, and a row dot with the leaf's coefficients."""
    space = vh.space
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    cells = locate_scalar(space.mesh, pts)
    level, ix, iy = space.mesh.cell_array[cells].T
    h = 0.5**level
    ref = (pts - np.column_stack([ix, iy]) * h[:, None]) / h[:, None]
    tab = tabulate_basis_reference(h, ref)
    local = vh.coeffs[space.cell_dofs[cells]]
    return np.column_stack([np.einsum("pj,pj->p", local, tab[k]) for k in what])


def point_values(vh, pts):
    """Values of vh at arbitrary points, by ``point_fields``."""
    return point_fields(vh, pts, ("N",))[:, 0]


def sample_values(vh, samples):
    """Values of vh at all points of a build_samples set, in point order: the
    interior by ``point_values``, the boundary by ``boundary_values``."""
    return np.concatenate([point_values(vh, samples.interior), boundary_values(vh, samples)])


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


def on_hull_reference(hull):
    """Envelope evaluated at every sample, and the flags of gap <= 1e-10 * scale."""
    gamma = hull.evaluate(hull.samples.points)
    scale = 1.0 + float(np.max(np.abs(hull.values)))
    return gamma, hull.values - gamma <= 1e-10 * scale


def boundary_residual_reference(hull, g):
    """max |g - envelope| over boundary samples and their midpoints, with the
    envelope on each side interpolated from the 1D lower hull of the side's
    samples (a scalar monotone chain).  A side's samples are the boundary
    points on it, by their coordinate along it."""
    samples = hull.samples
    mu = 0.0
    for k, side in enumerate(SIDES):
        on = np.flatnonzero(samples.boundary[:, 1 - k % 2] == float(side in ("right", "top")))
        on = on[np.argsort(samples.boundary[on, k % 2])]
        t, v = samples.boundary[on, k % 2], hull.values[samples.n_interior + on]
        keep: list[int] = []
        for i in range(len(t)):
            # drop the last kept point while it lies on or above the chord to i
            while len(keep) >= 2 and (
                (v[keep[-1]] - v[keep[-2]]) * (t[i] - t[keep[-2]])
                >= (v[i] - v[keep[-2]]) * (t[keep[-1]] - t[keep[-2]])
            ):
                keep.pop()
            keep.append(i)
        q = np.concatenate([t, 0.5 * (t[:-1] + t[1:])])
        pts = _side_point(side, q)
        gv = np.broadcast_to(np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float), q.shape)
        mu = max(mu, float(np.max(np.abs(gv - np.interp(q, t[keep], v[keep])))))
    return mu


def envelope_gap(v_h, samples, subdiv=4):
    """Sampled sup of |v_h - nodal PL interpolant| over the induced triangulation."""
    pts = samples.points
    vals = point_values(v_h, pts)
    tri = Delaunay(pts)
    bary = np.array(
        [(i / subdiv, j / subdiv, (subdiv - i - j) / subdiv)
         for i in range(subdiv + 1) for j in range(subdiv + 1 - i)]
    )
    qpts = np.einsum("bk,tkd->tbd", bary, pts[tri.simplices]).reshape(-1, 2)
    ivals = (vals[tri.simplices] @ bary.T).ravel()
    return float(np.max(np.abs(point_values(v_h, qpts) - ivals)))


def select_j_scalar(mu, dist, wr2, delta):
    """Band index by a scalar sweep: j = 0, 1, ... until RHS0(j+1) > RHS0(j)."""
    order = np.argsort(dist, kind="stable")
    wr2 = wr2[order]
    dist_sorted = dist[order]
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
    """Policy matrix from the column-wise tabulation, by an einsum per level
    and a COO -> CSR conversion."""
    nc = len(space.mesh.cell_ids)
    weights = (space.mesh.cell_sizes() ** 2)[:, None] * quad.ref_weights[None, :]
    blocks = np.empty((nc, 16, 16))
    for level in np.unique(space.mesh.levels):
        cells = np.flatnonzero(space.mesh.levels == level)
        tab = tabulate_basis_reference(0.5**level, quad.ref_points)
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


def assemble_bincount(asm, a11, a12, a22, rhs_vals):
    """``asm.linear_system`` in one shot: the element blocks of all cells in
    one product, scaled in place by each cell's factor for i and for j, and
    summed into the fixed CSC pattern by one ``bincount``."""
    w, s = asm.weights, asm.scale
    blocks = np.hstack([w * a11, w * a12, w * a22]) @ asm.table
    b = blocks.reshape(-1, 16, 16)
    b *= s[:, :, None]
    b *= s[:, None, :]
    data = np.bincount(asm.slot, weights=blocks.ravel(), minlength=len(asm.indices))
    nfull = asm.space.nfull
    K = sp.csc_matrix((data, asm.indices, asm.indptr), shape=(nfull, nfull))
    return K, asm.load(rhs_vals)


def bucket_index_reference(tri, top):
    """``_bucket_index`` from the triangles themselves, with every per-facet
    array alive through one ``argsort`` and two gathers."""
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    budget = _square_budget(lo, hi)
    depth = np.zeros(len(tri), dtype=np.int64)
    for d in range(1, top + 1):
        w = _square(hi, 1 << d) - _square(lo, 1 << d) + 1
        depth[w[:, 0] * w[:, 1] <= budget] = d
    n = np.left_shift(1, depth)
    i0 = _square(lo, n[:, None])
    w = _square(hi, n[:, None]) - i0 + 1
    size = w[:, 0] * w[:, 1]
    start = np.cumsum(size) - size
    ids = np.repeat(np.arange(len(tri), dtype=np.int32), size)
    k = np.arange(len(ids)) - start[ids]  # the k-th square of its facet
    wf = w[ids, 0]
    keys = _square_key(i0[ids] + np.column_stack([k % wf, k // wf]), n[ids])
    order = np.argsort(keys)
    return keys[order], ids[order], np.unique(depth)


def rows_of(mesh, ids):
    """Sorted rows of the leaves ``ids`` = (level, ix, iy), through ``cell_ids``."""
    index = {cid: i for i, cid in enumerate(mesh.cell_ids)}
    return np.array(sorted(index[tuple(cid)] for cid in ids), dtype=np.int64)


def locate_scalar(mesh, pts):
    """Leaf row of each point by a walk from the finest level down, point by
    point; a point on cell borders goes to the leaf whose half-open cell
    [ix, ix+1) x [iy, iy+1) / 2**level holds it, closed at x = 1 and y = 1."""
    index = {cid: i for i, cid in enumerate(mesh.cell_ids)}
    rows = []
    for x, y in np.atleast_2d(pts).tolist():
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
        for level in range(mesh.max_level, mesh.min_level - 1, -1):
            n = 1 << level
            cid = (level, min(int(x * n), n - 1), min(int(y * n), n - 1))
            if cid in index:
                rows.append(index[cid])
                break
        else:
            raise RuntimeError("point not covered")
    return np.array(rows, dtype=np.int64)


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
        for side, on in (("bottom", iy == 0), ("right", ix == n - 1),
                         ("top", iy == n - 1), ("left", ix == 0)):
            if on:
                bedges.append((ci, side))
    return SimpleNamespace(
        vertex_keys=order,
        cell_corners=remap[cell_corners],
        hanging=hanging,
        boundary_edges=tuple(bedges),
    )


def dissection_node_reference(mesh):
    """Per vertex row, the node (depth, nx, ny) whose cross holds it, by a
    loop over the depths: the coarsest dyadic square, closed, one of whose
    midlines passes through the vertex; a corner, on no midline, takes the
    finest square at its corner."""
    R, L = mesh.res, mesh.max_level
    nodes = []
    for kx, ky in mesh.vertex_keys.tolist():
        for depth in range(L + 1):
            side = R >> depth
            if kx % side == side // 2 or ky % side == side // 2:
                break
        else:
            depth, side = L, R >> L
        last = (1 << depth) - 1
        nodes.append((depth, min(kx // side, last), min(ky // side, last)))
    return nodes


def dissection_order_reference(mesh):
    """Vertex rows in postorder of their nodes, by row within a node: a node
    sorts by its path of quadrant digits (Morton, x bit first) from the root,
    padded with 4, so that a node follows every node inside it."""
    L = mesh.max_level

    def path(node):
        depth, nx, ny = node
        shifts = range(depth - 1, -1, -1)  # root first
        return [(nx >> i & 1) + 2 * (ny >> i & 1) for i in shifts] + [4] * (L - depth)

    nodes = dissection_node_reference(mesh)
    return sorted(range(len(nodes)), key=lambda v: (path(nodes[v]), v))


def elimination_permutation(free, order):
    """Indices that put ``free`` (ascending DOFs) in elimination order:
    vertices by ``order``, the DOFs of one vertex by kind."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return np.argsort(4 * rank[free // 4] + free % 4, kind="stable")


def boundary_reference(space, g, grad_g):
    """{dof: value} of the Dirichlet data by a loop over the vertices: the
    value on the boundary, d/dx on y = 0 and 1, d/dy on x = 0 and 1."""
    mesh, fixed = space.mesh, {}
    for vi, ((kx, ky), (x, y)) in enumerate(zip(mesh.vertex_keys.tolist(), mesh.vertex_coords)):
        on_h, on_v = ky in (0, mesh.res), kx in (0, mesh.res)
        if on_h or on_v:
            gx, gy = grad_g(x, y)
            fixed[4 * vi] = float(g(x, y))
            if on_h:
                fixed[4 * vi + 1] = float(gx)
            if on_v:
                fixed[4 * vi + 2] = float(gy)
    return fixed


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


# -- the dict and tuple marking rule that the index-array marking replaced ----


def mark_reference(sigma, eta, edge_errors, mesh):
    """Marked cell ids from ``eta`` {cell id: indicator} and ``edge_errors``
    {(owner index, side name): trace error} by Python sorts and a loop."""
    boundary_max = max(edge_errors.values()) if edge_errors else 0.0
    if sigma / 10.0 < boundary_max:
        edges = sorted(edge_errors.items(), key=lambda kv: (-kv[1], kv[0]))
        k = int(np.ceil(len(edges) / 5.0))
        return {mesh.cell_ids[ci] for (ci, _side), _err in edges[:k]}
    total = sum(eta.values())
    if total <= 0.0:
        return set()
    ranked = sorted(eta.items(), key=lambda kv: (-kv[1], kv[0]))
    marked = set()
    acc = 0.0
    for cid, val in ranked:
        if acc >= 0.5 * total:
            break
        marked.add(cid)
        acc += val
    return marked
