"""Bogner-Fox-Schmit C1 bicubic finite elements on quadtree meshes.

Each regular vertex carries four degrees of freedom: value, d/dx, d/dy and
the mixed derivative d2/dxdy.  The local basis on a cell is the tensor
product of 1D cubic Hermite pairs, scaled by the cell size so that the
coefficients are the physical nodal derivatives.

Hanging vertices are slaved to the two endpoints of their master edge: the
traces of value and normal derivative along a cell edge are cubics in the
edge parameter, so evaluating those cubics (and their edge derivative) at the
midpoint expresses all four slave DOFs as linear combinations of the eight
master DOFs.  This keeps the space C1 across hanging edges by construction.
On a 1-irregular mesh no master is itself hanging, so every slave DOF is one
constraint row; chained constraints are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry import RectMesh

# DOF kinds per vertex
V, DX, DY, DXY = 0, 1, 2, 3
_KIND_EXPONENTS = ((0, 0), (1, 0), (0, 1), (1, 1))  # (x-kind, y-kind)
# derivative orders (mx, my) of each tabulated key
_DERIVS = {"N": (0, 0), "Nx": (1, 0), "Ny": (0, 1), "Nxx": (2, 0), "Nxy": (1, 1), "Nyy": (0, 2)}


def _hermite1d(t: np.ndarray) -> np.ndarray:
    """Cubic Hermite basis on [0,1]: shape (2 corners, 2 kinds, 3 derivs, n).

    Index [a, k, d] is the d-th derivative of the function dual to
    (value if k = 0 else slope) at endpoint a.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((2, 2, 3) + t.shape)
    t2, t3 = t * t, t * t * t
    out[0, 0, 0] = 1 - 3 * t2 + 2 * t3
    out[0, 0, 1] = -6 * t + 6 * t2
    out[0, 0, 2] = -6 + 12 * t
    out[0, 1, 0] = t - 2 * t2 + t3
    out[0, 1, 1] = 1 - 4 * t + 3 * t2
    out[0, 1, 2] = -4 + 6 * t
    out[1, 0, 0] = 3 * t2 - 2 * t3
    out[1, 0, 1] = 6 * t - 6 * t2
    out[1, 0, 2] = 6 - 12 * t
    out[1, 1, 0] = -t2 + t3
    out[1, 1, 1] = -2 * t + 3 * t2
    out[1, 1, 2] = -2 + 6 * t
    return out


def tabulate_basis(h: float | np.ndarray, ref_pts: np.ndarray) -> dict[str, np.ndarray]:
    """All 16 basis functions and derivatives at reference points of a cell.

    ``ref_pts`` has shape (n, 2) with coordinates in [0,1]^2; ``h`` is the
    physical cell size, a scalar or one size per point.  Returns arrays of
    shape (n, 16) for keys N, Nx, Ny, Nxx, Nxy, Nyy.  Local DOF ordering is
    4*corner + kind with corners (0,0), (1,0), (0,1), (1,1) and kinds
    (V, DX, DY, DXY), so j = 8b + 4a + 2ky + kx for the corner (a, b) and the
    kind (kx, ky): each key is one broadcast product of the 1D tables in
    (b, a, ky, kx) order, scaled by h**(kx + ky - mx - my).
    """
    ref_pts = np.asarray(ref_pts)
    n = ref_pts.shape[0]
    X = np.moveaxis(_hermite1d(ref_pts[:, 0]), -1, 0)  # (n, a, kx, mx)
    Y = np.moveaxis(_hermite1d(ref_pts[:, 1]), -1, 0)  # (n, b, ky, my)
    powers = np.asarray(h, dtype=float)[..., None] ** np.arange(-2, 3)  # h**-2 .. h**2
    kind_power = np.tile([kx + ky for kx, ky in _KIND_EXPONENTS], 4) + 2  # column of h**(kx + ky) in powers
    prod = np.empty((n, 2, 2, 2, 2))  # C order, so each table is too
    out = {}
    for key, (mx, my) in _DERIVS.items():
        np.multiply(Y[:, :, None, :, None, my], X[:, None, :, None, :, mx], out=prod)
        out[key] = prod.reshape(n, 16) * powers[..., kind_power - mx - my]
    return out


@dataclass(frozen=True)
class QuadRule:
    """Tensor Gauss-Legendre rule with ``degree`` points per coordinate.

    Exact for bivariate polynomials up to degree 2*degree - 1 per coordinate;
    all points are interior to the cell.  Points and weights are computed once
    and are read-only, because tabulation caches are keyed by their bytes.
    """

    degree: int = 5

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("quadrature degree must be >= 1")

    @cached_property
    def ref_points(self) -> np.ndarray:
        nodes, _ = np.polynomial.legendre.leggauss(self.degree)
        x = 0.5 * (nodes + 1.0)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        pts.flags.writeable = False
        return pts

    @cached_property
    def ref_weights(self) -> np.ndarray:
        _, w = np.polynomial.legendre.leggauss(self.degree)
        w = np.outer(0.5 * w, 0.5 * w).ravel()
        w.flags.writeable = False
        return w

    @property
    def npoints(self) -> int:
        return self.degree * self.degree


class BfsSpace:
    """DOF management for the C1 bicubic space on a quadtree mesh."""

    def __init__(self, mesh: RectMesh):
        self.mesh = mesh
        self.nvertices = len(mesh.vertex_keys)
        self.nfull = 4 * self.nvertices
        self.cell_dofs = (4 * mesh.cell_corners[:, :, None] + np.arange(4)).reshape(-1, 16)
        self._tab_cache: dict = {}
        levels = mesh.levels
        self._level_groups = [
            (int(L), np.flatnonzero(levels == L)) for L in np.unique(levels)
        ]

    # -- reductions ---------------------------------------------------------

    def reduction(self, fixed: dict[int, float]) -> "Reduction":
        """Prolongation from free DOFs to the full vector, with fixed offsets.

        ``fixed`` maps Dirichlet DOFs to their values.  Each slave DOF is a
        combination of the four master DOFs (vp, vq, dp, dq) of its master
        edge: free masters give its row of P, fixed ones its offset, summed
        in that order.  On a 1-irregular mesh no master is a slave: a master
        p is a corner of the coarse cell K (level L) and of a finer cell F
        (level L+1) across K's edge, and for p to be the midpoint of a leaf
        edge, that leaf would have to face F from level L-1 or coarser.
        Raises ``ValueError`` when a master is a slave.
        """
        nfull = self.nfull
        dofs = np.fromiter(fixed, dtype=np.int64, count=len(fixed))
        value = np.zeros(nfull)
        value[dofs] = np.fromiter(fixed.values(), dtype=float, count=len(fixed))
        is_fixed = np.zeros(nfull, dtype=bool)
        is_fixed[dofs] = True

        # per (value, edge derivative) kind pair that the edge trace couples,
        # two rows: the Hermite cubic through (val, der) at both ends, and
        # its edge derivative, at t = 1/2
        s, p, q, axis = self.mesh.hanging.T
        keys = self.mesh.vertex_keys
        h = ((keys[q, axis] - keys[p, axis]) / self.mesh.res)[:, None]
        kinds = np.array([[[V, DX], [DY, DXY]], [[V, DY], [DX, DXY]]])[axis]
        slaves = (4 * s[:, None, None] + kinds).ravel()  # by vertex, pair, row
        ends = 4 * np.column_stack([p, q])[:, None, None, :] + kinds[..., None]
        masters = np.repeat(ends.reshape(-1, 4), 2, axis=0)
        one = np.ones_like(h)
        coefs = np.tile(np.stack([
            np.hstack([0.5 * one, 0.5 * one, h / 8.0, -h / 8.0]),
            np.hstack([-1.5 / h, 1.5 / h, -0.25 * one, -0.25 * one]),
        ], axis=1), (1, 2, 1)).reshape(-1, 4)
        keep = ~is_fixed[slaves]
        slaves, masters, coefs = slaves[keep], masters[keep], coefs[keep]

        is_slave = np.zeros(nfull, dtype=bool)
        is_slave[slaves] = True
        if np.any(is_slave[masters]):
            raise ValueError("a master DOF is itself a slave: hanging-node constraints "
                             "chain, so the mesh is not 1-irregular")
        free = np.flatnonzero(~is_fixed & ~is_slave)
        col = np.full(nfull, -1)
        col[free] = np.arange(len(free))
        offset = np.where(is_fixed, value, 0.0)
        offset[slaves] = 0.0
        for k in range(4):
            offset[slaves] += coefs[:, k] * value[masters[:, k]]

        entry = ~is_fixed[masters]
        rows = np.concatenate([free, np.repeat(slaves, entry.sum(axis=1))])
        cols = np.concatenate([np.arange(len(free)), col[masters[entry]]])
        vals = np.concatenate([np.ones(len(free)), coefs[entry]])
        P = sp.csr_matrix((vals, (rows, cols)), shape=(nfull, len(free)))
        return Reduction(self, P, offset, free)

    # -- batched tabulation --------------------------------------------------

    def level_groups(self) -> list[tuple[int, np.ndarray]]:
        """Cell indices grouped by refinement level (cells share size).

        Cells are sorted by level, so each group is a contiguous range.
        """
        return self._level_groups

    def tabulation(self, level: int, ref_pts: np.ndarray):
        """Cached basis tabulation for one cell size at fixed reference points.

        The cache is keyed by the level and the bytes of ``ref_pts``, so equal
        points share one table and different points never do.
        """
        cache_key = (level, ref_pts.tobytes())
        tab = self._tab_cache.get(cache_key)
        if tab is None:
            tab = tabulate_basis(0.5**level, ref_pts)
            self._tab_cache[cache_key] = tab
        return tab

    def cell_points(self, cells: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Physical coordinates of reference points on each cell: (nc, np, 2)."""
        h = self.mesh.cell_sizes()[cells]
        orig = self.mesh.cell_array[cells, 1:] * h[:, None]
        return orig[:, None, :] + h[:, None, None] * ref_pts[None, :, :]


@dataclass
class Reduction:
    """Affine map full = P @ free + offset induced by constraints and BCs."""

    space: BfsSpace
    P: sp.csr_matrix
    offset: np.ndarray
    free_dofs: np.ndarray

    @property
    def ndof(self) -> int:
        return self.P.shape[1]

    def full_vector(self, u_free: np.ndarray) -> np.ndarray:
        return self.P @ u_free + self.offset

    def reduce_matrix(self, K: sp.spmatrix) -> sp.csc_matrix:
        """P^T K P in CSC, the format SuperLU takes, with sorted indices.

        P^T is CSC, so the product is CSC already; only its row indices
        within each column come out unsorted.
        """
        Kr = self.P.T @ (K @ self.P)
        Kr.sort_indices()
        return Kr

    def reduce_vector(self, r: np.ndarray) -> np.ndarray:
        return self.P.T @ r


def _runs(order: np.ndarray, keys: np.ndarray):
    """Pieces of ``order`` over which the sorted nonnegative ``keys`` are equal."""
    bounds = np.flatnonzero(np.diff(keys, prepend=-1, append=-1))
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class FeFunction:
    """Member of a BfsSpace, stored through its full coefficient vector."""

    def __init__(self, space: BfsSpace, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.nfull,):
            raise ValueError("coefficient vector has wrong length")
        self.space = space
        self.coeffs = coeffs

    # -- batched evaluation (fast path) --------------------------------------

    def on_cells(self, cells: np.ndarray, ref_pts: np.ndarray, what=("N",)):
        """Evaluate derivatives at shared reference points on many cells.

        Returns a dict mapping each requested key (subset of N, Nx, Ny, Nxx,
        Nxy, Nyy) to an array of shape (ncells, npoints).
        """
        space = self.space
        cells = np.asarray(cells)
        levels = space.mesh.levels[cells]
        order = np.argsort(levels, kind="stable")  # the identity for sorted cells
        out = {k: np.empty((len(cells), ref_pts.shape[0])) for k in what}
        for idx in _runs(order, levels[order]):
            tab = space.tabulation(int(levels[idx[0]]), ref_pts)
            local = self.coeffs[space.cell_dofs[cells[idx]]]  # (n, 16)
            for k in what:
                out[k][idx] = local @ tab[k].T
        return out

    # -- pointwise evaluation --------------------------------------------------

    def _eval_points(self, pts: np.ndarray, what):
        space = self.space
        mesh = space.mesh
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cells = mesh.locate(pts[:, 0], pts[:, 1])
        h = mesh.cell_sizes()[cells]
        ref = (pts - mesh.cell_array[cells, 1:] * h[:, None]) / h[:, None]
        tab = tabulate_basis(h, ref)
        out = {k: np.empty(len(pts)) for k in what}
        order = np.argsort(cells, kind="stable")
        for idx in _runs(order, cells[order]):
            local = self.coeffs[space.cell_dofs[cells[idx[0]]]]
            for k in what:
                out[k][idx] = tab[k][idx] @ local
        return out

    def value(self, pts):
        return self._eval_points(pts, ("N",))["N"]

    def gradient(self, pts):
        r = self._eval_points(pts, ("Nx", "Ny"))
        return np.column_stack([r["Nx"], r["Ny"]])

    def hessian(self, pts):
        r = self._eval_points(pts, ("Nxx", "Nxy", "Nyy"))
        return np.column_stack([r["Nxx"], r["Nxy"], r["Nyy"]])


# -- boundary interpolation -----------------------------------------------


def count_free_dofs(mesh: RectMesh) -> int:
    """Free DOFs after boundary interpolation, without building the space.

    Boundary vertices lose value plus one tangential slope (two at the four
    corners); hanging vertices lose all four DOFs to their master edges.
    """
    nb = int(
        np.count_nonzero(
            mesh.vertex_on_left
            | mesh.vertex_on_right
            | mesh.vertex_on_bottom
            | mesh.vertex_on_top
        )
    )
    return 4 * len(mesh.vertex_keys) - 2 * nb - 4 - 4 * len(mesh.hanging)


def interpolate_boundary(space: BfsSpace, g, grad_g) -> dict[int, float]:
    """Fix boundary vertex DOFs from Dirichlet data.

    Values are set everywhere on the boundary; first-derivative DOFs are set
    only in the tangential direction of each boundary edge (both at corners).
    Normal and mixed derivatives stay free.  ``grad_g`` supplies the gradient
    of an extension of g; only its tangential components are used.
    """
    mesh = space.mesh
    xs = mesh.vertex_coords[:, 0]
    ys = mesh.vertex_coords[:, 1]
    on_h = mesh.vertex_on_bottom | mesh.vertex_on_top  # horizontal edges
    on_v = mesh.vertex_on_left | mesh.vertex_on_right
    on_boundary = on_h | on_v
    fixed: dict[int, float] = {}
    idx = np.nonzero(on_boundary)[0]
    if len(idx) == 0:
        return fixed
    gvals = np.broadcast_to(np.asarray(g(xs[idx], ys[idx]), dtype=float), idx.shape)
    gx, gy = grad_g(xs[idx], ys[idx])
    gx = np.broadcast_to(np.asarray(gx, dtype=float), idx.shape)
    gy = np.broadcast_to(np.asarray(gy, dtype=float), idx.shape)
    for k, vi in enumerate(idx):
        fixed[4 * vi + V] = float(gvals[k])
        if on_h[vi]:
            fixed[4 * vi + DX] = float(gx[k])
        if on_v[vi]:
            fixed[4 * vi + DY] = float(gy[k])
    return fixed


# -- norms -------------------------------------------------------------------


def _cell_grid(n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(t, t, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def norms_vs_exact(
    v_h: FeFunction,
    exact,
    quad: QuadRule,
    linf_samples: int = 8,
) -> tuple[float, float, float, float]:
    """(Linf, L2, H1, H2) distances between v_h and an exact solution.

    L2/H1/H2 are full Sobolev norms computed by quadrature; Linf is the max
    over the quadrature points plus a uniform per-cell grid with
    ``linf_samples`` points per direction (cell corners included).
    """
    space = v_h.space
    cells = np.arange(len(space.mesh.cell_ids))
    ref = quad.ref_points
    wref = quad.ref_weights
    pts = space.cell_points(cells, ref)
    flat = pts.reshape(-1, 2)
    areas = space.mesh.cell_sizes() ** 2
    w = (areas[:, None] * wref[None, :]).ravel()

    vals = v_h.on_cells(cells, ref, what=("N", "Nx", "Ny", "Nxx", "Nxy", "Nyy"))
    du = vals["N"].ravel() - exact.u(flat[:, 0], flat[:, 1])
    gx, gy = exact.grad(flat[:, 0], flat[:, 1])
    dgx = vals["Nx"].ravel() - gx
    dgy = vals["Ny"].ravel() - gy
    hxx, hxy, hyy = exact.hess(flat[:, 0], flat[:, 1])
    dxx = vals["Nxx"].ravel() - hxx
    dxy = vals["Nxy"].ravel() - hxy
    dyy = vals["Nyy"].ravel() - hyy

    l2sq = float(w @ du**2)
    h1sq = l2sq + float(w @ (dgx**2 + dgy**2))
    h2sq = h1sq + float(w @ (dxx**2 + 2 * dxy**2 + dyy**2))

    linf = float(np.max(np.abs(du))) if du.size else 0.0
    grid = _cell_grid(linf_samples)
    gpts = space.cell_points(cells, grid).reshape(-1, 2)
    gvals = v_h.on_cells(cells, grid, what=("N",))["N"].ravel()
    linf = max(linf, float(np.max(np.abs(gvals - exact.u(gpts[:, 0], gpts[:, 1])))))
    return linf, np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(h2sq)
