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

from .geometry import RectMesh, check_integer, dissection_order

# DOF kinds per vertex
V, DX, DY, DXY = 0, 1, 2, 3
_KIND_SUM = np.tile([0, 1, 1, 2], 4)  # kx + ky of each local DOF
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


def tabulate_basis(ref_pts: np.ndarray) -> dict[str, np.ndarray]:
    """All 16 basis functions and derivatives at points of the unit cell.

    ``ref_pts`` has shape (n, 2) with coordinates in [0,1]^2.  Returns arrays
    of shape (n, 16) for keys N, Nx, Ny, Nxx, Nxy, Nyy.  Local DOF ordering
    is 4*corner + kind with corners (0,0), (1,0), (0,1), (1,1) and kinds
    (V, DX, DY, DXY), so j = 8b + 4a + 2ky + kx for the corner (a, b) and the
    kind (kx, ky): each key is one broadcast product of the 1D tables in
    (b, a, ky, kx) order.  On a cell of size h the element is affine
    equivalent to this one: multiply column j by ``level_scale`` to get the
    physical basis.
    """
    ref_pts = np.asarray(ref_pts)
    n = ref_pts.shape[0]
    X = np.moveaxis(_hermite1d(ref_pts[:, 0]), -1, 0)  # (n, a, kx, mx)
    Y = np.moveaxis(_hermite1d(ref_pts[:, 1]), -1, 0)  # (n, b, ky, my)
    return {  # C order, so each table is too
        key: np.multiply(Y[:, :, None, :, None, my], X[:, None, :, None, :, mx], order="C")
        .reshape(n, 16)
        for key, (mx, my) in _DERIVS.items()
    }


def level_scale(levels, order: int) -> np.ndarray:
    """h**(kx + ky - order) per cell and local DOF, h = 2**-level: (n, 16).

    The physical basis of kind (kx, ky) under a derivative of ``order`` is
    the unit-cell basis times this factor.  It is a power of two, so
    scaling by it is exact.
    """
    return np.ldexp(1.0, -np.multiply.outer(levels, _KIND_SUM - order))


@dataclass(frozen=True)
class QuadRule:
    """Tensor Gauss-Legendre rule with ``degree`` points per coordinate.

    Exact for bivariate polynomials up to degree 2*degree - 1 per coordinate;
    all points are interior to the cell.  Points and weights are computed once
    and are read-only, because tabulation caches are keyed by their bytes.
    """

    degree: int = 5

    def __post_init__(self):
        check_integer("degree", self.degree, 1)

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

    # -- reductions ---------------------------------------------------------

    def reduction(self, dofs: np.ndarray, values: np.ndarray) -> "Reduction":
        """Prolongation from free DOFs to the full vector, with fixed offsets.

        ``values`` fix the Dirichlet ``dofs``.  Each slave DOF is a
        combination of the four master DOFs (vp, vq, dp, dq) of its master
        edge: free masters give its row of P, fixed ones its offset, summed
        in that order.  On a 1-irregular mesh no master is a slave: a master
        p is a corner of the coarse cell K (level L) and of a finer cell F
        (level L+1) across K's edge, and for p to be the midpoint of a leaf
        edge, that leaf would have to face F from level L-1 or coarser.
        Raises ``ValueError`` when a master is a slave.  The free DOFs, the
        columns of P, are numbered in elimination order: vertices by
        ``dissection_order``, the DOFs of one vertex by kind.
        """
        nfull = self.nfull
        value = np.zeros(nfull)
        value[dofs] = values
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
        order = (4 * dissection_order(self.mesh)[:, None] + np.arange(4)).ravel()
        free = order[~is_fixed[order] & ~is_slave[order]]
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
        P = sp.csc_matrix((vals, (rows, cols)), shape=(nfull, len(free)))
        return Reduction(P, offset, free)

    # -- batched tabulation --------------------------------------------------

    def tabulation(self, ref_pts: np.ndarray) -> dict[str, np.ndarray]:
        """Cached unit-cell basis tabulation at fixed reference points.

        The cache is keyed by the bytes of ``ref_pts``, so equal points share
        one table across all cell sizes and different points never do.
        """
        cache_key = ref_pts.tobytes()
        tab = self._tab_cache.get(cache_key)
        if tab is None:
            tab = self._tab_cache[cache_key] = tabulate_basis(ref_pts)
        return tab


@dataclass
class Reduction:
    """Affine map full = P @ free + offset induced by constraints and BCs."""

    P: sp.csc_matrix
    offset: np.ndarray
    free_dofs: np.ndarray

    @cached_property
    def _PT(self) -> sp.csc_matrix:
        """P^T in CSC, converted once per reduction for both reductions."""
        return self.P.T.tocsc()

    @property
    def ndof(self) -> int:
        return self.P.shape[1]

    def full_vector(self, u_free: np.ndarray) -> np.ndarray:
        return self.P @ u_free + self.offset

    def reduce_matrix(self, K: sp.csc_matrix) -> sp.csc_matrix:
        """P^T K P in CSC, the format SuperLU takes, with sorted indices.

        K, P and P^T are all CSC, so no product converts a format.  A
        product leaves the row indices within a column unsorted; K P is
        sorted before the second product, so every entry of K_r sums its
        terms in row order.
        """
        KP = K @ self.P
        KP.sort_indices()
        Kr = self._PT @ KP
        Kr.sort_indices()
        return Kr

    def reduce_vector(self, r: np.ndarray) -> np.ndarray:
        return self._PT @ r


class FeFunction:
    """Member of a BfsSpace, stored through its full coefficient vector."""

    def __init__(self, space: BfsSpace, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.nfull,):
            raise ValueError("coefficient vector has wrong length")
        self.space = space
        self.coeffs = coeffs

    def on_cells(self, cells: np.ndarray, ref_pts: np.ndarray, what=("N",)):
        """Evaluate derivatives at shared reference points on many cells.

        ``cells`` may come in any order and repeat.  Returns a dict mapping
        each requested key (subset of N, Nx, Ny, Nxx, Nxy, Nyy) to an array
        of shape (ncells, npoints): per key one product of the level-scaled
        local coefficients with the unit-cell table.
        """
        space = self.space
        cells = np.asarray(cells)
        tab = space.tabulation(ref_pts)
        local = self.coeffs[space.cell_dofs[cells]]  # (n, 16)
        levels = space.mesh.levels[cells]
        return {k: (local * level_scale(levels, sum(_DERIVS[k]))) @ tab[k].T for k in what}


# -- boundary interpolation -----------------------------------------------


def _fixed_kinds(mesh: RectMesh) -> np.ndarray:
    """Whether each vertex's V, DX and DY DOFs are Dirichlet: (nv, 3) bool.

    The value is fixed on the whole boundary, d/dx on the horizontal sides
    and d/dy on the vertical ones, so both slopes at the corners.
    """
    kx, ky = mesh.vertex_keys.T
    on_h, on_v = (ky == 0) | (ky == mesh.res), (kx == 0) | (kx == mesh.res)
    return np.column_stack([on_h | on_v, on_h, on_v])


def count_free_dofs(mesh: RectMesh) -> int:
    """Free DOFs without building the space: boundary vertices lose their
    ``_fixed_kinds``, hanging vertices all four DOFs to their master edges."""
    return 4 * (len(mesh.vertex_keys) - len(mesh.hanging)) - int(_fixed_kinds(mesh).sum())


def uniform_free_dofs(level: int) -> int:
    """``count_free_dofs`` of the uniform mesh of ``level`` without building it."""
    return 4 ** (level + 1)


def interpolate_boundary(space: BfsSpace, g, grad_g) -> tuple[np.ndarray, np.ndarray]:
    """The Dirichlet DOFs, ``_fixed_kinds`` by vertex, and their values.

    ``grad_g`` is the gradient of an extension of g; only its tangential
    components are used.
    """
    fixed = _fixed_kinds(space.mesh)
    idx = np.flatnonzero(fixed[:, V])
    x, y = space.mesh.vertex_coords[idx, 0], space.mesh.vertex_coords[idx, 1]
    data = (g(x, y), *grad_g(x, y))
    values = np.column_stack([np.broadcast_to(np.asarray(d, dtype=float), idx.shape) for d in data])
    return (4 * idx[:, None] + np.array([V, DX, DY]))[fixed[idx]], values[fixed[idx]]
