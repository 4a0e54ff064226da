"""Benchmark problems, the refinement driver and convergence-history output.

The three test cases approximate known Alexandrov solutions on the unit
square.  Each registry entry carries the exact solution with derivatives
and the right-hand-side field ``f = 2 sqrt(det D2 u)`` consumed by the
regularised operator, which normalises the Monge-Ampere density ``det D2 u``
as (f/2)^2 in two dimensions.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

from . import envelope as env
from . import estimator as est
from .bfs import BfsSpace, FeFunction, count_free_dofs, interpolate_boundary, uniform_free_dofs
from .geometry import MAX_LEVEL, check_integer, init_uniform, refine
from .hjb import QUAD, HjbProblem, SolveResult, SolverError, check_eps, solve

_TINY = 1e-300
# Certificate samples are taken no coarser than on a 4x4 grid: 1/4 is the
# coarsest mesh on which the band sweep can leave j = 0, and one 5x5 rule on
# the 1x1 or 2x2 mesh misjudges the contact set and ||f - f_h||.
_SAMPLE_LEVEL = 2
_BOUNDARY_SEGMENTS = 4  # hull samples subdivide every boundary edge this often
_TRACE_REFINE = 4  # the trace grid splits every hull segment this often; even, to hold midpoints
_LINF_GRID = 8  # points per direction of the per-cell L-infinity grid, corners included


@dataclass(frozen=True)
class ExactSolution:
    u: object
    grad: object
    hess: object


@dataclass(frozen=True)
class Experiment:
    """One benchmark: exact solution, data fields and default regularisation."""

    default_eps: float
    exact: ExactSolution
    f: object  # HJB right-hand side, 2 sqrt(det D2 u)
    g: object
    grad_g: object


def _zeros(x, y):
    """The zero field on the broadcast shape of x and y."""
    return np.zeros_like(np.asarray(x, dtype=float) + 0.0 * np.asarray(y))


def _experiment1() -> Experiment:
    # radial solution (2r)^{3/2}/3 of det D2u = 1/r; density singular at the
    # origin corner, which quadrature points never hit
    def u(x, y):
        return (2.0 * np.hypot(x, y)) ** 1.5 / 3.0

    def grad(x, y):
        r0 = np.hypot(x, y)
        r = np.where(r0 > 0, r0, 1.0)
        c = np.where(r0 > 0, np.sqrt(2.0 / r), 0.0)
        return c * x, c * y

    def hess(x, y):
        r0 = np.hypot(x, y)
        r = np.where(r0 > 0, r0, 1.0)
        a = 1.0 / np.sqrt(2.0 * r)  # radial curvature
        b = np.sqrt(2.0 / r)  # tangential curvature
        r2 = r * r
        zero = r0 <= 0
        return (
            np.where(zero, 0.0, (a * x**2 + b * y**2) / r2),
            np.where(zero, 0.0, (a - b) * x * y / r2),
            np.where(zero, 0.0, (a * y**2 + b * x**2) / r2),
        )

    def f(x, y):
        r0 = np.hypot(x, y)
        return 2.0 / np.sqrt(np.where(r0 > 0, r0, _TINY))

    return Experiment(
        1e-3,
        ExactSolution(u, grad, hess),
        f,
        u,
        grad,
    )


def _experiment2() -> Experiment:
    # u = |x - 1/2| is the convex envelope of its boundary data; density 0
    def u(x, y):
        return np.abs(np.asarray(x, dtype=float) - 0.5) + 0.0 * np.asarray(y)

    def grad(x, y):
        return np.sign(np.asarray(x, dtype=float) - 0.5), _zeros(x, y)

    def hess(x, y):
        return _zeros(x, y), _zeros(x, y), _zeros(x, y)

    return Experiment(
        1e-3,
        ExactSolution(u, grad, hess),
        _zeros,
        u,
        grad,
    )


def _experiment3() -> Experiment:
    # u = -(1/sin(pi x) + 1/sin(pi y))^{-1}; the density pi^4 s^2 t^2 (2 - st)
    # / (s+t)^4 oscillates near the corners and vanishes on the edges
    def _st(x, y):
        return np.sin(np.pi * np.asarray(x, dtype=float)), np.sin(
            np.pi * np.asarray(y, dtype=float)
        )

    def u(x, y):
        s, t = _st(x, y)
        den = np.where(s + t > 0, s + t, 1.0)
        return np.where(s + t > 0, -s * t / den, 0.0)

    def grad(x, y):
        s, t = _st(x, y)
        cx = np.pi * np.cos(np.pi * np.asarray(x, dtype=float))
        cy = np.pi * np.cos(np.pi * np.asarray(y, dtype=float))
        ok = s + t > 0
        den2 = np.where(ok, (s + t) ** 2, 1.0)
        return (
            np.where(ok, -cx * t**2 / den2, 0.0),
            np.where(ok, -cy * s**2 / den2, 0.0),
        )

    def hess(x, y):
        s, t = _st(x, y)
        cx = np.cos(np.pi * np.asarray(x, dtype=float))
        cy = np.cos(np.pi * np.asarray(y, dtype=float))
        p2 = np.pi**2
        ok = s + t > 0
        den = np.where(ok, s + t, 1.0)
        uxx = p2 * s * t**2 / den**2 + 2 * p2 * cx**2 * t**2 / den**3
        uyy = p2 * t * s**2 / den**2 + 2 * p2 * cy**2 * s**2 / den**3
        uxy = -2 * p2 * cx * cy * s * t / den**3
        return np.where(ok, uxx, 0.0), np.where(ok, uxy, 0.0), np.where(ok, uyy, 0.0)

    def f(x, y):
        s, t = _st(x, y)
        den = np.where(s + t > 0, s + t, _TINY)
        return 2.0 * np.pi**2 * s * t * np.sqrt(2.0 - s * t) / den**2

    def zgrad(x, y):
        return _zeros(x, y), _zeros(x, y)

    return Experiment(
        1e-4,
        ExactSolution(u, grad, hess),
        f,
        _zeros,
        zgrad,
    )


EXPERIMENTS: dict[int, Experiment] = {
    1: _experiment1(),
    2: _experiment2(),
    3: _experiment3(),
}

@dataclass(frozen=True)
class HistoryRow:
    """One refinement step in the paper-compatible 10-column layout.

    ``eta2`` is the certified envelope bound, ``LHS`` the sampled envelope
    error it controls, ``eta`` the companion bound for the regularised
    problem.
    """

    ndof: int
    hinv: float
    Linferr: float
    LHS: float
    L2error: float
    H1error: float
    H2error: float
    eta: float
    eta2: float
    niter: int

    def column(self, name: str) -> float:
        return float(getattr(self, name))


DAT_COLUMNS = tuple(f.name for f in fields(HistoryRow))


@dataclass(frozen=True)
class RunConfig:
    experiment: int
    mode: str = "uniform"  # or "adaptive"
    eps: float | None = None
    max_ndof: int = 20000
    initial_level: int = 1

    def __post_init__(self):
        # before the registry lookup, where True and 1.0 would find experiment 1
        for name in ("experiment", "max_ndof", "initial_level"):
            check_integer(name, getattr(self, name))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment}")
        if self.mode not in ("uniform", "adaptive"):
            raise ValueError(f"mode must be uniform or adaptive, got {self.mode!r}")
        if not 0 <= self.initial_level <= MAX_LEVEL:  # the finest level a mesh holds
            raise ValueError(f"initial_level must be at least 0 and at most {MAX_LEVEL}, "
                             f"got {self.initial_level}")
        if self.eps is not None:
            check_eps(self.eps, scalar=True)

    def resolved_eps(self) -> float:
        return EXPERIMENTS[self.experiment].default_eps if self.eps is None else self.eps


class RunAborted(RuntimeError):
    """Solver or refinement failure mid-run; carries the rows finished so far."""

    def __init__(self, message: str, rows: list[HistoryRow]):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class Step:
    """One refinement step: its row, the solver result (``solve.u_h`` is v_h),
    the lower hull of v_h, the certificate RHS0 and the sorted rows of the
    cells of the step's mesh marked for splitting."""

    row: HistoryRow
    solve: SolveResult
    hull: env.LowerHull
    certificate: est.ErrorCertificate
    marked: np.ndarray


def prolongate(v_h: FeFunction, fine_space: BfsSpace) -> np.ndarray:
    """Coefficients of v_h re-interpolated on a one-step-refined mesh.

    Every fine vertex is a corner, edge midpoint or centre of some coarse
    leaf, so the nodal data comes from a 3x3 lattice evaluation per coarse
    cell, keyed by its vertex key at the coarse resolution.  The mixed
    derivative may jump across coarse edges; the last cell in cell order
    that holds a point gives its value, which is fine for a warm start.
    """
    coarse = v_h.space.mesh
    lattice = _cell_grid(3)
    vals = v_h.on_cells(np.arange(len(coarse)), lattice, what=("N", "Nx", "Ny", "Nxy"))
    data = np.stack([vals[k] for k in ("N", "Nx", "Ny", "Nxy")], axis=-1).reshape(-1, 4)
    R = coarse.res
    step = (R >> (coarse.levels + 1))[:, None]  # half a cell at the coarse resolution
    a, b = (2 * lattice.T).astype(np.int64)
    kx = 2 * coarse.cell_array[:, 1:2] * step + a * step
    ky = 2 * coarse.cell_array[:, 2:3] * step + b * step
    # last occurrence of each key: first occurrence in the reversed order
    keys, first = np.unique((ky * (R + 1) + kx).ravel()[::-1], return_index=True)
    scale = fine_space.mesh.res // R  # fine keys live at a finer resolution
    fx, fy = (fine_space.mesh.vertex_keys // scale).T
    rows = (len(data) - 1 - first)[np.searchsorted(keys, fy * (R + 1) + fx)]
    return data[rows].ravel()


def steps(config: RunConfig):
    """Refinement loop: solve, certify, mark and refine until the budget.

    Yields one ``Step`` per mesh whose free DOFs fit ``config.max_ndof``.
    Each solve after the first starts from the previous solution prolongated
    to the refined mesh.  A solver failure, or a refinement past the finest
    level a ``RectMesh`` holds, raises ``SolverError`` naming the DOFs of the
    mesh it failed on.  Between steps the loop keeps only the mesh, the
    marked rows and, until its prolongation, the previous solution: a step
    the caller has let go of is freed before the next solve.
    """
    exp = EXPERIMENTS[config.experiment]
    eps = config.resolved_eps()
    problem = HjbProblem(eps, exp.f)
    if uniform_free_dofs(config.initial_level) > config.max_ndof:
        return  # before building a mesh that may not fit in memory
    mesh = init_uniform(config.initial_level)
    prev: FeFunction | None = None
    while count_free_dofs(mesh) <= config.max_ndof:
        space = BfsSpace(mesh)
        reduction = space.reduction(*interpolate_boundary(space, exp.g, exp.grad_g))
        initial = prolongate(prev, space) if prev is not None else None
        ndof, prev = reduction.ndof, None
        try:
            result = solve(space, problem, reduction=reduction, initial=initial)
        except SolverError as exc:
            raise SolverError(f"solver failed at ndof {ndof}: {exc}") from exc
        del reduction, initial  # inputs of the solve only
        step = _finish_step(result, ndof, exp, eps, config.mode)
        prev, marked = result.u_h, step.marked
        yield step
        del step, result  # the caller holds the step for as long as it needs it
        try:
            mesh = refine(mesh, marked)
        except ValueError as exc:  # the marked rows are valid, so the level cap
            raise SolverError(f"refinement failed at ndof {ndof}: {exc}") from exc


def _finish_step(result: SolveResult, ndof: int, exp: Experiment, eps: float, mode: str) -> Step:
    """The step of a solve: certificates, exact-error diagnostics and marks."""
    v_h = result.u_h
    mesh = v_h.space.mesh
    hull, cert, eta, edge_errors = _certify(result, exp, eps)
    linf, l2, h1, h2 = norms_vs_exact(v_h, exp.exact)
    row = HistoryRow(
        ndof=ndof,
        hinv=1.0 / (np.sqrt(2.0) * mesh.max_cell_size()),
        Linferr=linf,
        LHS=_envelope_error(v_h, exp.exact, hull),
        L2error=l2,
        H1error=h1,
        H2error=h2,
        eta=eta,
        eta2=cert.rhs0,
        niter=result.niter,
    )
    marked = []
    if mode == "adaptive":
        marked = est.indicators_and_mark(cert, edge_errors, mesh)
    if not len(marked):  # uniform, or vanished indicator and boundary error
        marked = np.arange(len(mesh))
    return Step(row, result, hull, cert, marked)


def run(config: RunConfig) -> list[HistoryRow]:
    """The rows of ``steps(config)``; a solver or refinement failure raises
    ``RunAborted`` with the rows finished so far."""
    rows: list[HistoryRow] = []
    try:
        for step in steps(config):
            rows.append(step.row)
            del step  # the last reference: its hull and solution go before the next solve
    except SolverError as exc:
        raise RunAborted(str(exc), rows) from exc
    return rows


def _certify(result: SolveResult, exp: Experiment, eps: float):
    """Hull of v_h, certificate RHS0, bound RHS_eps and per-edge trace errors.

    The samples are the points of ``QUAD`` on every leaf, no coarser than
    ``_SAMPLE_LEVEL``, plus ``_BOUNDARY_SEGMENTS`` segments on every boundary
    edge; they serve the hull, the contact set and both data-error quadratures.
    When no leaf is coarser than ``_SAMPLE_LEVEL``, the interior samples are
    the solve's ``QUAD`` points in the same order, so f is read from
    ``result.fvals``; otherwise it is evaluated at the samples.
    The one boundary evaluation of v_h and of g has ``_TRACE_REFINE`` times as
    many segments: the hull reads every ``_TRACE_REFINE``-th value of v_h, the
    boundary residual the samples and midpoints of g, the trace error all.
    """
    v_h = result.u_h
    mesh = v_h.space.mesh
    samples = env.build_samples(mesh, QUAD, per_edge=_BOUNDARY_SEGMENTS, min_level=_SAMPLE_LEVEL)
    fields = samples.interior_fields(v_h, ("N", "Nxx", "Nxy", "Nyy"))
    hessians = (fields["Nxx"], fields["Nxy"], fields["Nyy"])
    n = _TRACE_REFINE * _BOUNDARY_SEGMENTS
    edge_vals, edge_pts = env.edge_values(v_h, np.arange(n + 1) / n)
    # N goes once copied: the hull build sets the peak on large meshes, and
    # result.fvals is alive through it
    boundary = samples.boundary_values(edge_vals[:, ::_TRACE_REFINE])
    values = np.concatenate([fields.pop("N"), boundary])
    hull = env.lower_hull(samples, values)
    contact = env.contact_set(hull, hessians)
    if mesh.min_level >= _SAMPLE_LEVEL:
        fvals = result.fvals.ravel()
    else:
        fvals = exp.f(*samples.interior.T)
    # a constant g may come back as a scalar
    gvals = np.broadcast_to(exp.g(*np.moveaxis(edge_pts, -1, 0)), edge_vals.shape)
    mu = env.boundary_residual(hull, gvals[:, ::_TRACE_REFINE // 2])
    cert = est.rhs0(fvals, mu, samples, contact, hessians)
    edge_errors, boundary_err = est.max_boundary_trace_error(edge_vals, gvals)
    eta = est.rhs_eps(fvals, eps, samples, hessians, boundary_err).rhs0
    return hull, cert, eta, edge_errors


def _cell_grid(n: int) -> np.ndarray:
    """The n x n grid of the reference cell, corners included."""
    t = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(t, t, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def norms_vs_exact(v_h: FeFunction, exact: ExactSolution) -> tuple[float, float, float, float]:
    """(Linf, L2, H1, H2) distances between v_h and an exact solution.

    L2/H1/H2 are full Sobolev norms computed by the ``QUAD`` quadrature;
    Linf is the max over the ``QUAD`` points plus the ``_LINF_GRID`` grid
    of every cell.
    """
    mesh = v_h.space.mesh
    cells = np.arange(len(mesh))
    flat = mesh.cell_points(cells, QUAD.ref_points).reshape(-1, 2)
    areas = mesh.cell_sizes() ** 2
    w = (areas[:, None] * QUAD.ref_weights[None, :]).ravel()

    vals = v_h.on_cells(cells, QUAD.ref_points, what=("N", "Nx", "Ny", "Nxx", "Nxy", "Nyy"))
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
    grid = _cell_grid(_LINF_GRID)
    gpts = mesh.cell_points(cells, grid).reshape(-1, 2)
    gvals = v_h.on_cells(cells, grid, what=("N",))["N"].ravel()
    linf = max(linf, float(np.max(np.abs(gvals - exact.u(gpts[:, 0], gpts[:, 1])))))
    return linf, np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(h2sq)


def _envelope_error(v_h, exact, hull) -> float:
    """Sampled sup of |u - envelope| over the points of ``Linferr``: the
    ``QUAD`` points and the ``_LINF_GRID`` grid of every cell.

    The hull was sampled on this mesh by ``_certify``, so on leaves at
    ``_SAMPLE_LEVEL`` or finer the ``QUAD`` points are its interior samples,
    read by row, and the envelope there is ``hull.gamma``.  Only the other
    points are evaluated.
    """
    mesh, samples = v_h.space.mesh, hull.samples
    cells = np.arange(len(mesh))
    shared = mesh.levels >= _SAMPLE_LEVEL
    first = np.searchsorted(samples.cell_index, cells[shared])
    rows = (first[:, None] + np.arange(QUAD.npoints)).ravel()
    other = np.vstack([
        mesh.cell_points(cells[~shared], QUAD.ref_points).reshape(-1, 2),
        mesh.cell_points(cells, _cell_grid(_LINF_GRID)).reshape(-1, 2),
    ])
    worst = 0.0
    for pts, gamma in ((samples.interior[rows], hull.gamma[rows]), (other, hull.evaluate(other))):
        err = np.abs(exact.u(pts[:, 0], pts[:, 1]) - gamma)
        worst = max(worst, float(np.max(err, initial=0.0)))
    return worst


def emit_dat(rows: list[HistoryRow], path) -> None:
    """Whitespace-separated history file, bit-stable across reruns."""
    if not rows:
        raise ValueError("no rows to emit")
    buf = io.StringIO()
    buf.write("\t".join(DAT_COLUMNS) + "\n")
    for row in rows:
        buf.write("   ".join(f"{row.column(c):.16e}" for c in DAT_COLUMNS) + "\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def read_dat(path) -> list[HistoryRow]:
    """The rows of a history file, blank lines skipped.  A row with the wrong
    token count or a non-integral ndof or niter raises ValueError naming its line."""
    rows = []
    with open(path) as fh:
        header = fh.readline().split()
        if tuple(header) != DAT_COLUMNS:
            raise ValueError(f"unexpected header {header}")
        for lineno, line in enumerate(fh, start=2):
            tokens = line.split()
            if not tokens:
                continue
            try:
                if len(tokens) != len(DAT_COLUMNS):
                    raise ValueError(f"{len(tokens)} tokens, expected {len(DAT_COLUMNS)}")
                kw = {name: float(tok) for name, tok in zip(DAT_COLUMNS, tokens)}
                for name in ("ndof", "niter"):
                    if not kw[name].is_integer():
                        raise ValueError(f"{name} {kw[name]!r} is not an integer")
                    kw[name] = int(kw[name])
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            rows.append(HistoryRow(**kw))
    return rows


def rate_fit(rows: list[HistoryRow], column: str, window: int | None = None) -> float:
    """Least-squares slope of log(column) against log(ndof).

    ``window`` keeps the trailing rows, an integer at least 2.  Raises
    ``ValueError`` on an unknown column, a bad window or a value that is
    not finite and positive, such as ``nan``.
    """
    if column not in DAT_COLUMNS:
        raise ValueError(f"unknown column {column!r}, expected one of {', '.join(DAT_COLUMNS)}")
    if window is not None:
        check_integer("window", window, 2)
        rows = rows[-window:]
    if len(rows) < 2:
        raise ValueError("need at least two rows to fit a rate")
    x = np.log([r.ndof for r in rows])
    vals = np.array([r.column(column) for r in rows])
    if not np.all(np.isfinite(vals) & (vals > 0)):
        raise ValueError(f"values in column {column} must be finite and positive")
    return float(np.polyfit(x, np.log(vals), 1)[0])
