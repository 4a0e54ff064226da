"""Guaranteed a posteriori L-infinity bounds and the adaptive marking rule.

For the unit square (n = 2, Alexandrov constant 1, diam = sqrt(2)) and
every interior band Omega_jd = [jd, 1-jd]^2 with jd < 1/2 the certified
bound of arXiv:2301.06805 reads

    RHS0 = mu + (1 - 2jd)/2 * ||f - f_h||_{L2(Omega_jd)}
              + 2**(1/4)/2 * sqrt(jd) * ||f - f_h||_{L2(Omega)}

with mu the boundary residual of the convex envelope and
f_h = 2 * chi_contact * sqrt(det D2_pw v_h).  The HJB variant replaces mu by
the boundary trace error of v_h itself and f_h by the exact pointwise
right-hand side xi(D2_pw v_h) of the regularised operator.  Both boundary
terms, f and v_h come in as numbers and sampled arrays; nothing is evaluated here.

The norms of f - f_h are quadrature values over the interior samples of a
``SampleSet`` (the same points decide the contact set), not bounds on the
true norms: the integrand jumps across the contact boundary and may be
singular, so they carry an unquantified quadrature error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import SampleSet
from .geometry import RectMesh, min_edge_length
from .hjb import xi_of_batch

SQRT2 = float(np.sqrt(2.0))


@dataclass
class ErrorCertificate:
    """Certified bound with its localisation data.

    ``per_element_eta`` holds the indicator eta_K of every cell, in cell
    order: jd*sqrt(2)*||f - f_h||^2_K + (1 - 2jd)^2*||f - f_h||^2_{K, inner},
    which sums to the two squared norms that enter ``rhs0``.
    """

    mu: float
    j: int
    delta: float
    data_err_inner: float
    data_err_global: float
    rhs0: float
    per_element_eta: np.ndarray
    sigma: float


def contact_density(v_h_hessians, contact: np.ndarray) -> np.ndarray:
    """f_h = 2 * chi * sqrt(det D2_pw v_h) at the interior samples."""
    m11, m12, m22 = v_h_hessians
    det = np.clip(m11 * m22 - m12**2, 0.0, None)
    return np.where(contact, 2.0 * np.sqrt(det), 0.0)


def bound_value(mu: float, jd: float, inner: float, glob: float) -> float:
    return mu + 0.5 * (1.0 - 2.0 * jd) * inner + 0.5 * 2.0**0.25 * np.sqrt(jd) * glob


def select_j(mu: float, dist: np.ndarray, wr2: np.ndarray, delta: float) -> int:
    """Smallest j whose bound is not improved by shrinking the band once more.

    ``dist`` is each interior sample's distance to the boundary and ``wr2``
    its weighted squared residual w * (f - f_h)**2.  Among j = 0, 1, ... with
    j*delta < 1/2 returns the first j with RHS0(j+1) > RHS0(j), or the last j
    when the bound never rises.  ``delta`` is a power of two (a cell size).
    A sample at distance d leaves Omega_jd at band b = floor(d/delta) + 1.
    Between two such bands the inner norm is fixed, so RHS0 is concave in j
    there: its steps shrink along the stretch, and a rise inside it comes
    first at the stretch's first band.  So the first rise can only fall at a
    candidate j in {0} or {b - 1, b} over the samples.  RHS0 is compared at
    each of these at most 2n + 1 candidates and the band after it in one
    pass, so the work is bounded by the sample count n, not by 1/delta.
    """
    order = np.argsort(dist, kind="stable")
    dist_sorted = dist[order]
    suffix = np.concatenate([np.cumsum(wr2[order][::-1])[::-1], [0.0]])
    last = max(1, int(np.ceil(0.5 / delta))) - 1
    d = dist_sorted[np.concatenate([[True], dist_sorted[1:] != dist_sorted[:-1]])]  # distinct
    held = (d * (1.0 / delta)).astype(np.int64)  # b - 1, exact as delta = 2**-m
    j = np.concatenate([[0], held, held + 1])
    jd = np.stack([j, j + 1]) * delta
    inner = np.sqrt(suffix[np.searchsorted(dist_sorted, jd, side="left")])
    vals = bound_value(mu, jd, inner, np.sqrt(suffix[0]))
    return int(j[(vals[1] > vals[0]) & (j < last)].min(initial=last))


def _certificate(mu, samples: SampleSet, residual, j=None) -> ErrorCertificate:
    """Certificate from the boundary term ``mu`` and the residual f - f_h at
    the interior samples, in the band ``j``, by default the one of ``select_j``."""
    mesh = samples.mesh
    delta = min_edge_length(mesh)
    wr2 = samples.weights * residual**2
    dist = samples.boundary_dist
    if j is None:
        j = select_j(mu, dist, wr2, delta)
    jd = j * delta
    inside = dist >= jd
    total = np.bincount(samples.cell_index, weights=wr2, minlength=len(mesh))
    inner = np.bincount(samples.cell_index[inside], weights=wr2[inside], minlength=len(mesh))
    inner_norm = float(np.sqrt(inner.sum()))
    global_norm = float(np.sqrt(total.sum()))
    rhs0_val = bound_value(mu, jd, inner_norm, global_norm)
    return ErrorCertificate(
        mu=float(mu),
        j=int(j),
        delta=delta,
        data_err_inner=inner_norm,
        data_err_global=global_norm,
        rhs0=float(rhs0_val),
        per_element_eta=jd * SQRT2 * total + (1.0 - 2.0 * jd) ** 2 * inner,
        sigma=float(rhs0_val - mu),
    )


def rhs0(fvals, mu: float, samples: SampleSet, contact: np.ndarray, hessians) -> ErrorCertificate:
    """Certificate for ||u - envelope(v_h)||_Linf from envelope outputs.

    ``mu`` is the boundary residual, e.g. ``boundary_residual``, which can
    undershoot sup |g - envelope| between the boundary samples.  f, ``contact``
    and ``hessians`` (m11, m12, m22) of v_h are given at the interior samples.
    """
    return _certificate(mu, samples, fvals - contact_density(hessians, contact))


def rhs_eps(fvals, eps: float, samples: SampleSet, hessians,
            boundary_err: float) -> ErrorCertificate:
    """Certificate for ||u_eps - v_h||_Linf via the exact HJB right-hand side.

    f_h(x) = xi(D2_pw v_h(x)) makes the regularised operator vanish at v_h
    pointwise, so the bound needs no envelope; the boundary term
    ``boundary_err`` is the trace error of v_h itself, the second value of
    ``max_boundary_trace_error``.  f and ``hessians`` (m11, m12, m22) of v_h
    are given at the interior samples.
    """
    return _certificate(boundary_err, samples, fvals - xi_of_batch(eps, *hessians))


def max_boundary_trace_error(vals: np.ndarray, gvals: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-boundary-edge and global sup of |g - v_h| over points of the boundary.

    ``vals`` and ``gvals`` (ne, nt) are v_h and g at the same points of every
    boundary edge, v_h as ``edge_values`` gives it; the per-edge errors are
    aligned with ``mesh.boundary_edges``.
    """
    errs = np.max(np.abs(gvals - vals), axis=1)
    return errs, float(errs.max(initial=0.0))


def indicators_and_mark(
    certificate: ErrorCertificate,
    edge_errors: np.ndarray,
    mesh: RectMesh,
) -> np.ndarray:
    """Marked cell rows, sorted: boundary-driven fifth or a minimal Doerfler set.

    ``edge_errors`` is aligned with ``mesh.boundary_edges``.  When sigma/10 <
    max |g - u_h| on the boundary, the cells owning the top fifth (rounded
    up) of boundary edges by trace error are marked; otherwise cells are
    ranked by indicator and the shortest prefix capturing half the total is
    taken.  Exact ties go to the lower cell row (cell-id order); values that
    agree in exact arithmetic but differ by rounding, as on cells mirrored
    across the diagonal, are ranked by their rounding.
    """
    if certificate.sigma / 10.0 < edge_errors.max(initial=0.0):
        owners = mesh.boundary_edges[:, 0]
        order = np.lexsort((owners, -edge_errors))
        return np.unique(owners[order[: int(np.ceil(len(order) / 5.0))]])
    eta = certificate.per_element_eta
    # sequential sums, as a loop over cells and then over the ranking adds;
    # np.sum is pairwise and cumsum - eta rounds otherwise
    total = np.cumsum(eta)[-1]
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-eta, kind="stable")
    before = np.concatenate([[0.0], np.cumsum(eta[order])[:-1]])
    return np.sort(order[: np.searchsorted(before, 0.5 * total)])
