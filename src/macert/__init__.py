"""Certified C1 finite element solver for the Monge-Ampere equation.

The equation det D2u = (f/2)^2 on the unit square is regularised into a
uniformly elliptic Bellman-type problem, discretised with Bogner-Fox-Schmit
bicubics on adaptively refined quadtree meshes, and post-processed through
the convex envelope of the discrete solution to obtain guaranteed
L-infinity error bounds.
"""

from .bench import (
    EXPERIMENTS, HistoryRow, RunConfig, emit_dat, norms_vs_exact, rate_fit, run, steps,
)
from .bfs import BfsSpace, FeFunction, QuadRule, interpolate_boundary
from .envelope import build_samples, contact_set, lower_hull
from .estimator import ErrorCertificate, indicators_and_mark, rhs0, rhs_eps, select_j
from .geometry import RectMesh, init_uniform, min_edge_length, refine
from .hjb import HjbProblem, solve

__all__ = [
    "EXPERIMENTS",
    "HistoryRow",
    "RunConfig",
    "emit_dat",
    "norms_vs_exact",
    "rate_fit",
    "run",
    "steps",
    "BfsSpace",
    "FeFunction",
    "QuadRule",
    "interpolate_boundary",
    "build_samples",
    "contact_set",
    "lower_hull",
    "ErrorCertificate",
    "indicators_and_mark",
    "rhs0",
    "rhs_eps",
    "select_j",
    "RectMesh",
    "init_uniform",
    "min_edge_length",
    "refine",
    "HjbProblem",
    "solve",
]
