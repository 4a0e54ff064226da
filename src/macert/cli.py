"""Command-line driver for the benchmark convergence studies."""
from __future__ import annotations

import argparse
import sys

from .bench import RunAborted, RunConfig, emit_dat, run
from .bfs import count_free_dofs
from .geometry import init_uniform


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="macert",
        description=(
            "Solve a Monge-Ampere benchmark with the regularised C1 Galerkin "
            "method and write the convergence history as a .dat file."
        ),
    )
    p.add_argument("--experiment", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--mode", choices=("uniform", "adaptive"), default="uniform")
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="regularisation parameter; defaults to 1e-3 (experiments 1-2) "
        "or 1e-4 (experiment 3)",
    )
    p.add_argument("--max-ndof", type=int, default=20000)
    p.add_argument("--initial-level", type=int, default=1)
    p.add_argument("--quad-degree", type=int, default=5)
    p.add_argument(
        "--boundary-segments",
        type=int,
        default=4,
        help="hull subdivisions of every boundary edge (at least 1)",
    )
    p.add_argument("--linf-samples", type=int, default=8)
    p.add_argument("--out", required=True, help="output .dat path")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            experiment=args.experiment,
            mode=args.mode,
            eps=args.epsilon,
            max_ndof=args.max_ndof,
            initial_level=args.initial_level,
            quad_degree=args.quad_degree,
            boundary_segments=args.boundary_segments,
            linf_samples=args.linf_samples,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        rows = run(config)
    except RunAborted as exc:
        if exc.rows:
            emit_dat(exc.rows, args.out)
            print(f"wrote partial history ({len(exc.rows)} rows) to {args.out}")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        ndof = count_free_dofs(init_uniform(config.initial_level))
        parser.error(f"max_ndof {config.max_ndof} is below the {ndof} free DOFs "
                     "of the initial mesh")
    emit_dat(rows, args.out)
    for row in rows:
        print(
            f"ndof {row.ndof:>8d}  Linf {row.Linferr:.4e}  LHS {row.LHS:.4e}  "
            f"RHS0 {row.eta2:.4e}  niter {row.niter}"
        )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
