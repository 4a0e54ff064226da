"""Command-line driver for the benchmark convergence studies."""
from __future__ import annotations

import argparse
import sys

from .bench import RunAborted, RunConfig, emit_dat, run
from .bfs import uniform_free_dofs


def build_parser() -> argparse.ArgumentParser:
    """The run flags; each left out takes its ``RunConfig`` default."""
    p = argparse.ArgumentParser(
        prog="macert",
        description=(
            "Solve a Monge-Ampere benchmark with the regularised C1 Galerkin "
            "method and write the convergence history as a .dat file."
        ),
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--experiment", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--mode", choices=("uniform", "adaptive"))
    p.add_argument("--epsilon", dest="eps", type=float, help="regularisation parameter; "
                   "defaults to 1e-3 (experiments 1-2) or 1e-4 (experiment 3)")
    p.add_argument("--max-ndof", type=int)
    p.add_argument("--initial-level", type=int)
    p.add_argument("--out", required=True, help="output .dat path")
    return p


def parse_config(parser: argparse.ArgumentParser, argv=None) -> tuple[RunConfig, str]:
    """The ``RunConfig`` and ``--out`` path of ``argv``; a value that
    ``RunConfig`` rejects is a usage error."""
    kw = vars(parser.parse_args(argv))
    out = kw.pop("out")
    try:
        return RunConfig(**kw), out
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    config, out = parse_config(parser, argv)
    try:
        rows = run(config)
    except RunAborted as exc:
        if exc.rows:
            emit_dat(exc.rows, out)
            print(f"wrote partial history ({len(exc.rows)} rows) to {out}")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        ndof = uniform_free_dofs(config.initial_level)
        parser.error(f"max_ndof {config.max_ndof} is below the {ndof} free DOFs "
                     "of the initial mesh")
    emit_dat(rows, out)
    for row in rows:
        print(
            f"ndof {row.ndof:>8d}  Linf {row.Linferr:.4e}  LHS {row.LHS:.4e}  "
            f"RHS0 {row.eta2:.4e}  niter {row.niter}"
        )
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
