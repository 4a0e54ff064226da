#!/usr/bin/env python3
"""Print SHA-256 digests of one run's history, of each row and of each marking.

Takes the flags of ``macert`` except ``--out``, iterates the refinement
steps of ``macert.bench.steps`` and prints the digest of the ``.dat`` text
``macert`` would write, then one line per step with the free DOFs, the
linear solves, why policy iteration stopped (``SolveResult.stop``), the LU
factorisations among the solves, the entries of L and U of the last one
(``SolveResult.lu_nnz``), the band index j of the certificate, the number
of lower hull facets, the digest of that step's ``.dat`` row, the number of
marked cells and the digest of the marked cell rows (sorted int64).  A run
that aborts prints the lines of its finished steps, then ``error: ...`` on
stderr, and exits with code 2, as ``macert`` does.  Two checkouts produce
the same histories, stops, markings, factorisation counts, LU sizes, bands
and hulls exactly when these lines are equal, and a ``diff`` of the two
outputs names the steps whose rows changed:

    PYTHONPATH=src python scripts/history_digest.py --experiment 1 \\
        --mode adaptive --max-ndof 3000 --initial-level 0
"""
import hashlib
import pathlib
import sys
import tempfile

import numpy as np

from macert.bench import emit_dat, steps
from macert.cli import build_parser, parse_config
from macert.hjb import SolverError


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = build_parser()
    parser.prog = "history_digest.py"
    argv = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "history.dat"
        config, _ = parse_config(parser, [*argv, "--out", str(out)])
        rows, marks, counts, error = [], [], [], None
        try:
            for step in steps(config):
                rows.append(step.row)
                marks.append(np.asarray(step.marked, dtype=np.int64))
                counts.append(
                    (step.solve.stop, step.solve.factorisations, step.solve.lu_nnz,
                     step.certificate.j, len(step.hull.planes))
                )
        except SolverError as exc:
            error = exc
        if not rows and error is None:
            parser.error("the initial mesh already exceeds --max-ndof")
        text = b""
        if rows:
            emit_dat(rows, out)
            text = out.read_bytes()
    if rows:
        print(f"dat {sha(text)}  rows {len(rows)}")
    lines = text.splitlines()[1:]  # one per row, after the header
    for k, (row, marked, (stop, fact, fill, j, facets), line) in enumerate(
            zip(rows, marks, counts, lines)):
        print(f"step {k:>3d}  ndof {row.ndof:>7d}  niter {row.niter:>3d}  stop {stop:<8s}  "
              f"lu {fact:>3d}  lu_nnz {fill:>9d}  "
              f"j {j:>4d}  facets {facets:>7d}  "
              f"row {sha(line)[:16]}  marked {len(marked):>6d}  {sha(marked.tobytes())}")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
