"""Correctness check of one refinement history against its workload's reference."""
from __future__ import annotations

import math

# criterion 4's slack on LHS <= RHS0 (the ex2 first row sits 6e-17 above)
LHS_SLACK = 1e-10


def row_ok(row) -> bool:
    """A step passes when every column is finite and LHS <= eta2 + slack."""
    if not all(math.isfinite(float(v)) for v in vars(row).values()):
        return False
    return row.LHS <= row.eta2 + LHS_SLACK


def count_failures(rows, steps: int, final_ndof: int) -> tuple[int, int]:
    """(attempted, failed) steps of one history.

    Steps the history never reached (a ``RunAborted`` part-way) count as
    failed against the reference step count; a complete history whose last
    ndof differs from the reference fails its last step.
    """
    attempted = max(len(rows), steps)
    missing = attempted - len(rows)
    failed = missing + sum(not row_ok(r) for r in rows)
    if not missing and rows[-1].ndof != final_ndof and row_ok(rows[-1]):
        failed += 1
    return attempted, failed
