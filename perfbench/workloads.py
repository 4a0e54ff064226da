"""The benchmark's workloads: one refinement history each, with its reference shape.

Every workload starts from the 1x1 mesh (``initial_level=0``).  The budgets
are scaled so that several histories fit in one timed run; the reasons each
workload was chosen are recorded in ``BENCHMARK.json``.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # keyword arguments of macert.bench.RunConfig
    steps: int  # refinement steps in the reference history
    final_ndof: int  # ndof of the last step in the reference history

    def spec(self) -> dict:
        """JSON-ready description handed to a child process."""
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # corner singularity: crowded facets and hanging nodes, many small steps
        Workload(
            "ex1-adaptive",
            dict(experiment=1, mode="adaptive", max_ndof=3000, initial_level=0),
            steps=16,
            final_ndof=2740,
        ),
        # two-facet envelope, policy iteration and the select_j sweep dominate
        Workload(
            "ex2-adaptive",
            dict(experiment=2, mode="adaptive", eps=0.1, max_ndof=8000, initial_level=0),
            steps=23,
            final_ndof=6708,
        ),
        # no hanging nodes, x4 DOFs per step: the last LU sets time and memory
        Workload(
            "ex3-uniform",
            dict(experiment=3, mode="uniform", max_ndof=17000, initial_level=0),
            steps=7,
            final_ndof=16384,
        ),
    )
}
