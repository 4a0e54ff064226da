#!/usr/bin/env python3
"""Print the resident memory around each stage of every refinement step.

Takes the flags of ``macert`` except ``--out`` and runs one history with
BLAS pinned to one thread, as ``perfbench/run.py`` does.  It wraps the names
the refinement loop looks up at call time (``solve``, ``splu``, ``_certify``,
``lower_hull``, ``norms_vs_exact``, ``_envelope_error``) and prints, per
call, the step, the stage, VmRSS before and after and VmHWM after, in MB,
from ``/proc/self/status`` (elsewhere the peak is ``ru_maxrss`` and the
current size reads nan).  The stage after which VmHWM first rises to a
new value is the one that set the peak:

    PYTHONPATH=src python scripts/stage_memory.py --experiment 3 \\
        --mode uniform --max-ndof 17000 --initial-level 0
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools  # noqa: E402
import importlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from macert.bench import run  # noqa: E402
from macert.cli import build_parser, parse_config  # noqa: E402

STAGES = (
    ("macert.bench", "solve"),
    ("scipy.sparse.linalg", "splu"),
    ("macert.bench", "_certify"),
    ("macert.envelope", "lower_hull"),
    ("macert.bench", "norms_vs_exact"),
    ("macert.bench", "_envelope_error"),
)


def memory() -> tuple[float, float]:
    """(VmRSS, VmHWM) of this process in MB; VmRSS is nan off Linux."""
    try:
        with open("/proc/self/status") as fh:
            kb = dict(line.split(":", 1) for line in fh if line.startswith("Vm"))
        return int(kb["VmRSS"].split()[0]) / 1024, int(kb["VmHWM"].split()[0]) / 1024
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float("nan"), peak / (2**20 if sys.platform == "darwin" else 1024)


def wrap(name, fn, step):
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        if name == "solve":
            step[0] += 1
        before = memory()[0]
        result = fn(*args, **kwargs)
        rss, hwm = memory()
        print(f"{step[0]:>4d}  {name:<16s} {before:8.1f} {rss:8.1f} {hwm:8.1f}", flush=True)
        return result

    return measured


def main(argv=None) -> int:
    parser = build_parser()
    parser.prog = "stage_memory.py"
    argv = sys.argv[1:] if argv is None else argv
    config, _ = parse_config(parser, [*argv, "--out", os.devnull])
    step = [-1]
    for module, name in STAGES:
        owner = importlib.import_module(module)
        setattr(owner, name, wrap(name, getattr(owner, name), step))
    print(f"step  {'stage':<16s} {'rss0':>8s} {'rss1':>8s} {'hwm':>8s}   (MB)")
    rows = run(config)
    print(f"rows {len(rows)}  final ndof {rows[-1].ndof if rows else 0}  "
          f"peak {memory()[1]:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
