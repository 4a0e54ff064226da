"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ex2-adaptive --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  Every history is one call of
``macert.bench.run`` from ``src/`` in a fresh child process with BLAS pinned
to one thread, one child at a time: a closed loop with one client.  The
problems have no random input, so the seed only shuffles the order in which
histories and set-up probes interleave.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced histories and prints the
per-layer metrics, each the median over the traced histories.  The last line
of output is one JSON object; the exit code is 1 when any history fails its
check, and 2 when the checkout has no sources to run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # a run has to end within 180 s
SETUP_PROBES = 3  # set-up-only children per untraced history
# printed beside certified_frac (its complement); no metric of BENCHMARK.json
# may read 0, so the bound sits on certified_frac
FAILED_FRAC = {"name": "failed_frac", "unit": "1"}


def spawn(mode: str, workload: Workload, deadline: float) -> dict | None:
    """One child process; its JSON result, or None when it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    spec = json.dumps(workload.spec())
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(started), spec, mode],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} child of {workload.name} passed the deadline", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{mode} child of {workload.name} printed no result", file=sys.stderr)
        return None


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Children in seed-shuffled blocks until the next block would pass ``seconds``."""
    rng = random.Random(seed)
    block = ["plain", "trace"] if trace else ["plain"] + ["setup"] * SETUP_PROBES
    runs: dict[str, list[dict]] = {"plain": [], "trace": [], "setup": []}
    crashed: list[str] = []
    start = time.monotonic()
    slowest = 0.0
    while not crashed:
        order = rng.sample(block, len(block))
        began = time.monotonic()
        for mode in order:
            result = spawn(mode, workload, start + DEADLINE_S)
            if result is None:
                crashed.append(mode)
                break
            runs[mode].append(result)
        now = time.monotonic()
        slowest = max(slowest, now - began)
        if now - start + slowest > seconds:
            break
    return {"runs": runs, "crashed": crashed}


def summarise(workload: Workload, measured: dict) -> dict:
    """Check outcome, step counts and every metric's samples."""
    runs, crashed = measured["runs"], measured["crashed"]
    histories = runs["plain"] + runs["trace"]
    attempted = sum(h["attempted"] for h in histories)
    failed = sum(h["failed"] for h in histories)
    lost = sum(mode != "setup" for mode in crashed)  # histories that crashed
    attempted = max(attempted + lost * workload.steps, 1)
    failed += lost * workload.steps
    digests = {h["digest"] for h in histories}
    plain = runs["plain"]
    samples = {
        "wall_s": [h["wall_s"] for h in plain],
        "setup_s": [c["setup_s"] for mode in runs for c in runs[mode]],
        "peak_rss_mb": [h["peak_rss_mb"] for h in plain],
        "rhs0_final": [h["rhs0_final"] for h in plain if h["rhs0_final"] is not None],
        # one value over every step attempted, crashed histories included
        "failed_frac": [failed / attempted],
        "certified_frac": [1.0 - failed / attempted],
        "run.cpu_s": [h["cpu_s"] for h in plain],
    }
    traced = runs["trace"]
    for name in sorted({m for h in traced for m in h["layers"]}):
        samples[name] = [h["layers"][name] for h in traced if name in h["layers"]]
    if traced:
        samples["bench.steps"] = [h["steps"] for h in traced]
    if traced and plain:
        samples["trace.overhead_s"] = [
            statistics.median(h["wall_s"] for h in traced)
            - statistics.median(h["wall_s"] for h in plain)
        ]
    first = next(iter(histories), {})
    return {
        "correct": not crashed and failed == 0 and len(digests) <= 1 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "samples": {k: v for k, v in samples.items() if v},
        "sample_counts": {"failed_frac": attempted, "certified_frac": attempted},
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": first.get("numpy"),
            "scipy": first.get("scipy"),
            "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_seen": first.get("blas_threads"),
        },
        "absent_targets": sorted({t for h in traced for t in h["absent_targets"]}),
        "errors": sorted({h["error"] for h in histories if h["error"]}),
        "crashed": crashed,
        "distinct_histories": len(digests),
    }


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, above the median."""
    n = len(values)
    k = n - 10
    if k < (n + 1) // 2:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


def report(summary: dict, metrics: list[dict], extra: list[dict]) -> dict:
    """Print the metric table and return the result object (``metrics`` only)."""
    print(json.dumps({"machine": summary["machine"]}))
    values = {}
    absent = []
    for m in metrics + extra:
        got = summary["samples"].get(m["name"])
        if got is None:
            absent.append(m["name"])
            continue
        value = statistics.median(got)
        if m in metrics:
            values[m["name"]] = {"value": value, "unit": m["unit"]}
        t = tail(got)
        more = f"  p{t[0]:.0f} {t[1]:.6g}" if t else ""
        n = summary["sample_counts"].get(m["name"], len(got))
        print(f"{m['name']:28s} {value:14.6g} {m['unit']:6s} n={n}{more}")
    if absent:
        print("absent: " + " ".join(absent))
    for key in ("absent_targets", "errors", "crashed"):
        if summary[key]:
            print(f"{key}: {summary[key]}")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    definitions = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "macert" / "__init__.py").is_file() or not definitions.is_file():
        print(f"no macert sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(definitions.read_text())
    workload = WORKLOADS[args.workload]
    summary = summarise(workload, measure(workload, args.seed, args.seconds, bool(args.trace)))
    if args.trace:
        result = report(summary, bench["per_layer"], [])
    else:
        result = report(summary, bench["end_to_end"], [FAILED_FRAC])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, **summary, "result": result})
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
