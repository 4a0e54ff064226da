"""Self-test of the benchmark on tiny budgets of each workload.

    python3 perfbench/selftest.py

Run it from the root of a source checkout (about half a minute).  It checks
that every metric of ``BENCHMARK.json`` prints with its unit in both modes,
that each traced history's span self times sum to its wall time, that a
missing wrapper target leaves its metrics absent without stopping the run,
and that the correctness check trips on doctored rows.  Exits 1 on failure.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys

import run
from checks import count_failures
from tracer import TIMES, Tracer
from workloads import WORKLOADS

# max_ndof, steps and final ndof of a history that takes about a second
TINY = {
    "ex1-adaptive": (300, 10, 292),
    "ex2-adaptive": (300, 8, 258),
    "ex3-uniform": (300, 4, 256),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_workload(name: str, definitions: dict) -> None:
    max_ndof, steps, final_ndof = TINY[name]
    w = WORKLOADS[name]
    tiny = dataclasses.replace(
        w, config={**w.config, "max_ndof": max_ndof}, steps=steps, final_ndof=final_ndof
    )
    for trace, key, extra in ((0, "end_to_end", [run.FAILED_FRAC]), (1, "per_layer", [])):
        measured = run.measure(tiny, seed=0, seconds=0, trace=bool(trace))
        summary = run.summarise(tiny, measured)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            result = run.report(summary, definitions[key], extra)
        units = {}
        for line in printed.getvalue().splitlines():
            parts = line.split()
            if len(parts) >= 4 and parts[3].startswith("n="):
                units[parts[0]] = parts[2]
        expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace} history passes its check")
        for m in definitions[key] + extra:
            expect(units.get(m["name"]) == m["unit"], f"{name} trace={trace} prints {m['name']} [{m['unit']}]")
            if m not in extra:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"] and math.isfinite(got.get("value", math.nan)),
                       f"{name} trace={trace} result has {m['name']}")
        if trace:
            slack = max(summary["samples"]["trace.overhead_s"][0], 1e-3)
            for h in measured["runs"]["trace"]:
                expect(abs(h["spans_self_sum_s"] - h["wall_s"]) <= slack,
                       f"{name} span self times sum to wall time ({h['spans_self_sum_s']:.6f} vs {h['wall_s']:.6f} s)")


def check_rows() -> None:
    """The check on rows of a real tiny ex2 history, then on doctored copies."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from macert.bench import RunConfig, run as run_history

    max_ndof, steps, final_ndof = TINY["ex2-adaptive"]
    rows = run_history(RunConfig(**{**WORKLOADS["ex2-adaptive"].config, "max_ndof": max_ndof}))
    expect(count_failures(rows, steps, final_ndof) == (steps, 0), "real history passes")
    within = dataclasses.replace(rows[3], LHS=rows[3].eta2 + 1e-11)
    expect(count_failures(rows[:3] + [within] + rows[4:], steps, final_ndof) == (steps, 0),
           "row with LHS within the slack above eta2 passes")
    high = dataclasses.replace(rows[3], LHS=rows[3].eta2 + 1e-9)
    expect(count_failures(rows[:3] + [high] + rows[4:], steps, final_ndof) == (steps, 1),
           "doctored row with LHS > eta2 fails")
    nan = dataclasses.replace(rows[2], L2error=math.nan)
    expect(count_failures(rows[:2] + [nan] + rows[3:], steps, final_ndof) == (steps, 1),
           "row with a non-finite column fails")
    expect(count_failures(rows[:5], steps, final_ndof) == (steps, steps - 5),
           "steps an aborted run never reached fail")
    expect(count_failures(rows, steps, final_ndof + 1) == (steps, 1),
           "final ndof other than the reference fails")

    tracer = Tracer()
    tracer.install([("gone.span", "macert.bench:no_such_stage")])
    expect(tracer.absent == ["macert.bench:no_such_stage"], "missing wrapper target is reported")
    root = tracer.open("bench.run")
    tracer.close(root)
    metrics = tracer.layer_metrics()
    expect("bench.driver_self_s" in metrics and not set(metrics) & (set(TIMES) - {"bench.driver_self_s"}),
           "metrics reading missing wrappers are left out")


def main() -> int:
    definitions = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_rows()
    for name in WORKLOADS:
        check_workload(name, definitions)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
