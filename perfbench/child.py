"""One measured refinement history, or one set-up probe, in a fresh process.

run.py starts it as

    python3 child.py <spawn time> <workload spec JSON> <setup|plain|trace>

with the macert sources on PYTHONPATH and BLAS pinned to one thread.  The
spawn time is the parent's ``time.monotonic()`` just before the start, so
set-up covers interpreter start-up plus ``import macert``.  The timed path
touches only ``RunConfig`` and ``run``.  Prints one JSON line.
"""
import sys
import time


def main() -> int:
    spawned = float(sys.argv[1])
    import macert  # noqa: F401  -- set-up ends when this returns

    setup_s = time.monotonic() - spawned
    import json

    out = {"setup_s": setup_s}
    if sys.argv[3] != "setup":
        out.update(history(json.loads(sys.argv[2]), trace=sys.argv[3] == "trace"))
    print(json.dumps(out))
    return 0


def history(spec: dict, trace: bool) -> dict:
    import hashlib
    import json
    import resource
    from pathlib import Path

    import numpy
    import scipy
    from macert import bench

    from checks import count_failures

    config = bench.RunConfig(**spec["config"])
    aborted = getattr(bench, "RunAborted", ())
    tracer = None
    if trace:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    cpu0, t0 = time.process_time(), time.perf_counter()
    root = tracer.open(ROOT) if tracer else None
    try:
        rows = bench.run(config)
    except aborted as exc:
        rows, error = exc.rows, str(exc)
    finally:
        if tracer:
            tracer.close(root)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = count_failures(rows, spec["steps"], spec["final_ndof"])
    out = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "rhs0_final": float(rows[-1].eta2) if rows else None,
        "steps": len(rows),
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "digest": hashlib.sha256(repr([vars(r) for r in rows]).encode()).hexdigest(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(numpy, scipy),
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["spans_self_sum_s"] = sum(tracer.self_times())
        out["absent_targets"] = tracer.absent
        dump = Path(__file__).resolve().parent / "out" / f"{spec['name']}.spans.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"workload": spec, "result": out, **tracer.dump()}))
    return out


def blas_threads(*packages) -> dict:
    """Thread count of each OpenBLAS bundled with the given packages."""
    import ctypes
    import os

    found = {}
    for pkg in packages:
        libdir = os.path.dirname(pkg.__file__) + ".libs"
        if not os.path.isdir(libdir):
            continue
        for name in sorted(os.listdir(libdir)):
            if "openblas" not in name:
                continue
            lib = ctypes.CDLL(os.path.join(libdir, name))
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[name] = fn()
                    break
    return found


if __name__ == "__main__":
    sys.exit(main())
