#!/usr/bin/env python3
"""Check that two source trees give the same histories, run by run.

Runs this checkout's ``history_digest.py`` once against each tree (each
given as the directory that holds the ``macert`` package, put first on
``PYTHONPATH``), with BLAS on one thread, one process at a time.  For each
run it prints ``identical``, or the first output line that differs after
the ``dat`` digest line (which changes with any row) and the number of step
lines that differ; it exits with code 1 on any difference:

    python scripts/compare_histories.py PARENT/src src

By default it takes the eight runs in ``RUNS``; each ``--run`` replaces
them by one string of ``history_digest.py`` flags.  The exit code of
``history_digest.py`` and its stderr count as output, so a run that aborts
in one tree only differs too.
"""
import argparse
import itertools
import os
import pathlib
import shlex
import subprocess
import sys

DIGEST = pathlib.Path(__file__).with_name("history_digest.py")

RUNS = (
    "--experiment 1 --mode adaptive --max-ndof 3000 --initial-level 0",
    "--experiment 1 --mode adaptive --max-ndof 20000 --initial-level 1",
    "--experiment 2 --mode adaptive --epsilon 0.1 --max-ndof 8000 --initial-level 0",
    "--experiment 2 --mode adaptive --max-ndof 8000 --initial-level 1",
    "--experiment 3 --mode uniform --max-ndof 17000 --initial-level 0",
    "--experiment 3 --mode adaptive --max-ndof 14000 --initial-level 1",
    "--experiment 3 --mode adaptive --max-ndof 9000 --initial-level 5",
    "--experiment 2 --mode uniform --epsilon 0.1 --max-ndof 17000 --initial-level 0",
)


def digest(src: str, flags: str) -> list[str]:
    """Output lines of ``history_digest.py flags`` with ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(DIGEST), *shlex.split(flags)],
                          env=env, capture_output=True, text=True)
    return [*proc.stdout.splitlines(), *proc.stderr.splitlines(), f"exit {proc.returncode}"]


def difference(a: list[str], b: list[str]):
    """None if ``a`` equals ``b``, else (line number, line of a, line of b,
    number of step lines that differ).  The line named is the first that
    differs after the ``dat`` digest, which changes whenever any row does;
    it is the ``dat`` line only when nothing else differs."""
    pairs = [(k, left, right) for k, (left, right)
             in enumerate(itertools.zip_longest(a, b, fillvalue="<none>"), 1) if left != right]
    if not pairs:
        return None
    past_dat = [(k, left, right) for k, left, right in pairs
                if not (left.startswith("dat ") and right.startswith("dat "))]
    line, left, right = (past_dat or pairs)[0]
    steps = sum(left.startswith("step ") or right.startswith("step ") for _, left, right in pairs)
    return line, left, right, steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent (holds macert/)")
    parser.add_argument("change", help="source tree of the change (holds macert/)")
    parser.add_argument("--run", action="append", metavar="FLAGS",
                        help="history_digest.py flags of one run; replaces the default runs")
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not (pathlib.Path(src) / "macert").is_dir():
            parser.error(f"{src} holds no macert package")
    differ = False
    for flags in args.run or RUNS:
        diff = difference(digest(args.parent, flags), digest(args.change, flags))
        if diff is None:
            print(f"{flags}: identical", flush=True)
        else:
            differ = True
            line, left, right, steps = diff
            print(f"{flags}: line {line} differs, {steps} step lines differ\n"
                  f"  parent: {left}\n  change: {right}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
