#!/usr/bin/env python3
"""Check that two source trees give the same histories, run by run.

Runs this checkout's ``history_digest.py`` once against each tree (each
given as the directory that holds the ``macert`` package, put first on
``PYTHONPATH``), with BLAS on one thread, one process at a time.  For each
run it prints ``identical``, or the first output line that differs after
the ``dat`` digest line (which changes with any row) and the number of step
lines that differ.  For a run that differs it also writes each tree's
``.dat`` with ``python -m macert.cli`` and prints, for every column whose
values differ, the largest relative change |b - a| / max(|a|, |b|) and its
row, so a rounding move reads apart from a real change; or, when the two
files hold different numbers of rows, says so.  It exits with code 1 on any
difference:

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
import tempfile

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


def environment(src: str) -> dict:
    """This environment with ``src`` first on the path and BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def digest(src: str, flags: str) -> list[str]:
    """Output lines of ``history_digest.py flags`` with ``src`` first on the path."""
    proc = subprocess.run([sys.executable, str(DIGEST), *shlex.split(flags)],
                          env=environment(src), capture_output=True, text=True)
    return [*proc.stdout.splitlines(), *proc.stderr.splitlines(), f"exit {proc.returncode}"]


def dat_table(src: str, flags: str):
    """(column names, rows of floats) of the ``.dat`` that ``macert flags``
    writes with ``src`` first on the path, or None if it writes none."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "history.dat"
        subprocess.run([sys.executable, "-m", "macert.cli", *shlex.split(flags), "--out", str(out)],
                       env=environment(src), capture_output=True)
        if not out.exists():
            return None
        header, *lines = out.read_text().splitlines()
    return header.split(), [[float(t) for t in line.split()] for line in lines if line.strip()]


def column_changes(a, b) -> list[str]:
    """One line per column whose values differ between the ``dat_table``
    results ``a`` and ``b``: the largest relative change and its row; or one
    line saying the row counts differ."""
    (names, rows_a), (_, rows_b) = a, b
    if len(rows_a) != len(rows_b):
        return [f"  .dat rows: {len(rows_a)} in parent, {len(rows_b)} in change"]
    lines = []
    for c, name in enumerate(names):
        changes = [(abs(y[c] - x[c]) / max(abs(x[c]), abs(y[c])), k)
                   for k, (x, y) in enumerate(zip(rows_a, rows_b)) if x[c] != y[c]]
        if changes:
            rel, row = max(changes, key=lambda change: change[0])
            lines.append(f"  {name}: largest relative change {rel:.1e} at row {row}")
    return lines


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
            tables = [dat_table(src, flags) for src in (args.parent, args.change)]
            if None not in tables:
                for text in column_changes(*tables):
                    print(text, flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
