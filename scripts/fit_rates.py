#!/usr/bin/env python3
"""Print least-squares convergence rates of history files.

Usage: fit_rates.py FILE [FILE ...] [--window N] [--columns a,b,c]
"""
import argparse
import sys

from macert.bench import DAT_COLUMNS, read_dat, rate_fit


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+")
    ap.add_argument("--window", type=int, default=None, help="use only the last N rows")
    ap.add_argument(
        "--columns", default="Linferr,LHS,H1error,H2error,eta2",
        help="comma-separated column names",
    )
    args = ap.parse_args(argv)
    if args.window is not None and args.window < 2:
        ap.error(f"--window must be at least 2, got {args.window}")
    columns = args.columns.split(",")
    unknown = [c for c in columns if c not in DAT_COLUMNS]
    if unknown:
        ap.error(f"unknown columns {','.join(unknown)}; choose from {','.join(DAT_COLUMNS)}")
    try:
        histories = [(path, read_dat(path)) for path in args.files]
    except (OSError, ValueError) as exc:
        ap.error(str(exc))
    print("file".ljust(42) + "".join(c.rjust(10) for c in columns))
    for path, rows in histories:
        cells = []
        for col in columns:
            try:
                cells.append(f"{rate_fit(rows, col, window=args.window):+.3f}".rjust(10))
            except ValueError:
                cells.append("n/a".rjust(10))
        print(path.ljust(42) + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
