#!/usr/bin/env python3
"""Recompute the full correspondence-density table by exhaustive enumeration.

Every cell is an exact count over all matrices with entries in [0, p^m):
the percentage of p-characterized matrices, of p-correspondent matrices,
and the worst p-characterized percentage over the localized-Smith-form
classes that contain at least one characterized matrix.
"""

import argparse
import sys
import time

from padicsmith.cli import positive_int
from padicsmith.density import CSV_HEADER, Convention, enumerate_density

CELLS = [
    (2, 1, 2),
    (2, 2, 2),
    (2, 3, 2),
    (2, 4, 2),
    (2, 1, 3),
    (2, 2, 3),
    (2, 1, 4),
    (3, 1, 2),
    (3, 2, 2),
    (3, 3, 2),
    (3, 1, 3),
    (5, 1, 2),
    (5, 2, 2),
    (7, 1, 2),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threads", type=positive_int, default=1)
    ap.add_argument("--csv", action="store_true", help="machine-readable output")
    ap.add_argument(
        "--convention",
        choices=tuple(c.value for c in Convention),
        default=Convention.ALL.value,
    )
    args = ap.parse_args(argv)
    convention = Convention(args.convention)

    if args.csv:
        print(CSV_HEADER)
    else:
        print(f"{'p':>3} {'m':>2} {'n':>2} {'char%':>8} {'corr%':>8} {'min char%':>10} {'matrices':>10}")

    start = time.perf_counter()
    for p, m, n in CELLS:
        t0 = time.perf_counter()
        row = enumerate_density(p, m, n, convention=convention, threads=args.threads)
        dt = time.perf_counter() - t0
        pc, pr, mn = row.rendered()
        if args.csv:
            print(row.csv_row())
        else:
            print(f"{p:>3} {m:>2} {n:>2} {pc:>8} {pr:>8} {mn:>10} {row.total:>10}  ({dt:.2f}s)")
    if not args.csv:
        print(f"total {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
