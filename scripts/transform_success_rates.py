#!/usr/bin/env python3
"""Measure how often a single random (U, V) pair repairs correspondence.

For each prime, draw one matrix A with unit determinant mod p, then
estimate P[det U, det V units and U A V p-characterized] over seeded
trials with entries in [0, p).  The failure probability is bounded by
(n^2 + 3n)/p, so the measured rate should sit above 1 - (n^2+3n)/p
minus sampling noise; the exact 3-sigma comparison is printed per prime.
"""

import argparse
import sys

from padicsmith.transform import single_attempt_failure_bound, single_attempt_success_rate


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", default=[11, 31, 101, 211])
    ap.add_argument("-n", type=int, default=3)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"n={args.n}, trials={args.trials}, seed={args.seed}")
    all_ok = True
    for p in args.primes:
        floor = 1 - single_attempt_failure_bound(args.n, p)
        if floor <= 0:
            print(f"p={p:>4}: bound {floor} is vacuous at n={args.n}, skipped")
            continue
        rep = single_attempt_success_rate(args.n, p, p, args.trials, args.seed)
        all_ok &= rep.ok
        print(
            f"p={p:>4}: {rep.successes}/{args.trials} = {rep.successes / args.trials:.4f} "
            f"(floor {float(floor):.4f} less 3 sigma) {'ok' if rep.ok else 'BELOW BOUND'}"
        )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
