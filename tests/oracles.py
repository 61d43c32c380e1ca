"""Test-side oracles: definitions evaluated directly, for the tests to hold
the library's routes to."""

from itertools import combinations
from math import gcd

from padicsmith.exact import det


def minor_gcd_dets(A):
    """Determinantal divisors from the definition: the gcd of all i x i minors.

    One entry per i = 1..rank; exponential in n, so meant for n <= 5.
    """
    n = A.n
    out = []
    for size in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                g = gcd(g, det([[A.rows[i][j] for j in cols] for i in rows]))
            if g == 1:
                break  # gcd 1 cannot shrink further
        if g == 0:
            break
        out.append(g)
    return tuple(out)
