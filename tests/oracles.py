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


def hodge_vertex_predicates(fv, dv):
    """(characterized, correspondent) by the Hodge-vertex rule, no hull built.

    fv holds v(f_1), ..., v(f_r) (INFINITY for a zero f_k) and dv holds
    Delta_1, ..., Delta_r, with e_k = Delta_k - Delta_{k-1}.  Each f_k
    sums principal k x k minors, so v(f_k) >= Delta_k: the Newton polygon
    lies on or above the Hodge polygon through (k, Delta_k), and both end
    at x = r.  They coincide, i.e. the matrix is correspondent, exactly
    when v(f_r) = Delta_r and v(f_k) = Delta_k at every vertex k < r,
    where e_k < e_{k+1}.  Characterized asks this at every k.
    """
    fv, dv = tuple(fv), tuple(dv)
    if fv == dv:
        return True, True
    if fv[-1] != dv[-1]:
        return False, False
    before = (0,) + dv
    # e_k < e_{k+1} is Delta_k - Delta_{k-1} < Delta_{k+1} - Delta_k
    vertices = [k for k in range(len(dv) - 1) if 2 * dv[k] < before[k] + dv[k + 1]]
    return False, all(fv[k] == dv[k] for k in vertices)
