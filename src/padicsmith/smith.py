"""Smith normal form over the integers and its p-local valuation profiles.

The elimination keeps the divisibility chain as it goes: once a pivot is
settled it divides every entry of the trailing submatrix, so the diagonal
comes out canonical (non-negative, each factor dividing the next) without
a separate fix-up pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import gcd
from operator import mul

from .exact import (
    INFINITY,
    IntMatrix,
    MatrixLike,
    UnsupportedSizeError,
    _as_matrix,
    _det_rows,
    _require_prime,
    val_p,
)

# Minor-GCD determinantal divisors are combinatorial (sum over C(n,i)^2
# submatrices); past this size they stop being a sane cross-check.
MINOR_ORACLE_MAX_N = 5


@dataclass(frozen=True)
class SmithData:
    """Result of a Smith decomposition P @ A @ Q == diag(s), unimodular P, Q."""

    n: int
    diag: tuple[int, ...]
    P: IntMatrix | None = None
    Q: IntMatrix | None = None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """The nonzero diagonal entries s_1 | s_2 | ... | s_r."""
        return tuple(d for d in self.diag if d)

    @property
    def dets(self) -> tuple[int, ...]:
        """Determinantal divisors as cumulative products of invariant factors."""
        return tuple(accumulate(self.invariant_factors, mul))


@dataclass(frozen=True)
class LocalSmithProfile:
    """Valuations (e_1 <= ... <= e_r) of the invariant factors at a prime p."""

    p: int
    exponents: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def total(self) -> int:
        """Sum of exponents; equals val_p(det) for a nonsingular matrix."""
        return sum(self.exponents)


def smith_form(A: MatrixLike, want_transforms: bool = False) -> SmithData:
    """Canonical Smith normal form of A, optionally with the unimodular pair.

    Pivots are chosen as the smallest nonzero absolute value in the
    trailing submatrix, ties broken row-major.  With want_transforms the
    returned P, Q satisfy P @ A @ Q == diag(s) and det P, det Q == +-1.
    They ride the one elimination: A is extended by I on the right, which
    row operations turn into P, and by I below, which column operations
    turn into Q.
    """
    A = _as_matrix(A)
    n = A.n
    a = A.to_lists()
    if want_transforms:
        eye = IntMatrix.identity(n).to_lists()
        a = [row + e for row, e in zip(a, eye)] + eye

    for t in range(n):
        while True:
            # smallest nonzero |entry| in the trailing submatrix, row-major ties
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    v = abs(a[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                break
            _, bi, bj = best
            a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            piv = a[t][t]
            rest = range(t + 1, n)
            changed = False
            for i in rest:
                if a[i][t]:
                    q = a[i][t] // piv
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    changed = changed or a[i][t] != 0
            for j in rest:
                if a[t][j]:
                    q = a[t][j] // piv
                    for row in a:
                        row[j] -= q * row[t]
                    changed = changed or a[t][j] != 0
            if changed:
                continue
            # row and column are clear; make the pivot divide the rest by
            # adding a row holding an entry it does not divide
            witness = next((i for i in rest if any(a[i][j] % piv for j in rest)), None)
            if witness is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[witness])]
        if a[t][t] == 0:
            break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

    diag = tuple(a[i][i] for i in range(n))
    if not want_transforms:
        return SmithData(n=n, diag=diag)
    P = IntMatrix.from_rows([row[n:] for row in a[:n]])
    return SmithData(n=n, diag=diag, P=P, Q=IntMatrix.from_rows(a[n:]))


def _minor_gcd_dets(A: IntMatrix) -> tuple[int, ...]:
    """Determinantal divisors straight from the definition: gcd of all i x i minors."""
    n = A.n
    if n > MINOR_ORACLE_MAX_N:
        raise UnsupportedSizeError(f"minor-GCD route is limited to n <= {MINOR_ORACLE_MAX_N}, got {n}")
    out = []
    idx = range(n)
    for size in range(1, n + 1):
        g = 0
        for rows_sel in combinations(idx, size):
            for cols_sel in combinations(idx, size):
                sub = [[A.rows[i][j] for j in cols_sel] for i in rows_sel]
                g = gcd(g, _det_rows(sub))
                # gcd 1 cannot shrink further; skip the remaining minors
            if g == 1:
                break
        if g == 0:
            break
        out.append(g)
    return tuple(out)


def determinantal_divisors(A: MatrixLike) -> tuple[int, ...]:
    """Positive gcds of all i x i minors, i = 1..rank.

    Computed from the invariant factor products; for n <= 5 the
    minor-GCD definition is evaluated independently and the two routes
    are required to agree.
    """
    A = _as_matrix(A)
    via_smith = smith_form(A).dets
    if A.n <= MINOR_ORACLE_MAX_N:
        via_minors = _minor_gcd_dets(A)
        if via_minors != via_smith:
            raise AssertionError(
                f"determinantal divisor routes disagree: minors {via_minors} vs products {via_smith}"
            )
    return via_smith


def local_profile(A: MatrixLike, p: int) -> LocalSmithProfile:
    """Valuations of the invariant factors of A at p."""
    _require_prime(p)
    exps = []
    for s in smith_form(A).invariant_factors:
        v = val_p(s, p)
        assert v is not INFINITY
        exps.append(v)
    return LocalSmithProfile(p=p, exponents=tuple(exps))
