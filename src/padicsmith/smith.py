"""Smith normal form over the integers and its p-local valuation profiles.

Two routes, one per question:

- smith_form and determinantal_divisors compute the Smith form over Z.
  The elimination keeps the divisibility chain as it goes: once a pivot
  is settled it divides every entry of the trailing submatrix, so the
  diagonal comes out canonical (non-negative, each factor dividing the
  next) without a separate fix-up pass.
- local_profile computes the Smith form over the local ring Z_(p) by
  unit-pivot elimination.  Multiplying a row by an integer prime to p,
  or splitting a power of p off the whole block, keeps the Smith form
  over Z_(p), whose exponents are the valuations at p of the invariant
  factors over Z.  The integer route is its test oracle.  analyze
  calls local_profile only for n >= 5, and only when the characteristic
  polynomial does not pin the profile: neither f_{n-1} nor f_n is a
  p-unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from operator import mul

from .exact import IntMatrix, MatrixLike, _as_matrix, _require_prime


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


def determinantal_divisors(A: MatrixLike) -> tuple[int, ...]:
    """Positive gcds of all i x i minors, i = 1..rank.

    Read off the Smith form: the i-th determinantal divisor is the product
    s_1 ... s_i of the first i invariant factors.
    """
    return smith_form(A).dets


def local_profile(A: MatrixLike, p: int) -> LocalSmithProfile:
    """Valuations of the invariant factors of A at p.

    Eliminates over Z_(p) instead of calling smith_form.  The pivot is the
    first entry, row-major, that p does not divide, and its exponent is
    the running shift; when p divides every entry, the block is divided by
    p and the shift goes up by one.  Each row below becomes
    c*row - b*pivot_row (c the pivot, b the row's entry under it) and is
    divided by the part of its content prime to p.  Rows are only ever
    multiplied by units of Z_(p), or the whole block split by p, so the
    Smith form over Z_(p) is kept.  A unit pivot would clear its own row
    by column operations touching no other row, so none are carried out.
    """
    _require_prime(p)
    rows = [list(r) for r in _as_matrix(A).rows if any(r)]
    exps = []
    shift = 0
    while rows:
        # first entry c = top[j] that p does not divide, row-major
        for i, top in enumerate(rows):
            for j, c in enumerate(top):
                if c % p:
                    break
            else:
                continue
            break
        else:
            rows = [[x // p for x in row] for row in rows]
            shift += 1
            continue
        del rows[i]
        exps.append(shift)
        rest = []
        for row in rows:
            b = row[j]
            if b:
                row = [c * x - b * y for x, y in zip(row, top)]
                g = gcd(*row)
                if not g:
                    continue
                while g % p == 0:
                    g //= p
                if g > 1:
                    row = [x // g for x in row]
            rest.append(row)
        rows = rest
    return LocalSmithProfile(p=p, exponents=tuple(exps))
