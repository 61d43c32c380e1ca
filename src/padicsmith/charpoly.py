"""Characteristic polynomials of integer matrices, exactly and division-free.

Coefficients follow the reversed-index convention used throughout the
package: det(xI - A) = x^n + f_1 x^(n-1) + ... + f_n, so f_n is
(-1)^n det(A) and f_i vanishes for i beyond the rank.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul

from .exact import MatrixLike, UnsupportedSizeError, _as_matrix, _det_rows, _Frozen

ORACLE_MAX_N = 5


class CharPoly(_Frozen):
    """Coefficients (f_1, ..., f_n) of det(xI - A), leading term implicit."""

    __slots__ = ("n", "coeffs")
    n: int
    coeffs: tuple[int, ...]

    def __init__(self, n: int, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def f(self, i: int) -> int:
        """Coefficient of x^(n-i), 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"coefficient index {i} out of range 1..{self.n}")
        return self.coeffs[i - 1]


def _berkowitz(rows: list[list[int]] | tuple[tuple[int, ...], ...]) -> list[int]:
    """Monic coefficient vector [1, f_1, ..., f_n] of det(xI - A), no divisions.

    Iterates the Berkowitz recurrence from the trailing 1x1 principal
    submatrix outward: each step multiplies the previous coefficient
    vector by a Toeplitz matrix whose column is built from the Krylov
    products R M^j C of the current bordering row and column.
    """
    n = len(rows)
    vec = [1, -rows[n - 1][n - 1]]
    for k in range(2, n + 1):
        top = n - k
        R = rows[top][top + 1:]
        sub = [row[top + 1:] for row in rows[top + 1:]]
        toep = [1, -rows[top][top]]
        w = [row[top] for row in rows[top + 1:]]
        for j in range(2, k + 1):
            toep.append(-sum(map(mul, R, w)))
            if j < k:
                w = [sum(map(mul, r, w)) for r in sub]
        # Toeplitz product: toep[i::-1][j] is toep[i - j], and map stops
        # at the end of the shorter list
        vec = [sum(map(mul, toep[i::-1], vec)) for i in range(k + 1)]
    return vec


def char_poly(A: MatrixLike) -> CharPoly:
    """Characteristic polynomial of A by the Berkowitz method, O(n^4) exact."""
    A = _as_matrix(A)
    monic = _berkowitz(A.rows)
    return CharPoly(n=A.n, coeffs=tuple(monic[1:]))


def char_poly_minor_oracle(A: MatrixLike) -> CharPoly:
    """Independent charpoly: f_i = (-1)^i times the sum of principal i x i minors.

    Exponential in n, meant purely as a cross-check; refuses n > 5.
    """
    A = _as_matrix(A)
    n = A.n
    if n > ORACLE_MAX_N:
        raise UnsupportedSizeError(f"minor oracle is limited to n <= {ORACLE_MAX_N}, got {n}")
    coeffs = []
    for i in range(1, n + 1):
        total = 0
        for sel in combinations(range(n), i):
            sub = [[A.rows[r][c] for c in sel] for r in sel]
            total += _det_rows(sub)
        coeffs.append(-total if i % 2 else total)
    return CharPoly(n=n, coeffs=tuple(coeffs))
