"""Newton polygons of characteristic polynomials and p-adic eigenvalue valuations.

The polygon is the lower convex hull of (i, val_p(f_i)) with (0, 0)
prepended for the monic leading term; zero coefficients contribute no
point.  A segment of slope m and horizontal length l certifies exactly
l eigenvalues of valuation m, so the slope multiset (with multiplicity)
is the valuation multiset of the nonzero eigenvalues.

All hull geometry runs on integer cross products; slopes come out as
exact Fractions.

The eigenvalue valuations depend only on p and the vector
(val_p(f_1), ..., val_p(f_n)), and a workload sees few distinct vectors,
so they are built once per vector and p in a process, in a memo bounded
at 1024 entries.  The memo holds only frozen results; every caller still
compares them against its own matrix's data.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .charpoly import CharPoly, char_poly
from .exact import INFINITY, MatrixLike, Valuation, _require_prime, _val

Point = tuple[int, int]


class EmptyPolygonError(ValueError):
    """Newton polygon requested for the zero polynomial."""


class NewtonPolygon(namedtuple("NewtonPolygon", "p degree points")):
    """Lower convex hull data for one polynomial at one prime.

    Only the points are stored; the hull vertices are derived from them,
    so a polygon whose vertices disagree with its points cannot exist.
    """

    __slots__ = ()
    p: int
    degree: int
    points: tuple[Point, ...]

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(_lower_hull(self.points))

    @property
    def segments(self) -> tuple[tuple[Fraction, int], ...]:
        """(slope, horizontal length) per hull edge, slopes strictly increasing."""
        verts = self.vertices
        out = []
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            out.append((Fraction(y1 - y0, x1 - x0), x1 - x0))
        return tuple(out)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        """All slopes with multiplicity, sorted ascending; one per eigenvalue."""
        out = []
        for slope, length in self.segments:
            out.extend([slope] * length)
        return tuple(out)


def _lower_hull(points: list[Point] | tuple[Point, ...]) -> list[Point]:
    # monotone chain, x already strictly increasing; collinear middle
    # points are dropped so vertices are minimal
    hull: list[Point] = []
    for x2, y2 in points:
        while len(hull) >= 2:
            x0, y0 = hull[-2]
            x1, y1 = hull[-1]
            if (y1 - y0) * (x2 - x0) >= (y2 - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x2, y2))
    return hull


def newton_polygon(f: CharPoly, p: int) -> NewtonPolygon:
    """Newton polygon of x^n + f_1 x^(n-1) + ... + f_n at the prime p.

    Requires a nonzero constant term f_n; singular-matrix polynomials
    must be truncated to their last nonzero coefficient first (that is
    what eigenvalue_valuations does).
    """
    _require_prime(p)
    n = f.n
    if n == 0 or f.coeffs[-1] == 0:
        raise EmptyPolygonError(
            "constant term is zero; truncate to the last nonzero coefficient first"
        )
    points: list[Point] = [(0, 0)]
    for i in range(1, n + 1):
        c = f.coeffs[i - 1]
        if c:
            # c is nonzero, so its valuation is an int
            points.append((i, _val(c, p)))
    return NewtonPolygon(p=p, degree=n, points=tuple(points))


class EigenvalueValuations(namedtuple("EigenvalueValuations", "p values zero_count")):
    """p-adic valuations of the eigenvalues of an integer matrix.

    values holds the valuations of the nonzero eigenvalues (sorted,
    exact rationals); zero_count is the multiplicity of the eigenvalue 0.
    """

    __slots__ = ()
    p: int
    values: tuple[Fraction, ...]
    zero_count: int

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "values": [f"{v.numerator}/{v.denominator}" for v in self.values],
            "zero_count": self.zero_count,
        }


@lru_cache(maxsize=1024)
def _eigenvalue_valuations(vals: tuple[Valuation, ...], p: int) -> EigenvalueValuations:
    """Eigenvalue valuations from the valuations of f_1, ..., f_n.

    vals is a tuple, the memo key, and holds INFINITY for a zero
    coefficient; p must be prime, which the caller checks.  The hull is
    the one newton_polygon builds, over (0, 0) and the points of the
    nonzero coefficients, so it ends at the last nonzero coefficient r';
    the other n - r' eigenvalues are exactly zero.
    """
    points = [(0, 0)]
    points += [(i, v) for i, v in enumerate(vals, 1) if v is not INFINITY]
    hull = _lower_hull(points)
    values: list[Fraction] = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        dx, dy = x1 - x0, y1 - y0
        values += [Fraction(dy // dx) if dy % dx == 0 else Fraction(dy, dx)] * dx
    return EigenvalueValuations(p=p, values=tuple(values), zero_count=len(vals) - hull[-1][0])


def valuations_from_charpoly(f: CharPoly, p: int) -> EigenvalueValuations:
    """Eigenvalue valuations read off the Newton polygon of a charpoly.

    The polygon ends at the last nonzero coefficient r'; the remaining
    n - r' eigenvalues are exactly zero and reported via zero_count.  The
    all-zero-coefficient case (nilpotent matrix) has no polygon and no
    nonzero eigenvalues.
    """
    _require_prime(p)
    return _eigenvalue_valuations(tuple([_val(c, p) for c in f.coeffs]), p)


def eigenvalue_valuations(A: MatrixLike, p: int) -> EigenvalueValuations:
    """Valuations of the eigenvalues of A at p, computed without leaving Q."""
    return valuations_from_charpoly(char_poly(A), p)
