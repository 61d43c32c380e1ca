"""Newton polygons of characteristic polynomials and p-adic eigenvalue valuations.

The polygon is the lower convex hull of (i, val_p(f_i)) with (0, 0)
prepended for the monic leading term; zero coefficients contribute no
point.  A segment of slope m and horizontal length l certifies exactly
l eigenvalues of valuation m, so the slope multiset (with multiplicity)
is the valuation multiset of the nonzero eigenvalues.

All hull geometry runs on integer cross products; slopes come out as
exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charpoly import CharPoly, char_poly
from .exact import MatrixLike, _require_prime, _val

Point = tuple[int, int]


class EmptyPolygonError(ValueError):
    """Newton polygon requested for the zero polynomial."""


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull data for one polynomial at one prime.

    Only the points are stored; the hull vertices are derived from them,
    so a polygon whose vertices disagree with its points cannot exist.
    """

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


def _lower_hull(points: tuple[Point, ...]) -> list[Point]:
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


@dataclass(frozen=True)
class EigenvalueValuations:
    """p-adic valuations of the eigenvalues of an integer matrix.

    values holds the valuations of the nonzero eigenvalues (sorted,
    exact rationals); zero_count is the multiplicity of the eigenvalue 0.
    """

    p: int
    values: tuple[Fraction, ...]
    zero_count: int

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "values": [f"{v.numerator}/{v.denominator}" for v in self.values],
            "zero_count": self.zero_count,
        }


def valuations_from_charpoly(f: CharPoly, p: int) -> EigenvalueValuations:
    """Eigenvalue valuations read off the Newton polygon of a charpoly.

    The polynomial is truncated at its last nonzero coefficient r'; the
    remaining n - r' eigenvalues are exactly zero and reported via
    zero_count.  The all-zero-coefficient case (nilpotent matrix) has no
    polygon and no nonzero eigenvalues.
    """
    _require_prime(p)
    r_prime = f.last_nonzero_index
    if r_prime == 0:
        return EigenvalueValuations(p=p, values=(), zero_count=f.n)
    trunc = CharPoly(n=r_prime, coeffs=f.coeffs[:r_prime])
    np_ = newton_polygon(trunc, p)
    return EigenvalueValuations(p=p, values=np_.slopes, zero_count=f.n - r_prime)


def eigenvalue_valuations(A: MatrixLike, p: int) -> EigenvalueValuations:
    """Valuations of the eigenvalues of A at p, computed without leaving Q."""
    return valuations_from_charpoly(char_poly(A), p)
