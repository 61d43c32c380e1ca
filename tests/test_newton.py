from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith.charpoly import CharPoly, char_poly
from padicsmith.classify import analyze
from padicsmith.exact import INFINITY, IntMatrix, val_p
from padicsmith.newton import (
    EmptyPolygonError,
    NewtonPolygon,
    _eigenvalue_valuations,
    eigenvalue_valuations,
    newton_polygon,
    valuations_from_charpoly,
)


def test_convexed_hull_geometry(convexed):
    hull = newton_polygon(char_poly(convexed), 3)
    assert hull.points == ((0, 0), (1, 0), (2, 2), (3, 2), (4, 4))
    assert hull.vertices == ((0, 0), (1, 0), (3, 2), (4, 4))
    assert hull.segments == ((Fraction(0), 1), (Fraction(1), 2), (Fraction(2), 1))
    assert hull.slopes == (0, 1, 1, 2)


def test_trident_hull(trident):
    hull = newton_polygon(char_poly(trident), 3)
    assert hull.slopes == (0, 1, 2)


def test_skewed_hull_has_fractional_slope(skewed):
    hull = newton_polygon(char_poly(skewed), 2)
    assert hull.segments == ((Fraction(0), 1), (Fraction(4, 3), 3))


def test_zero_constant_term_rejected():
    f = char_poly(IntMatrix.from_rows([[0, 1], [0, 3]]))
    with pytest.raises(EmptyPolygonError):
        newton_polygon(f, 2)


def test_eigenvalue_valuations_pinned(trident, skewed, convexed, hepta):
    assert eigenvalue_valuations(trident, 3).values == (0, 1, 2)
    assert eigenvalue_valuations(skewed, 2).values == (0, Fraction(4, 3), Fraction(4, 3), Fraction(4, 3))
    assert eigenvalue_valuations(convexed, 3).values == (0, 1, 1, 2)
    assert eigenvalue_valuations(hepta, 7).values == (1, 1, 1, 1)


def test_zero_count_tracks_truncation():
    vals = eigenvalue_valuations(IntMatrix.from_rows([[0, 1], [0, 3]]), 3)
    assert vals.values == (1,)
    assert vals.zero_count == 1

    nil = eigenvalue_valuations(IntMatrix.from_rows([[0, 1], [0, 0]]), 3)
    assert nil.values == ()
    assert nil.zero_count == 2

    # x^2 - 4: a zero f_1 before a nonzero f_2 truncates nothing
    inner = eigenvalue_valuations(IntMatrix.from_rows([[0, 1], [4, 0]]), 2)
    assert inner.values == (1, 1)
    assert inner.zero_count == 0


def test_valuations_json_shape(skewed):
    obj = eigenvalue_valuations(skewed, 2).to_json_obj()
    assert obj["values"] == ["0/1", "4/3", "4/3", "4/3"]
    assert obj["zero_count"] == 0


def assert_lower_hull(poly: NewtonPolygon) -> None:
    """The vertices are the lower convex hull of the points: they start at
    the leading point and end at the trailing one, turn strictly upward,
    span the degree, and support every point from below."""
    verts = poly.vertices
    assert verts[0] == poly.points[0] and verts[-1] == poly.points[-1]
    slopes = [s for s, _ in poly.segments]
    assert all(s0 < s1 for s0, s1 in zip(slopes, slopes[1:])), slopes
    assert sum(length for _, length in poly.segments) == poly.degree
    for x, y in poly.points:
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if x0 <= x <= x1:
                # y >= the line through the two vertices, compared exactly
                assert (y - y0) * (x1 - x0) >= (y1 - y0) * (x - x0), (x, y)


coeff = st.integers(min_value=-10**6, max_value=10**6)


@settings(max_examples=200)
# zero drawn often, so interior and trailing zero coefficients both occur
@given(st.lists(st.just(0) | coeff, min_size=1, max_size=7), st.sampled_from([2, 3, 5, 7]))
def test_hull_properties_on_random_polynomials(coeffs, p):
    f = CharPoly(len(coeffs), tuple(coeffs))
    vals = valuations_from_charpoly(f, p)
    # a second call is a memo hit, the result held to newton_polygon below
    assert valuations_from_charpoly(f, p) is vals
    assert len(vals.values) + vals.zero_count == f.n
    assert list(vals.values) == sorted(vals.values)
    # newton_polygon needs a nonzero constant term, so it gets f truncated
    # at its last nonzero coefficient r'
    r_prime = max((i for i, c in enumerate(f.coeffs, 1) if c), default=0)
    assert vals.zero_count == f.n - r_prime
    if r_prime:
        hull = newton_polygon(CharPoly(r_prime, f.coeffs[:r_prime]), p)
        assert_lower_hull(hull)
        assert tuple(hull.slopes) == vals.values


# a coefficient valuation: small ints, INFINITY for a zero coefficient
valuation = st.integers(min_value=0, max_value=12) | st.just(INFINITY)


@settings(max_examples=300)
@given(st.lists(valuation, min_size=1, max_size=8).map(tuple), st.sampled_from([2, 3, 5, 7]))
def test_memo_matches_the_unmemoized_hull(vals, p):
    assert _eigenvalue_valuations.cache_info().maxsize is not None
    first = _eigenvalue_valuations(vals, p)
    assert first == _eigenvalue_valuations.__wrapped__(vals, p)
    # a hit returns the same frozen result
    assert _eigenvalue_valuations(vals, p) is first
    # the prime is part of the key
    other = 3 if p == 2 else 2
    assert _eigenvalue_valuations(vals, other).p == other
    assert first.p == p


@settings(max_examples=100)
@given(st.lists(coeff.filter(bool), min_size=1, max_size=6), st.sampled_from([2, 3]))
def test_total_rise_equals_constant_term_valuation(coeffs, p):
    f = CharPoly(len(coeffs), tuple(coeffs))
    hull = newton_polygon(f, p)
    assert_lower_hull(hull)
    assert sum(s * l for s, l in hull.segments) == val_p(coeffs[-1], p)


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.booleans(),
    st.sampled_from([2, 3, 5]),
)
def test_matrix_route_consistent(rows, singular, p):
    if singular:
        rows[-1] = rows[0]
    A = IntMatrix.from_rows(rows)
    eig = eigenvalue_valuations(A, p)
    assert eig == valuations_from_charpoly(char_poly(A), p)
    # analyze reads f_vals and the hull off one tuple of valuations; hold
    # each to its public route
    rep = analyze(A, p)
    assert rep.eig_vals == eig
    assert rep.f_vals == tuple(val_p(c, p) for c in char_poly(A).coeffs[: rep.rank])
