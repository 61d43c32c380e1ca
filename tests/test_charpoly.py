from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith.charpoly import CharPoly, char_poly, char_poly_minor_oracle
from padicsmith.exact import IntMatrix, UnsupportedSizeError, det


def square(n, lo=-100, hi=100):
    e = st.integers(min_value=lo, max_value=hi)
    return st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n).map(
        IntMatrix.from_rows
    )


def companion(coeffs):
    """Companion matrix of x^n + c_1 x^(n-1) + ... + c_n."""
    n = len(coeffs)
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -coeffs[n - 1 - i]
    return IntMatrix.from_rows(rows)


def test_pinned_polynomials(trident, skewed):
    assert char_poly(trident).coeffs == (4, -51, -27)
    assert char_poly(skewed).coeffs == (-2605, 39504, 40952, 16)


def test_trace_and_det_endpoints(convexed):
    f = char_poly(convexed)
    tr = sum(convexed.rows[i][i] for i in range(convexed.n))
    assert f.f(1) == -tr
    assert f.f(4) == det(convexed)


def test_indexing_and_truncation():
    f = char_poly(IntMatrix.from_rows([[0, 1], [0, 0]]))
    assert f.coeffs == (0, 0)

    g = char_poly(IntMatrix.from_rows([[0, 1], [0, 3]]))
    assert g.coeffs == (-3, 0)


def test_zero_and_identity():
    assert char_poly(IntMatrix.zeros(3)).coeffs == (0, 0, 0)
    # (x - 1)^3 = x^3 - 3x^2 + 3x - 1
    assert char_poly(IntMatrix.identity(3)).coeffs == (-3, 3, -1)


def test_f_is_one_based(trident):
    f = char_poly(trident)
    assert [f.f(i) for i in (1, 2, 3)] == [4, -51, -27]
    with pytest.raises(IndexError):
        f.f(0)
    with pytest.raises(IndexError):
        f.f(4)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6))
def test_companion_round_trip(coeffs):
    assert char_poly(companion(coeffs)).coeffs == tuple(coeffs)


@settings(max_examples=120)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: square(n)))
def test_matches_principal_minor_sums(A):
    assert char_poly(A) == char_poly_minor_oracle(A)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5))
def test_diagonal_gives_signed_symmetric_functions(diag):
    f = char_poly(IntMatrix.diagonal(diag))
    n = len(diag)
    for i in range(1, n + 1):
        e_i = 0
        for combo in combinations(diag, i):
            term = 1
            for x in combo:
                term *= x
            e_i += term
        assert f.f(i) == (-1) ** i * e_i


@settings(max_examples=60)
@given(square(3, -20, 20))
def test_similarity_invariance(A):
    # conjugating by a unimodular matrix preserves the polynomial
    E = IntMatrix.from_rows([[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    Einv = IntMatrix.from_rows([[1, -1, 2], [0, 1, -2], [0, 0, 1]])
    assert E @ Einv == IntMatrix.identity(3)
    assert char_poly(E @ A @ Einv) == char_poly(A)


def test_oracle_size_guard():
    big = IntMatrix.identity(6)
    with pytest.raises(UnsupportedSizeError):
        char_poly_minor_oracle(big)


def test_charpoly_shape_validation():
    with pytest.raises(ValueError):
        CharPoly(2, (1,))
