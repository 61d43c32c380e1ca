"""Differential tests against sympy's Smith normal form and charpoly."""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from padicsmith.charpoly import char_poly  # noqa: E402
from padicsmith.exact import IntMatrix  # noqa: E402
from padicsmith.smith import smith_form  # noqa: E402


@st.composite
def square(draw):
    """An n x n integer matrix, n <= 8, of rank at most r: r free rows and
    n - r integer combinations of them (r = 0 gives the zero matrix)."""
    n = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.integers(min_value=0, max_value=n))
    row = st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n)
    basis = draw(st.lists(row, min_size=r, max_size=r))
    mix = st.lists(st.integers(min_value=-3, max_value=3), min_size=r, max_size=r)
    combos = draw(st.lists(mix, min_size=n - r, max_size=n - r))
    rows = basis + [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n)] for cs in combos]
    return draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(square())
def test_smith_diagonal_matches_sympy(rows):
    n = len(rows)
    theirs = smith_normal_form(Matrix(rows), domain=ZZ)
    assert [abs(d) for d in smith_form(IntMatrix.from_rows(rows)).diag] == [abs(theirs[i, i]) for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(square())
def test_char_poly_matches_sympy(rows):
    assert [1, *char_poly(IntMatrix.from_rows(rows)).coeffs] == Matrix(rows).charpoly().all_coeffs()
