from math import gcd

from hypothesis import given, settings, strategies as st

from padicsmith.exact import IntMatrix, det, rank
from padicsmith.smith import (
    LocalSmithProfile,
    determinantal_divisors,
    local_profile,
    smith_form,
)

from conftest import HEPTA, HEPTA_FIXED, TRIDENT, TRIDENT_U, TRIDENT_V

entries = st.integers(min_value=-30, max_value=30)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(
        IntMatrix.from_rows
    )


any_square = st.integers(min_value=1, max_value=4).flatmap(square)


def test_diag_pinned(trident, skewed, convexed, hepta, hepta_fixed, reducible):
    assert smith_form(trident).diag == (1, 3, 9)
    assert smith_form(skewed).diag == (1, 2, 2, 4)
    assert smith_form(convexed).diag == (1, 3, 3, 9)
    assert smith_form(hepta).diag == (1, 7, 7, 49)
    assert smith_form(hepta_fixed).diag == (1, 7, 7, 2**10 * 7**2 * 17)
    assert smith_form(reducible).diag == (1, 28)


def test_published_decomposition_reconstructs():
    U = IntMatrix.from_rows(TRIDENT_U)
    S = IntMatrix.diagonal([1, 3, 9])
    V = IntMatrix.from_rows(TRIDENT_V)
    assert U @ S @ V == IntMatrix.from_rows(TRIDENT)


def test_transforms_witness_the_form(convexed):
    data = smith_form(convexed, want_transforms=True)
    S = IntMatrix.diagonal(data.diag)
    assert data.P @ convexed @ data.Q == S
    assert det(data.P) in (1, -1)
    assert det(data.Q) in (1, -1)


def test_determinantal_divisors_pinned(convexed, trident):
    assert determinantal_divisors(convexed) == (1, 3, 9, 81)
    assert determinantal_divisors(trident) == (1, 3, 27)


def test_zero_and_identity():
    assert smith_form(IntMatrix.zeros(3)).diag == (0, 0, 0)
    assert smith_form(IntMatrix.identity(4)).diag == (1, 1, 1, 1)


@settings(max_examples=150)
@given(any_square)
def test_smith_form_properties(A):
    data = smith_form(A, want_transforms=True)
    S = IntMatrix.diagonal(data.diag)

    assert data.P @ A @ data.Q == S
    assert det(data.P) in (1, -1)
    assert det(data.Q) in (1, -1)

    r = data.rank
    assert all(s > 0 for s in data.diag[:r])
    assert all(s == 0 for s in data.diag[r:])
    for a, b in zip(data.diag, data.diag[1:]):
        if b:
            assert b % a == 0
    assert r == rank(A)

    d = det(A)
    prod = 1
    for s in data.diag:
        prod *= s
    assert abs(d) == prod if r == A.n else d == 0


@settings(max_examples=100)
@given(any_square)
def test_divisors_are_minor_gcds(A):
    divs = determinantal_divisors(A)
    diag = smith_form(A).diag
    acc = 1
    for i, s in enumerate(diag):
        if s == 0:
            assert len(divs) == i
            break
        acc *= s
        assert divs[i] == acc


@settings(max_examples=60)
@given(square(3))
def test_equivalence_invariance(A):
    # row/column operations with unit determinant leave the form alone
    E = IntMatrix.from_rows([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    F = IntMatrix.from_rows([[1, 0, 0], [-2, 1, 0], [0, 5, 1]])
    assert smith_form(E @ A @ F).diag == smith_form(A).diag


def test_local_profile_pinned(hepta, skewed, trident):
    assert local_profile(hepta, 7) == LocalSmithProfile(7, (0, 1, 1, 2))
    assert local_profile(skewed, 2) == LocalSmithProfile(2, (0, 1, 1, 2))
    assert local_profile(trident, 3) == LocalSmithProfile(3, (0, 1, 2))
    assert local_profile(trident, 2) == LocalSmithProfile(2, (0, 0, 0))


def test_profile_totals(hepta):
    prof = local_profile(hepta, 7)
    assert prof.rank == 4
    assert prof.total == 4


@settings(max_examples=60)
@given(square(3), st.sampled_from([2, 3, 5]))
def test_profile_divides_chainwise(A, p):
    exps = local_profile(A, p).exponents
    assert list(exps) == sorted(exps)
    assert all(e >= 0 for e in exps)


@settings(max_examples=40)
@given(square(2))
def test_gcd_of_entries_is_first_divisor(A):
    g = gcd(gcd(A.rows[0][0], A.rows[0][1]), gcd(A.rows[1][0], A.rows[1][1]))
    divs = determinantal_divisors(A)
    if g:
        assert divs[0] == g
