from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith.exact import IntMatrix, det, rank, val_p
from padicsmith.smith import (
    LocalSmithProfile,
    SmithData,
    determinantal_divisors,
    local_profile,
    smith_form,
)

from conftest import CONVEXED, HEPTA, HEPTA_FIXED, REDUCIBLE, SKEWED, TRIDENT, TRIDENT_U, TRIDENT_V
from oracles import minor_gcd_dets

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


# smith_form(A, want_transforms=True) pinned entry for entry:
# (name, A, diag, P, Q).  The pivot rule fixes all three, so any change
# to the order of the elimination's operations shows here.
SMITH_GOLDEN = [
    (
        "trident", TRIDENT, (1, 3, 9),
        [[-1, 0, 0], [0, 0, 1], [10, -1, -7]],
        [[0, 1, -1], [1, 3, 0], [0, 0, 1]],
    ),
    (
        "skewed", SKEWED, (1, 2, 2, 4),
        [[1, 0, 0, 0], [2, 5, -1, 0], [1, -38, 13, -4], [-15, 9, -14, 9]],
        [[16, -30, -153, 381], [-5, 1, 36, -94], [0, 1, -9, 24], [1, 2, 1, -1]],
    ),
    (
        "convexed", CONVEXED, (1, 3, 3, 9),
        [[-1, 0, 0, 0], [5341, -1666, 0, 1], [1485106, -463259, -26, 278], [8726721, -2722069, 41, 1634]],
        [[0, 2064, -17120, 8737], [41, -20721, 2135, -1052], [1, -2, 1042, -532], [0, 0, 1089, -556]],
    ),
    (
        "hepta", HEPTA, (1, 7, 7, 49),
        [[-26, 0, -1, 4], [18, -1, 2, -1], [625, -34, 65, -37], [2046, -109, 221, -122]],
        [[1, -230, 259, -536], [0, -8, -84, 179], [0, 0, -71, 151], [0, 1, -24, 51]],
    ),
    (
        "hepta_fixed", HEPTA_FIXED, (1, 7, 7, 852992),
        [[0, -4, 1, 0], [138, 5392045082, -1348012378, 3], [-132466473, -5175728598663265, 1293933212757254, -2879789], [1093125164, 42710574549793833, -10677652410173933, 23764276]],
        [[-1, 284528671, 12206863, 180250518918], [-23779, -7601487, -326103, -4815343213], [0, 10042, 27, 398546], [1, -5542962, -237738, -3510516795]],
    ),
    (
        "reducible", REDUCIBLE, (1, 28),
        [[1, 0], [16, -1]],
        [[1, -2], [-4, 9]],
    ),
    (
        "zero3", [[0, 0, 0]] * 3, (0, 0, 0),
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ),
    (
        "rank2", [[1, 2, 3], [2, 4, 6], [1, 1, 1]], (1, 1, 0),
        [[1, 0, 0], [1, 0, -1], [-2, 1, 0]],
        [[1, -2, 1], [0, 1, -2], [0, 0, 1]],
    ),
    (
        "neg", [[-5]], (5,),
        [[-1]],
        [[1]],
    ),
]


@pytest.mark.parametrize(
    "rows,diag,P,Q", [case[1:] for case in SMITH_GOLDEN], ids=[c[0] for c in SMITH_GOLDEN]
)
def test_transforms_golden(rows, diag, P, Q):
    data = smith_form(rows, want_transforms=True)
    assert data.diag == diag
    assert data.P == IntMatrix.from_rows(P)
    assert data.Q == IntMatrix.from_rows(Q)
    assert smith_form(rows) == SmithData(n=len(rows), diag=diag)


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

    assert smith_form(A).diag == data.diag
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
    assert determinantal_divisors(A) == minor_gcd_dets(A)


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


def _smith_exponents(A, p):
    """The oracle: valuations at p of the integer Smith form's invariant factors."""
    return tuple(val_p(s, p) for s in smith_form(A).invariant_factors)


def _rows(draw, r, c, elements=entries):
    return draw(st.lists(st.lists(elements, min_size=c, max_size=c), min_size=r, max_size=r))


@st.composite
def local_cases(draw):
    """(A, p) with n <= 8: entries times p^e each, rank-deficient products
    B diag(p^e) C, or the zero matrix; then the whole matrix times p^k."""
    n = draw(st.integers(min_value=1, max_value=8))
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    kind = draw(st.sampled_from(["entries", "product", "zero"]))
    if kind == "zero":
        rows = [[0] * n for _ in range(n)]
    elif kind == "product":
        k = draw(st.integers(min_value=0, max_value=n - 1))
        B = _rows(draw, n, k)
        C = _rows(draw, k, n)
        scale = [p ** draw(st.integers(min_value=0, max_value=3)) for _ in range(k)]
        rows = [[sum(B[i][t] * scale[t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
    else:
        # each entry times p^e, so p divides much of the matrix
        rows = _rows(draw, n, n)
        powers = _rows(draw, n, n, st.integers(min_value=0, max_value=3))
        rows = [[x * p**e for x, e in zip(row, pw)] for row, pw in zip(rows, powers)]
    k = draw(st.integers(min_value=0, max_value=2))
    return IntMatrix.from_rows([[x * p**k for x in row] for row in rows]), p


@settings(max_examples=300)
@given(local_cases())
def test_local_profile_matches_integer_smith_form(case):
    A, p = case
    assert local_profile(A, p).exponents == _smith_exponents(A, p)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([2, 3, 5, 7, 101]),
    st.lists(st.integers(min_value=0, max_value=3), min_size=16, max_size=16),
    st.lists(st.integers(min_value=-1, max_value=1), min_size=120, max_size=120),
    st.lists(st.integers(min_value=-1, max_value=1), min_size=120, max_size=120),
)
def test_local_profile_of_n16_sandwich(corank, p, e, below, above):
    # U diag(p^e_1, .., p^e_r, 0, ..) V with unit triangular U, V: the
    # local Smith exponents are sorted(e_1..e_r) by construction
    n = 16
    r = n - corank
    lower, upper = iter(below), iter(above)
    U = IntMatrix.from_rows([[1 if i == j else (next(lower) if j < i else 0) for j in range(n)] for i in range(n)])
    V = IntMatrix.from_rows([[1 if i == j else (next(upper) if j > i else 0) for j in range(n)] for i in range(n)])
    D = IntMatrix.diagonal([p**x for x in e[:r]] + [0] * corank)
    A = U @ D @ V
    profile = local_profile(A, p)
    assert profile.exponents == tuple(sorted(e[:r]))
    assert profile.exponents == _smith_exponents(A, p)
