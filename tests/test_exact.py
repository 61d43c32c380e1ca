import json
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicsmith.exact import (
    INFINITY,
    IntMatrix,
    MatrixParseError,
    det,
    is_prime,
    parse_matrix,
    rem_pm,
    val_p,
    rank,
)

entries = st.integers(min_value=-50, max_value=50)


def square(n, elems=entries):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n).map(
        IntMatrix.from_rows
    )


def test_val_p_pinned():
    assert val_p(40952, 2) == 3
    assert val_p(-27, 3) == 3
    assert val_p(16, 2) == 4
    assert val_p(7, 7) == 1
    assert val_p(1, 5) == 0
    assert val_p(0, 5) is INFINITY


def test_val_p_rejects_nonprime():
    with pytest.raises(ValueError):
        val_p(12, 4)
    with pytest.raises(ValueError):
        val_p(12, 1)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool), st.sampled_from([2, 3, 5, 7]))
def test_val_p_is_exact_exponent(a, p):
    v = val_p(a, p)
    assert a % p**v == 0
    assert a % p ** (v + 1) != 0


def test_infinity_is_a_top_element():
    assert INFINITY == INFINITY
    assert INFINITY > 10**100
    assert not INFINITY < 5
    assert INFINITY > Fraction(4, 3)
    assert INFINITY + 3 is INFINITY
    assert 3 + INFINITY is INFINITY
    assert min(INFINITY, 2) == 2
    assert sorted([INFINITY, 0, 7]) == [0, 7, INFINITY]
    assert INFINITY <= INFINITY and not INFINITY <= 10**100
    assert 5 <= INFINITY and Fraction(4, 3) <= INFINITY
    assert INFINITY >= INFINITY and INFINITY >= -7 and INFINITY >= Fraction(1, 2)
    assert not 5 >= INFINITY


def test_infinity_arithmetic_edges():
    assert INFINITY - 4 is INFINITY
    assert INFINITY - Fraction(1, 3) is INFINITY
    with pytest.raises(ArithmeticError, match="INFINITY - INFINITY"):
        INFINITY - INFINITY
    # only valuations take part: other types are refused, not absorbed
    for other in (1.5, "1", None):
        with pytest.raises(TypeError):
            INFINITY - other
        with pytest.raises(TypeError):
            INFINITY <= other
        with pytest.raises(TypeError):
            INFINITY >= other


def test_infinity_pickles_to_the_singleton():
    assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY


def test_is_prime_small():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(97)


def test_from_rows_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1.0, 2], [3, 4]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[True, 2], [3, 4]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])


def test_entry_points_take_plain_rows():
    # every public function accepts nested lists in place of an IntMatrix
    import padicsmith as ps

    rows = [[9, 2], [32, 4]]
    M = IntMatrix.from_rows(rows)
    assert ps.det(rows) == ps.det(M) == -28
    assert ps.rank(rows) == 2
    assert ps.smith_form(rows).diag == ps.smith_form(M).diag
    assert ps.char_poly(rows) == ps.char_poly(M)
    assert ps.analyze(rows, 2) == ps.analyze(M, 2)
    assert ps.eigenvalue_valuations(rows, 2) == ps.eigenvalue_valuations(M, 2)
    # validation still applies to the coerced form
    with pytest.raises(ValueError):
        ps.det([[1.5, 0], [0, 1]])


def test_matmul_identity():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    I = IntMatrix.identity(2)
    assert A @ I == A
    assert I @ A == A


@given(square(3), square(3), square(3))
def test_matmul_associative(A, B, C):
    assert (A @ B) @ C == A @ (B @ C)


def test_text_round_trip(reducible):
    assert parse_matrix(reducible.to_text()) == reducible


def test_json_round_trip(trident):
    assert parse_matrix(json.dumps(trident.to_json_obj())) == trident


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", "empty"),
        ("2\n1 2\n", "expected 2 matrix rows"),
        ("x\n1\n", "not an integer"),
        ("2\n1 2\n3\n", "expected 2 entries"),
        ("1 2\n3 4\n", "single dimension"),
        ('{"entries": [[1]]}', '"n"'),
        ('{"n": 2, "entries": [[1, 2], [3, 4.5]]}', "not an integer"),
        ('{"n": 1, "entries": [[1], [2]]}', "1 rows"),
        ('{"n": true, "entries": [[5]]}', '"n" must be a positive integer'),
        ('{"n": false, "entries": []}', '"n" must be a positive integer'),
    ],
)
def test_parse_diagnostics(text, needle):
    with pytest.raises(MatrixParseError, match=needle):
        parse_matrix(text)


# int()'s digit limit; 0 where there is none (older Pythons, or switched off)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "7" * (DIGIT_LIMIT + 1)


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int() has no digit limit")
@pytest.mark.parametrize(
    "text,needle",
    [
        (f"2\n1 2\n3 {LONG}\n", r"line 3, entry 2: integer has \d+ digits"),
        (f"-{LONG}\n1\n", r"line 1: dimension: integer has \d+ digits"),
        (f'{{"n": 2, "entries": [[1, 2], [-{LONG}, 4]]}}', r"row 2, entry 1: integer has \d+"),
        (f'{{"n": {LONG}, "entries": [[1]]}}', r'"n": integer has \d+ digits'),
    ],
    ids=["text-entry", "text-dimension", "json-entry", "json-n"],
)
def test_overlong_integer_names_its_entry(text, needle):
    with pytest.raises(MatrixParseError, match=needle):
        parse_matrix(text)


def test_det_pinned(reducible, trident):
    assert det(reducible) == -28
    assert det(trident) == 27
    assert det(IntMatrix.identity(5)) == 1
    assert det(IntMatrix.zeros(3)) == 0


@given(square(4, st.integers(min_value=-9, max_value=9)))
def test_det_multiplicative(A):
    B = IntMatrix.from_rows([[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 1], [2, 0, 0, 1]])
    assert det(A @ B) == det(A) * det(B)


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=4, max_size=4))
def test_det_of_diagonal(diag):
    prod = 1
    for d in diag:
        prod *= d
    assert det(IntMatrix.diagonal(diag)) == prod


def test_rank_pinned():
    assert rank(IntMatrix.zeros(3)) == 0
    assert rank(IntMatrix.identity(4)) == 4
    assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix.from_rows([[0, 1], [0, 0]])) == 1


@given(square(3, st.integers(min_value=-6, max_value=6)))
def test_rank_zero_iff_det_nonzero_consistent(A):
    if det(A) != 0:
        assert rank(A) == 3
    else:
        assert rank(A) < 3


def test_rem_pm(reducible):
    assert rem_pm(reducible, 2, 3) == IntMatrix.from_rows([[1, 2], [0, 4]])
    assert rem_pm(IntMatrix.from_rows([[-1]]), 5, 1) == IntMatrix.from_rows([[4]])


@given(square(2, st.integers(min_value=-100, max_value=100)), st.sampled_from([2, 3, 5]))
def test_rem_pm_entries_in_range(A, p):
    R = rem_pm(A, p, 2)
    assert all(0 <= x < p**2 for row in R.rows for x in row)
    assert all((x - y) % p**2 == 0 for rx, ry in zip(A.rows, R.rows) for x, y in zip(rx, ry))
