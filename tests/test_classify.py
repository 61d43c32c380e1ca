from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith import classify
from padicsmith.classify import analyze
from padicsmith.exact import INFINITY, IntMatrix, val_p
from padicsmith.smith import smith_form


def square(n, lo, hi):
    e = st.integers(min_value=lo, max_value=hi)
    return st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n).map(
        IntMatrix.from_rows
    )


def test_characterized_and_correspondent(trident):
    rep = analyze(trident, 3)
    assert rep.rank == 3
    assert rep.profile == (0, 1, 2)
    assert rep.f_vals == (0, 1, 3)
    assert rep.delta_vals == (0, 1, 3)
    assert rep.p_characterized
    assert rep.p_correspondent


def test_neither_predicate(skewed):
    rep = analyze(skewed, 2)
    assert rep.profile == (0, 1, 1, 2)
    assert rep.f_vals == (0, 4, 3, 4)
    assert rep.delta_vals == (0, 1, 2, 4)
    assert tuple(rep.eig_vals.values) == (0, Fraction(4, 3), Fraction(4, 3), Fraction(4, 3))
    assert not rep.p_characterized
    assert not rep.p_correspondent


def test_correspondent_without_characterized(convexed):
    rep = analyze(convexed, 3)
    assert rep.delta_vals == (0, 1, 2, 4)
    assert rep.f_vals == (0, 2, 2, 4)
    assert not rep.p_characterized
    assert rep.p_correspondent


def test_seven_adic_pair(hepta, hepta_fixed):
    before = analyze(hepta, 7)
    assert before.profile == (0, 1, 1, 2)
    assert tuple(before.eig_vals.values) == (1, 1, 1, 1)
    assert not before.p_correspondent

    after = analyze(hepta_fixed, 7)
    assert after.profile == (0, 1, 1, 2)
    assert after.p_characterized
    assert after.p_correspondent


def test_zero_matrix_is_vacuously_both():
    rep = analyze(IntMatrix.zeros(3), 2)
    assert rep.rank == 0
    assert rep.p_characterized
    assert rep.p_correspondent
    assert not rep.degenerate


def test_nilpotent_is_degenerate():
    rep = analyze(IntMatrix.from_rows([[0, 1], [0, 0]]), 2)
    assert rep.rank == 1
    assert rep.degenerate
    assert rep.f_vals == (INFINITY,)
    assert not rep.p_characterized
    assert not rep.p_correspondent


def test_rank_one_shortcut():
    rep = analyze(IntMatrix.from_rows([[2, 0], [0, 0]]), 2)
    assert rep.rank == 1
    assert rep.profile == (1,)
    assert rep.p_characterized
    assert rep.p_correspondent


def test_report_json_round_trips(trident):
    obj = analyze(trident, 3).to_json_obj()
    assert obj["p_characterized"] is True
    assert obj["profile"] == [0, 1, 2]
    assert obj["eig_vals"]["values"] == ["0/1", "1/1", "2/1"]


@pytest.mark.parametrize("p", [0, 1, 4, -2])
def test_analyze_rejects_non_prime(hepta, p):
    with pytest.raises(ValueError, match="p must be prime"):
        analyze(hepta, p)


@settings(max_examples=250)
@given(
    st.integers(min_value=1, max_value=4).flatmap(lambda n: square(n, -50, 50)),
    st.sampled_from([2, 3, 5, 7]),
)
def test_characterized_implies_correspondent(A, p):
    """analyze itself hard-asserts the implication; run it broadly."""
    rep = analyze(A, p)
    if rep.p_characterized:
        assert rep.p_correspondent


@settings(max_examples=100)
@given(square(3, -30, 30), st.sampled_from([2, 3, 5]))
def test_scaling_by_p_shifts_profile(A, p):
    from padicsmith.exact import det

    if det(A) == 0:
        return
    rep = analyze(A, p)
    scaled = analyze(IntMatrix.from_rows([[p * x for x in row] for row in A.rows]), p)
    assert scaled.profile == tuple(e + 1 for e in rep.profile)
    # scaling multiplies every eigenvalue by p as well, so the
    # predicates survive
    assert scaled.p_characterized == rep.p_characterized
    assert scaled.p_correspondent == rep.p_correspondent


def assert_matches_integer_smith(rep, A, p):
    """rank, profile and delta_vals equal the integer Smith form's valuations."""
    s = smith_form(A)
    assert rep.rank == s.rank
    assert rep.profile == tuple(val_p(d, p) for d in s.invariant_factors)
    assert rep.delta_vals == tuple(val_p(d, p) for d in s.dets)


# (rows, p, profile, local_profile calls): one case per way analyze
# reaches the Smith profile
PROFILE_ROUTES = [
    ([[2, 1], [1, 1]], 2, (0, 0), 0),  # unit det
    ([[1, 0, 0], [0, 1, 0], [0, 0, 8]], 2, (0, 0, 3), 0),  # unit f_2, v(det) = 3
    ([[1, 1], [-9, 0]], 3, (0, 2), 0),  # unit f_1, v(det) = 2
    ([[1, 0], [0, 0]], 5, (0,), 0),  # unit f_1, det = 0
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 5, (0, 0), 0),  # unit f_2, det = 0
    ([[0]], 2, (), 0),  # n = 1, f_1 = 0
    ([[5]], 2, (0,), 0),  # n = 1, unit
    ([[-27]], 3, (3,), 0),  # n = 1, p^3
    ([[2, 0], [0, 2]], 2, (1, 1), 1),  # p * I: no unit f_{n-1} or f_n
    ([[0, 1], [0, 0]], 2, (0,), 1),  # nilpotent: f_1 = f_2 = 0
]


@pytest.mark.parametrize("rows, p, profile, calls", PROFILE_ROUTES)
def test_profile_routes_match_integer_smith_form(monkeypatch, rows, p, profile, calls):
    counted = []
    real = classify.local_profile
    monkeypatch.setattr(classify, "local_profile", lambda A, p: counted.append(p) or real(A, p))
    A = IntMatrix.from_rows(rows)
    rep = analyze(A, p)
    assert rep.profile == profile
    assert_matches_integer_smith(rep, A, p)
    assert len(counted) == calls


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 2)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.sampled_from([2, 3, 5, 7]),
)
def test_profile_matches_integer_smith_form(entries, p):
    """Entries c * p^k, so that both the pinned and the eliminated routes run."""
    A = IntMatrix.from_rows([[c * p**k for c, k in row] for row in entries])
    assert_matches_integer_smith(analyze(A, p), A, p)
