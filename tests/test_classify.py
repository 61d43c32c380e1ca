import random
import re
from fractions import Fraction
from functools import lru_cache
from unittest.mock import Mock

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith import classify, kernel
from padicsmith.charpoly import char_poly
from padicsmith.classify import ClassificationReport, analyze
from padicsmith.exact import INFINITY, IntMatrix, val_p
from padicsmith.newton import EigenvalueValuations, valuations_from_charpoly
from padicsmith.smith import smith_form

from conftest import SKEWED


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


def test_analyze_valuations_stay_flat():
    """analyze shares one _LazyValuations per prime, and it never stores
    more than the zero entry, however many minors it has valued."""
    rng = random.Random(5)
    vt = kernel._lazy_valuations(5)
    for _ in range(1000):
        n = rng.randint(1, 4)
        analyze([[rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(n)], 5)
    assert kernel._lazy_valuations(5) is vt
    assert dict(vt) == {0: kernel._VAL_OF_ZERO}
    # a box past the table limit gets the same one
    assert kernel._valuation_table(5, 9, 4) is vt


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lazy_valuations_are_val_p(p):
    vt = kernel._lazy_valuations(p)
    for x in [*range(-400, 0), *range(1, 400), p**40, -(p**41) * 3, 2**64 + 1]:
        assert vt[x] == val_p(x, p)
    assert vt[0] == kernel._VAL_OF_ZERO


@pytest.mark.parametrize(
    "diagonal, twin",
    [
        # n = 3, the signature kernel route
        ((1, 3, 9), (2, 3, 9)),
        # n = 5, the Berkowitz route through local_profile
        ((1, 3, 9, 27, 81), (2, 3, 9, 27, 81)),
    ],
)
def test_memoized_newton_result_cannot_hide_a_counterexample(monkeypatch, diagonal, twin):
    """Each pair is 3-characterized with one coefficient-valuation vector.
    A wrong Newton result served from a memo must still raise, naming
    the matrix, for the second matrix as for the first."""
    matrices = [IntMatrix.diagonal(diagonal), IntMatrix.diagonal(twin)]
    reports = [analyze(A, 3) for A in matrices]
    assert all(rep.p_characterized for rep in reports)
    assert reports[0].f_vals == reports[1].f_vals

    @lru_cache(maxsize=None)
    def wrong(vals, p):
        return EigenvalueValuations(p=p, values=(Fraction(1),) * len(vals), zero_count=0)

    monkeypatch.setattr(classify, "_eigenvalue_valuations", wrong)
    for A in matrices:
        with pytest.raises(AssertionError, match=re.escape(str(A.rows))):
            analyze(A, 3)
    assert wrong.cache_info().hits == 1


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


def _plus_identity(rows, k):
    """The block diagonal matrix rows (+) I_k."""
    a = len(rows)
    return [list(r) + [0] * k for r in rows] + [[0] * a + [int(i == j) for j in range(k)] for i in range(k)]


# (rows, p, profile, local_profile calls): one case per way analyze
# reaches the Smith profile.  n <= 4 reads it off the signature kernel;
# n = 5 values the charpoly and pins the profile when f_4 or f_5 is a
# unit, and runs local_profile otherwise.
PROFILE_ROUTES = [
    (_plus_identity([[2, 1], [1, 1]], 3), 2, (0,) * 5, 0),  # unit det
    (_plus_identity([[8]], 4), 2, (0, 0, 0, 0, 3), 0),  # unit f_4, v(det) = 3
    (_plus_identity([[1, 1], [-9, 0]], 3), 3, (0, 0, 0, 0, 2), 0),  # unit f_4, v(det) = 2
    (_plus_identity([[0]], 4), 5, (0,) * 4, 0),  # unit f_4, det = 0
    (_plus_identity([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2), 5, (0,) * 4, 0),  # unit f_4, det = 0
    ([[0]], 2, (), 0),  # n = 1, f_1 = 0
    ([[5]], 2, (0,), 0),  # n = 1, unit
    ([[-27]], 3, (3,), 0),  # n = 1, p^3
    ([[2 * int(i == j) for j in range(5)] for i in range(5)], 2, (1,) * 5, 1),  # p * I: no unit f_4 or f_5
    ([[int(j == i + 1) for j in range(5)] for i in range(5)], 2, (0,) * 4, 1),  # nilpotent: every f_k = 0
    # n <= 4, the kernel alone: the pinned shapes above, and those that
    # n = 5 sends to local_profile
    ([[2, 1], [1, 1]], 2, (0, 0), 0),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 8]], 2, (0, 0, 3), 0),
    ([[1, 1], [-9, 0]], 3, (0, 2), 0),
    ([[1, 0], [0, 0]], 5, (0,), 0),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 5, (0, 0), 0),
    ([[2, 0], [0, 2]], 2, (1, 1), 0),
    ([[0, 1], [0, 0]], 2, (0,), 0),
    ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], 3, (0, 0, 0), 0),
    (SKEWED, 2, (0, 1, 1, 2), 0),
    ([[2 * int(i == j) for j in range(4)] for i in range(4)], 2, (1,) * 4, 0),
]


@pytest.mark.parametrize("rows, p, profile, calls", PROFILE_ROUTES)
def test_profile_routes_match_integer_smith_form(monkeypatch, rows, p, profile, calls):
    spies = {name: Mock(wraps=getattr(classify, name)) for name in ("char_poly", "local_profile")}
    for name, spy in spies.items():
        monkeypatch.setattr(classify, name, spy)
    A = IntMatrix.from_rows(rows)
    rep = analyze(A, p)
    assert rep.profile == profile
    assert_matches_integer_smith(rep, A, p)
    # Berkowitz runs exactly past the kernel's sizes, local_profile only there
    assert {name: spy.call_count for name, spy in spies.items()} == {"char_poly": int(A.n > 4), "local_profile": calls}


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
    """Entries c * p^k, so that at n = 5 both the pinned and the eliminated
    routes run, and at n <= 4 the kernel meets high valuations."""
    A = IntMatrix.from_rows([[c * p**k for c, k in row] for row in entries])
    assert_matches_integer_smith(analyze(A, p), A, p)


@st.composite
def valued_matrices(draw):
    """(A, p) with n = 1..5 and entries c * p^k: dense, of lower rank,
    traceless (f_1 = 0) or strictly upper triangular (every f_k = 0)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.builds(lambda c, k: c * p**k, st.integers(-9, 9), st.integers(0, 3))
    kind = draw(st.sampled_from(["dense", "lower rank", "traceless", "nilpotent"]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "lower rank":
        r = draw(st.integers(min_value=0, max_value=n - 1))
        coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=n, max_size=n))
        rows = [[sum(c * rows[t][j] for t, c in enumerate(cs)) for j in range(n)] for cs in coeffs]
    elif kind == "traceless":
        rows[-1][-1] = -sum(rows[i][i] for i in range(n - 1))
    elif kind == "nilpotent":
        rows = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return IntMatrix.from_rows(rows), p


@settings(max_examples=400, deadline=None)
@given(valued_matrices())
def test_analyze_matches_berkowitz_and_integer_smith_form(case):
    """Every field of the report, on both sides of the kernel's cut-over,
    from Berkowitz and the integer Smith form."""
    A, p = case
    f = char_poly(A)
    vals = tuple(val_p(c, p) for c in f.coeffs)
    s = smith_form(A)
    profile = tuple(val_p(d, p) for d in s.invariant_factors)
    delta_vals = tuple(val_p(d, p) for d in s.dets)
    eig = valuations_from_charpoly(f, p)
    r = s.rank
    assert analyze(A, p) == ClassificationReport(
        p=p,
        n=A.n,
        rank=r,
        f_vals=vals[:r],
        delta_vals=delta_vals,
        profile=profile,
        eig_vals=eig,
        p_characterized=vals[:r] == delta_vals,
        p_correspondent=eig.values == profile,
        degenerate=len(eig.values) < r,
    )
