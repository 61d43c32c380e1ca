from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith.classify import analyze
from padicsmith.density import (
    Convention,
    DensityRow,
    IntPolynomial,
    PartitionCell,
    classify_residue_matrix,
    enumerate_density,
    gl_count,
    gl_order,
    orbit_stabilizer_check,
    proot_count_check,
    round_half_up_2dec,
)
from padicsmith.exact import BudgetExceededError, IntMatrix, det, val_p


def test_rounding_renders_two_decimals():
    assert round_half_up_2dec(Fraction(5625, 100)) == "56.25"
    assert round_half_up_2dec(Fraction(200, 3)) == "66.67"
    assert round_half_up_2dec(Fraction(20, 3)) == "6.67"
    assert round_half_up_2dec(Fraction(100, 3)) == "33.33"
    assert round_half_up_2dec(Fraction(0)) == "0.00"
    assert round_half_up_2dec(Fraction(100)) == "100.00"
    # ties go up
    assert round_half_up_2dec(Fraction(1, 8)) == "0.13"
    with pytest.raises(ValueError):
        round_half_up_2dec(Fraction(-1, 2))


def test_smallest_cell_counts():
    row = enumerate_density(2, 1, 2)
    assert (row.total, row.char_count, row.corr_count) == (16, 9, 13)
    assert row.rendered() == ("56.25", "81.25", "33.33")

    cells = {key: (c.size, c.char_count) for key, c in row.partitions.items()}
    assert cells == {(0, 0): (1, 1), (1, 0): (9, 6), (1, 1): (6, 2)}


def test_three_adic_cell():
    row = enumerate_density(3, 1, 2)
    assert (row.char_count, row.corr_count) == (55, 73)
    assert row.rendered() == ("67.90", "90.12", "62.50")


def test_det_filtered_convention():
    row = enumerate_density(2, 1, 2, convention=Convention.DET_FILTERED)
    assert (row.total, row.char_count, row.corr_count) == (6, 2, 6)
    filtered3 = enumerate_density(3, 1, 2, convention=Convention.DET_FILTERED)
    assert (filtered3.total, filtered3.char_count, filtered3.corr_count) == (48, 30, 48)


def test_min_column_skips_classes_without_witnesses():
    row = enumerate_density(2, 2, 2)
    empty = [c for c in row.partitions.values() if c.char_count == 0]
    assert empty, "expected a class with no characterized member"
    assert min(c.pct_char for c in row.partitions.values()) == 0
    assert row.min_pct_char == Fraction(100, 3)


def test_row_renders_stable_csv():
    row = enumerate_density(2, 2, 2)
    assert row.csv_row() == "2,2,2,53.52,80.08,33.33,256,137,205"


def test_json_round_trip():
    obj = enumerate_density(2, 1, 2).to_json_obj()
    assert obj["pct_char_2dec"] == "56.25"
    assert obj["partitions"]["1,1"] == {"size": 6, "char_count": 2}


def test_thread_counts_agree():
    # every cell clears the 4096-matrix serial cutoff, so the pool runs;
    # (2,1,4) has only 5 sorted diagonals, so 3 workers split inside them,
    # and (3,1,3) splits inside the strict and tied pair blocks of an n=3 cell
    for cell in [(3, 2, 2), (2, 1, 4), (3, 1, 3)]:
        for convention in Convention:
            serial = enumerate_density(*cell, convention=convention, threads=1)
            for threads in (2, 3):
                assert enumerate_density(*cell, convention=convention, threads=threads) == serial


def _brute_force_row(p, m, n, convention):
    """Classify every matrix of the box, no symmetry reduction."""
    total = char_count = corr_count = 0
    parts = {}
    for flat in product(range(p**m), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        char, corr, (r, *exps), in_filter = classify_residue_matrix(rows, p, m)
        diag = tuple(p**e for e in exps) + (0,) * (n - r)
        size, chars = parts.get(diag, (0, 0))
        parts[diag] = (size + 1, chars + char)
        if convention is Convention.ALL or in_filter:
            total += 1
            char_count += char
            corr_count += corr
    return DensityRow(
        p=p,
        m=m,
        n=n,
        convention=convention,
        total=total,
        char_count=char_count,
        corr_count=corr_count,
        partitions={key: PartitionCell(*cell) for key, cell in parts.items()},
    )


@pytest.mark.parametrize(
    "cell", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3), (3, 2, 1), (2, 1, 4), (5, 1, 2)]
)
@pytest.mark.parametrize("convention", list(Convention))
def test_weighted_enumeration_matches_brute_force(cell, convention):
    assert enumerate_density(*cell, convention=convention) == _brute_force_row(*cell, convention)


def test_counterexample_names_its_matrix(monkeypatch):
    import padicsmith.density as density

    real = density._classify2

    def planted(rows, *args):
        char, corr, key, in_filter = real(rows, *args)
        if [list(r) for r in rows] == [[0, 1], [1, 1]]:
            return True, False, key, in_filter
        return char, corr, key, in_filter

    monkeypatch.setitem(density._CLASSIFIERS, 2, planted)
    with pytest.raises(AssertionError, match=r"\[\[0, 1\], \[1, 1\]\]"):
        enumerate_density(2, 1, 2)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_density(2, 9, 3, budget=2**20)


def test_fast_classifier_matches_analyze_exhaustively():
    # the n=3 boxes pin the Hodge-vertex test to analyze's Newton polygon
    for p, m, n in [(2, 1, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3)]:
        q = p**m
        for flat in product(range(q), repeat=n * n):
            rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            A = IntMatrix.from_rows(rows)
            rep = analyze(A, p)
            want = (
                rep.p_characterized,
                rep.p_correspondent,
                (rep.rank,) + rep.profile,
                rep.rank == n and val_p(det(A), p) < m,
            )
            assert classify_residue_matrix(rows, p, m) == want


def test_classifier_rejects_entries_outside_the_box():
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        classify_residue_matrix([[0, 4], [1, 1]], 2, 2)
    with pytest.raises(ValueError):
        classify_residue_matrix([[0, 1, 0], [1, -1, 0], [0, 0, 1]], 3, 1)
    assert classify_residue_matrix([[0, 3], [1, 1]], 2, 2) == (True, True, (2, 0, 0), True)


def test_classifier_past_the_table_limit_matches_analyze():
    # (101^3 - 1)^2 is far past any valuation table, so analyze answers
    p, m = 101, 3
    boxes = ([[101, 0], [0, 101**2]], [[1, 2], [3, 4]], [[0, 0], [0, 0]], [[202, 101], [101, 303]])
    for rows in boxes:
        rep = analyze(IntMatrix.from_rows(rows), p)
        in_filter = rep.rank == 2 and sum(rep.profile) < m
        want = (rep.p_characterized, rep.p_correspondent, (rep.rank,) + rep.profile, in_filter)
        assert classify_residue_matrix(rows, p, m) == want


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(2, 2, 3), (3, 1, 3), (2, 1, 4), (5, 1, 3)]),
    st.integers(min_value=0, max_value=10**9),
)
def test_fast_classifier_matches_analyze_sampled(cell, pick):
    p, m, n = cell
    q = p**m
    rows = []
    x = pick
    for i in range(n):
        row = []
        for j in range(n):
            x, r = divmod(x * 1103515245 + 12345 + i * n + j, q)
            row.append(r)
        rows.append(row)
    A = IntMatrix.from_rows(rows)
    rep = analyze(A, p)
    want = (
        rep.p_characterized,
        rep.p_correspondent,
        (rep.rank,) + rep.profile,
        rep.rank == n and val_p(det(A), p) < m,
    )
    assert classify_residue_matrix(rows, p, m) == want


def test_gl_order_closed_form():
    assert gl_order(2, 1, 2) == 6
    assert gl_order(2, 2, 2) == 96
    assert gl_order(3, 1, 3) == 11232
    assert gl_order(5, 1, 1) == 4


def test_gl_count_cross_checks_exhaustively():
    rep = gl_count(2, 2, 2)
    assert rep.order == 96
    assert rep.exhaustive_checked
    assert rep.ratio == Fraction(256, 96)
    big = gl_count(11, 3, 4)
    assert not big.exhaustive_checked
    assert big.ratio < 4


def test_orbit_stabilizer_small_cells():
    rep = orbit_stabilizer_check(2, 1, (0, 0))
    assert rep.ok
    assert rep.class_size == 6
    assert rep.pair_count_per_member == 6

    shifted = orbit_stabilizer_check(2, 2, (0, 1))
    assert shifted.ok
    assert shifted.class_size == 72


def test_orbit_stabilizer_rejects_bad_profiles():
    with pytest.raises(ValueError):
        orbit_stabilizer_check(2, 1, (1, 0))
    with pytest.raises(ValueError):
        orbit_stabilizer_check(2, 1, (0, 1))


def test_root_count_bound_tight_for_linear():
    g = IntPolynomial.from_terms(1, {(1,): 1})
    rep = proot_count_check(g, 5, 2)
    assert rep.root_count == 2
    assert rep.bound == 2
    assert rep.ok


def test_root_count_two_variables():
    # x*y has 2*l*p - l^2 zeros in the box; bound is l^2 * 2 * p
    g = IntPolynomial.from_terms(2, {(1, 1): 1})
    rep = proot_count_check(g, 3, 1)
    assert rep.root_count == 5
    assert rep.bound == 6
    assert rep.ok


def test_root_count_rejects_vanishing_polynomial():
    g = IntPolynomial.from_terms(1, {(1,): 10})
    with pytest.raises(ValueError):
        proot_count_check(g, 5, 1)


def test_min_over_single_cell():
    row = DensityRow(
        p=2,
        m=1,
        n=1,
        convention=Convention.ALL,
        total=2,
        char_count=2,
        corr_count=2,
        partitions={(1,): PartitionCell(2, 2)},
    )
    assert row.min_pct_char == 100
