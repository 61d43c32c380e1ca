import hashlib
import multiprocessing
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith.charpoly import char_poly
from padicsmith.density import (
    Convention,
    DensityRow,
    PartitionCell,
    classify_residue_matrix,
    enumerate_density,
    gl_count,
    gl_order,
    orbit_stabilizer_check,
    round_half_up_2dec,
)
from padicsmith.exact import BudgetExceededError, IntMatrix, UnsupportedSizeError, det, rem_pm, val_p
from padicsmith.kernel import _valuation_table
from padicsmith.newton import EigenvalueValuations
from padicsmith.smith import local_profile, smith_form

from oracles import hodge_vertex_predicates


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
    # one matrix, det 3: filtered only once m exceeds val_p(det)
    assert not classify_residue_matrix([[2, 1], [1, 2]], 3, 1)[3]
    assert classify_residue_matrix([[2, 1], [1, 2]], 3, 2)[3]


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


def test_thread_counts_agree(monkeypatch):
    # These cells are too small to start workers by themselves, so the
    # pool threshold is lowered to one representative.  The m >= 2 cells
    # (3,2,2) and (2,2,3) still run serially for any worker count; the
    # others run the pool, one first-row key per task.  (2,1,4) deals its
    # 8 keys unevenly to 2 or 3 workers, (3,1,3) walks the 18 keys of an
    # n=3 cell, and (2,1,2) has 4 keys for 4 workers
    import padicsmith.density as density

    monkeypatch.setattr(density, "_POOL_MIN_ONE_BY_ONE", 1)
    runs = [((3, 2, 2), (2, 3)), ((2, 1, 4), (2, 3)), ((3, 1, 3), (2, 3)), ((2, 2, 3), (2, 3)), ((2, 1, 2), (4,))]
    for cell, thread_counts in runs:
        for convention in Convention:
            serial = enumerate_density(*cell, convention=convention, threads=1)
            for threads in thread_counts:
                assert enumerate_density(*cell, convention=convention, threads=threads) == serial


# Together these cover every stratum: m = 1 at n = 2, 3 and 4, classes of
# every rank mod 2 at (2,2,3), and at (3,2,2) classes counted whole and
# the A mod p = 0 class that reuses the tally of (3,1,2).
@pytest.mark.parametrize("cell", [(3, 1, 2), (3, 1, 3), (2, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_per_diagonal_tallies_sum_to_the_whole(cell):
    # the weights of the whole walk sum to the box; for m = 1 the pool's
    # unit is the key of row 0, and the tallies of the tasks, one
    # first-row key each, sum to the serial walk's
    import padicsmith.density as density

    p, m, n = cell
    whole = density._tally(p, m, n)
    assert sum(whole.values()) == (p**m) ** (n * n)
    if m == 1:
        tasks = [density._box_tally(p, 1, n, (key,)) for key in density._row_keys(p, n)]
        assert sum(tasks, Counter()) == whole


@pytest.mark.parametrize("cell", [(3, 1, 3), (2, 1, 4)])
def test_pool_gets_one_task_per_sorted_diagonal(monkeypatch, cell):
    # a free worker takes the next key of row 0: p C(p+n-2, n-1) tasks of
    # one first-row key each, in order, not one precomputed share per worker
    import padicsmith.density as density

    tasks = []

    class RecordingPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            assert chunksize == 1
            for args in iterable:
                tasks.append(args)
                yield func(args)

    p, m, n = cell
    serial = enumerate_density(p, m, n)
    monkeypatch.setattr(density, "_POOL_MIN_ONE_BY_ONE", 1)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    assert enumerate_density(p, m, n, threads=2) == serial
    assert len(tasks) == p * comb(p + n - 2, n - 1)
    keys = [(d, rest) for d in range(p) for rest in combinations_with_replacement(range(p), n - 1)]
    assert tasks == [(key,) for key in keys]


def test_pool_starts_no_more_workers_than_usable_cpus(monkeypatch):
    # (3,1,3) has 18 first-row keys; a fake Pool records the worker count
    import padicsmith.density as density

    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    serial = enumerate_density(3, 1, 3)
    monkeypatch.setattr(density, "_POOL_MIN_ONE_BY_ONE", 1)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    for cpus, threads in [(2, 5151), (3, 4), (32, 5151)]:
        monkeypatch.setattr(density, "_usable_cpus", lambda: cpus)
        assert enumerate_density(3, 1, 3, threads=threads) == serial
    assert started == [2, 3, 18]


def test_no_pool_when_every_class_is_counted_whole(monkeypatch):
    # m >= 2 walks classes mod p in one process, whose lift work is shared
    # by every class of an orbit, so no m >= 2 cell starts workers, even
    # at a threshold of one representative: (3,3,2) counts every class
    # whole, (2,2,3) classifies the lifts of its rank 1 orbits
    import padicsmith.density as density

    def no_pool(*args, **kwargs):
        raise AssertionError("multiprocessing.Pool started")

    cells = [(3, 3, 2), (2, 2, 3)]
    serial = [enumerate_density(*cell) for cell in cells]
    monkeypatch.setattr(density, "_POOL_MIN_ONE_BY_ONE", 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert [enumerate_density(*cell, threads=2) for cell in cells] == serial


def test_no_pool_below_the_break_even(monkeypatch):
    # (2,1,4) classifies 6170 representatives and (5,1,3) 339725; serially
    # they take some 12 ms and 0.26 s, and two workers lose to that (2 vCPUs)
    def no_pool(*args, **kwargs):
        raise AssertionError("multiprocessing.Pool started")

    cells = [(2, 1, 4), (5, 1, 3)]
    serial = [enumerate_density(*cell) for cell in cells]
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert [enumerate_density(*cell, threads=2) for cell in cells] == serial


@pytest.mark.parametrize("cell", [(2, 1, 5), (3, 1, 4)])
def test_pool_past_the_break_even(monkeypatch, cell):
    # (2,1,5) classifies 907452 representatives and (3,1,4) 2293173, past
    # the threshold; a fake Pool records the worker count and stops there
    import padicsmith.density as density

    started = []

    class Started(Exception):
        pass

    def recording_pool(processes):
        started.append(processes)
        raise Started

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    monkeypatch.setattr(density, "_usable_cpus", lambda: 2)
    with pytest.raises(Started):
        enumerate_density(*cell, threads=2)
    assert started == [2]


def _has_sorted_row_keys(rows):
    """Whether the keys (a_ii, sorted off-diagonal entries of row i) are non-decreasing."""
    keys = [(row[i], sorted(row[:i] + row[i + 1 :])) for i, row in enumerate(map(tuple, rows))]
    return keys == sorted(keys)


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_representatives_are_the_matrices_with_sorted_row_keys(monkeypatch, q, n):
    # brute force over the box: the matrices with non-decreasing row keys
    # are counted by _representative_count and are exactly the matrices
    # the walk sends through the signature kernel, each once
    import padicsmith.density as density

    boxed = [
        tuple(flat[i * n : (i + 1) * n] for i in range(n)) for flat in product(range(q), repeat=n * n)
    ]
    want = Counter(rows for rows in boxed if _has_sorted_row_keys(rows))
    real, classified = density._signatures, Counter()

    def counting(size):
        sigs = real(size)

        def counted(prefix, lasts, vt):
            classified.update((*prefix, last) for last in lasts)
            return sigs(prefix, lasts, vt)

        return counted

    monkeypatch.setattr(density, "_signatures", counting)
    p, m = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    density._box_tally(p, m, n)
    assert sum(want.values()) == density._representative_count(q, n) == sum(classified.values())
    assert classified == want


@pytest.mark.parametrize("q, n", [(2, 1), (3, 1), (7, 1), (2, 5), (5, 3)])
def test_representative_weights_sum_to_the_box(q, n):
    import padicsmith.density as density

    assert sum(sum(weights) for _, _, weights in density._walk(density._blocks(q, n))) == q ** (n * n)


@lru_cache(maxsize=None)
def _brute_force_outcomes(p, m, n):
    """classify_residue_matrix on every matrix of the box, counted."""
    return Counter(
        classify_residue_matrix([flat[i * n : (i + 1) * n] for i in range(n)], p, m)
        for flat in product(range(p**m), repeat=n * n)
    )


def _brute_force_row(p, m, n, convention):
    """Classify every matrix of the box, no symmetry reduction."""
    total = char_count = corr_count = 0
    parts = {}
    for (char, corr, (r, *exps), in_filter), count in _brute_force_outcomes(p, m, n).items():
        diag = tuple(p**e for e in exps) + (0,) * (n - r)
        size, chars = parts.get(diag, (0, 0))
        parts[diag] = (size + count, chars + char * count)
        if convention is Convention.ALL or in_filter:
            total += count
            char_count += char * count
            corr_count += corr * count
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
    "cell",
    [
        (2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3), (3, 2, 1), (2, 1, 4), (5, 1, 2), (5, 7, 1),
        # m >= 2 cells with every class stratum: rank n, rank n - 1 (at
        # n = 3 too), A = 0 mod p, and at (2,2,3) rank 1 classified per matrix
        (3, 2, 2), (2, 3, 2), (2, 2, 3),
    ],
)
@pytest.mark.parametrize("convention", list(Convention))
def test_weighted_enumeration_matches_brute_force(cell, convention):
    assert enumerate_density(*cell, convention=convention) == _brute_force_row(*cell, convention)


# Closed forms for n = 2, independent of the enumerator.  With q = p^m:
# - A = 0 mod p is A = pB with B over [0, p^(m-1)); scaling by p adds 1 to
#   every Smith exponent and k to val_p(f_k), which keeps both predicates,
#   so these matrices contribute the counts of cell (p, m-1, 2).
# - A != 0 mod p has e_1 = 0.  f_2 = det, so val_p(f_2) = Delta_2 always,
#   and A is characterized iff its trace f_1 is a unit: p^4 - p^3 of the
#   classes mod p.  k = 1 is a Hodge vertex iff det = 0 mod p, so A fails
#   to be correspondent iff A mod p is nonzero nilpotent: p^2 - 1 classes.
#   Each class mod p has q^4 / p^4 members.
# - The zero matrix of the (p, 1, 2) box is characterized and correspondent.
# Summing the geometric series over m:
#   char_count = 1 + (p^4 - p^3) (q^4 - 1) / (p^4 - 1)
#              = (p^3 q^4 + p^2 + p + 1) / ((p + 1)(p^2 + 1))
#   corr_count = 1 + (p^4 - p^2) (q^4 - 1) / (p^4 - 1) = (p^2 q^4 + 1) / (p^2 + 1)
@pytest.mark.parametrize(
    "p, m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1),
     (11, 1), (13, 1), (2, 5), (7, 2), (3, 4), (2, 6)],
)
def test_n2_counts_match_closed_form(p, m):
    q = p**m
    row = enumerate_density(p, m, 2)
    assert row.total == q**4
    assert row.char_count * (p + 1) * (p**2 + 1) == p**3 * q**4 + p**2 + p + 1
    assert row.corr_count * (p**2 + 1) == p**2 * q**4 + 1


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_density(2, 9, 3, budget=2**20)


@pytest.mark.parametrize("m", [2000, 4_000_000])
def test_budget_refuses_a_huge_box_without_building_its_size(m):
    # (3^m)^9 has far more digits than str() prints, and at m = 4000000
    # computing it took some 35 s; the refusal names it as a power of p
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=rf"\(p\^m\)\^\(n\^2\) = 3\^{9 * m} exceeds budget"):
        enumerate_density(3, m, 3)
    with pytest.raises(BudgetExceededError, match=rf"\(p\^m\)\^\(2 n\^2\) = 3\^{18 * m} exceeds budget"):
        orbit_stabilizer_check(3, m, (0, 0, 0))
    assert time.perf_counter() - start < 5
    # a printable size is still printed
    with pytest.raises(BudgetExceededError, match=r"= 134217728 exceeds budget 2$"):
        enumerate_density(2, 3, 3, budget=2)


def test_enumerate_density_rejects_empty_boxes_and_no_workers():
    with pytest.raises(ValueError, match="need m >= 1 and n >= 1, got m=0, n=2"):
        enumerate_density(2, 0, 2)
    with pytest.raises(ValueError, match="need m >= 1 and n >= 1, got m=1, n=0"):
        enumerate_density(2, 1, 0)
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        enumerate_density(2, 1, 2, threads=0)


def test_enumerate_density_refuses_n_past_six_before_starting_workers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("multiprocessing.Pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(UnsupportedSizeError, match="n <= 6, got 7"):
        enumerate_density(2, 1, 7, threads=2, budget=10**20)
    # the budget is still checked first
    with pytest.raises(BudgetExceededError):
        enumerate_density(2, 1, 7, threads=2)


def _analyze_outcome(rows, p, m):
    """classify_residue_matrix's result from Berkowitz and the integer
    Smith form rather than the signature kernel, and with the predicates
    from the Hodge-vertex rule rather than the Newton hull that both
    classify_residue_matrix and classify.analyze build."""
    A = IntMatrix.from_rows(rows)
    s = smith_form(A)
    profile = tuple(val_p(d, p) for d in s.invariant_factors)
    fv = [val_p(c, p) for c in char_poly(A).coeffs[: s.rank]]
    characterized, correspondent = hodge_vertex_predicates(fv, [val_p(d, p) for d in s.dets])
    in_filter = s.rank == len(rows) and val_p(det(A), p) < m
    return characterized, correspondent, (s.rank,) + profile, in_filter


def test_fast_classifier_matches_analyze_exhaustively():
    # every matrix of these boxes holds the library's hull-based predicates
    # to the Hodge-vertex oracle
    for p, m, n in [(2, 1, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3)]:
        q = p**m
        for flat in product(range(q), repeat=n * n):
            rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            assert classify_residue_matrix(rows, p, m) == _analyze_outcome(rows, p, m)


def test_density_engine_raises_on_a_planted_counterexample(monkeypatch):
    # a wrong Newton hull makes a characterized matrix non-correspondent;
    # the engine decides both predicates with the same rule as analyze, so
    # it raises instead of counting the counterexample
    import padicsmith.classify as classify

    @lru_cache(maxsize=None)
    def wrong(vals, p):
        return EigenvalueValuations(p=p, values=(Fraction(1),) * len(vals), zero_count=0)

    monkeypatch.setattr(classify, "_eigenvalue_valuations", wrong)
    with pytest.raises(AssertionError, match="characterized-but-not-correspondent"):
        enumerate_density(2, 1, 2)
    with pytest.raises(AssertionError, match=r"v\(f_k\) \(0, 0\), Smith exponents \(0, 0\) at p=2"):
        classify_residue_matrix([[1, 1], [1, 0]], 2, 1)


def test_classifier_rejects_entries_outside_the_box():
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        classify_residue_matrix([[0, 4], [1, 1]], 2, 2)
    with pytest.raises(ValueError):
        classify_residue_matrix([[0, 1, 0], [1, -1, 0], [0, 0, 1]], 3, 1)
    assert classify_residue_matrix([[0, 3], [1, 1]], 2, 2) == (True, True, (2, 0, 0), True)
    with pytest.raises(UnsupportedSizeError):
        classify_residue_matrix([[0] * 7] * 7, 2, 1)
    for rows in ([], [[0, 1]], [[0, 1], [1]]):
        with pytest.raises(ValueError, match="n >= 1 rows of n entries each"):
            classify_residue_matrix(rows, 2, 1)
    for p in (1, 0, 4, 2.0):
        with pytest.raises(ValueError, match="p must be prime"):
            classify_residue_matrix([[0, 0], [0, 0]], p, 3)
    for bad in (True, 0.5, "a", None):
        with pytest.raises(ValueError, match=f"entries must be int, got {bad!r}"):
            classify_residue_matrix([[bad, 1], [1, 1]], 2, 1)


def test_classifier_past_the_table_limit_matches_analyze():
    # (101^3 - 1)^2 is far past any valuation table, so valuations come from val_p on demand
    p, m = 101, 3
    boxes = ([[101, 0], [0, 101**2]], [[1, 2], [3, 4]], [[0, 0], [0, 0]], [[202, 101], [101, 303]])
    for rows in boxes:
        assert classify_residue_matrix(rows, p, m) == _analyze_outcome(rows, p, m)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(2, 2, 3), (3, 1, 3), (2, 1, 4), (5, 1, 3), (2, 1, 5)]),
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
    assert classify_residue_matrix(rows, p, m) == _analyze_outcome(rows, p, m)


def _low_rank_prefix_matrix(p, m, n, rank, rng):
    """A matrix over [0, p^m) whose rows 0 .. n-2 have rank at most rank mod p.

    rank random rows, the others each a row scaled by p (zero mod p), a
    repeated row, or a multiple of one plus a row scaled by p, in random
    order; row n-1 is random.
    """
    q = p**m
    basis = [[rng.randrange(q) for _ in range(n)] for _ in range(rank)]
    prefix = list(basis)
    while len(prefix) < n - 1:
        scaled = [p * rng.randrange(q) % q for _ in range(n)]
        how = rng.randrange(3) if basis else 0
        if how == 0:
            row = scaled
        elif how == 1:
            row = list(rng.choice(basis))
        else:
            c = rng.randrange(p)
            row = [(c * a + b) % q for a, b in zip(rng.choice(basis), scaled)]
        prefix.insert(rng.randrange(len(prefix) + 1), row)
    return prefix + [[rng.randrange(q) for _ in range(n)]]


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
@pytest.mark.parametrize("cell", [(5, 1, 4), (3, 1, 5), (2, 1, 6), (2, 2, 3), (101, 3, 3)])
def test_fast_classifier_matches_analyze_on_low_rank_prefixes(cell, rng):
    # The signature kernel reads Delta_k = 0 without its on-row minors when
    # the gcd of the prefix k x k minors is a unit, i.e. when rows 0 .. n-2
    # have rank >= k mod p.  Uniform samples at p >= 5 almost never have a
    # lower prefix rank, so every prefix rank 0 .. n-1 is forced here, and
    # both branches run at every k.
    p, m, n = cell
    for rank in range(n):
        for _ in range(4):
            rows = _low_rank_prefix_matrix(p, m, n, rank, rng)
            assert classify_residue_matrix(rows, p, m) == _analyze_outcome(rows, p, m)


CORANK_ONE_CLASSES = [
    # n = 2: pivots at (0, 0), (1, 0) and (1, 1)
    (3, 3, [[1, 2], [2, 1]]),
    (3, 3, [[0, 1], [0, 0]]),
    (3, 3, [[2, 0], [0, 0]]),
    # n = 3: a rank-1 block beside a unit, a nilpotent Jordan block and
    # a dense class
    (3, 2, [[1, 2, 0], [2, 1, 0], [0, 0, 1]]),
    (3, 2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    (3, 2, [[1, 1, 2], [0, 2, 1], [1, 0, 0]]),
    # n = 4, which no cell within DEFAULT_BUDGET reaches with m >= 2
    (2, 2, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),
    (2, 2, [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 1, 0]]),
]


@pytest.mark.parametrize("p, m, cls", CORANK_ONE_CLASSES)
def test_corank_one_keys_match_every_lift(p, m, cls):
    import padicsmith.density as density

    n, q = len(cls), p**m
    rank, *exps = classify_residue_matrix(cls, p, 1)[2]
    assert exps.count(0) == n - 1  # the rank mod p
    want = Counter(
        classify_residue_matrix([flat[i * n : (i + 1) * n] for i in range(n)], p, m)[2]
        for flat in product(*(range(a, q, p) for row in cls for a in row))
    )
    vt = _valuation_table(p, m, n)
    assert density._corank_one_keys(tuple(map(tuple, cls)), p, m, vt) == want


def _random_corank_one_classes():
    """Three seeded classes mod p of rank n - 1 for each n = 2..4."""
    rng = random.Random(21)
    classes = []
    for p, m, n in [(3, 3, 2), (3, 2, 3), (2, 2, 4)]:
        found = 0
        while found < 3:
            cls = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if classify_residue_matrix(cls, p, 1)[2][1:].count(0) == n - 1:
                classes.append((p, m, cls))
                found += 1
    return classes


def _permuted(rows, row_order, col_order):
    """P rows Q: row i of the result is row row_order[i], column j column col_order[j]."""
    return tuple(tuple(rows[i][j] for j in col_order) for i in row_order)


def _transposed(rows):
    return tuple(zip(*rows))


@pytest.mark.parametrize("p, m, cls", CORANK_ONE_CLASSES + _random_corank_one_classes())
def test_corank_one_keys_are_constant_on_equivalence_orbits(p, m, cls):
    # The lemma behind the walk's memo of the rank n - 1 stratum:
    # det(P (A + pB) Q) = +-det(A + pB), det is unchanged by transposition,
    # and both maps carry the lifts of a class onto the lifts of its image,
    # so the v(det) counts over the lifts agree.
    import padicsmith.density as density

    n = len(cls)
    rng = random.Random(repr(cls))
    vt = _valuation_table(p, m, n)
    want = density._corank_one_keys(tuple(map(tuple, cls)), p, m, vt)
    row_order, col_order = rng.sample(range(n), n), rng.sample(range(n), n)
    for image in (_permuted(cls, row_order, col_order), _transposed(cls)):
        assert density._corank_one_keys(image, p, m, vt) == want


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 4]), st.sampled_from([2, 3]))
def test_orbit_keys_are_permuted_copies_constant_on_orbits(rng, n, p):
    import padicsmith.density as density

    cls = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
    orders = list(permutations(range(n)))

    key = density._equivalence_key(cls)
    assert key in {_permuted(a, r, c) for a in (cls, _transposed(cls)) for r in orders for c in orders}
    image = _permuted(cls, rng.choice(orders), rng.choice(orders))
    assert density._equivalence_key(image) == density._equivalence_key(_transposed(cls)) == key

    key = density._similarity_key(cls)
    assert key in {_permuted(a, o, o) for a in (cls, _transposed(cls)) for o in orders}
    o = rng.choice(orders)
    assert density._similarity_key(_permuted(cls, o, o)) == density._similarity_key(_transposed(cls)) == key


def test_each_per_lift_class_runs_once_per_orbit(monkeypatch):
    # (2,2,3) walks 79 classes of rank 2 mod 2 and 15 of rank 1.  The
    # lifts of a rank 2 class are counted once per orbit under row and
    # column permutations and transposition, and those of a rank 1 class
    # once per orbit under permutation similarity and transposition; the
    # orbits are counted here by listing every image.  The count holds
    # for any worker count: with workers allowed from one representative
    # on, an in-process Pool would show lift work repeated across tasks.
    import padicsmith.density as density

    p, n = 2, 3
    walked = {1: [], 2: []}
    for flat in product(range(p), repeat=n * n):
        cls = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        rank = classify_residue_matrix(cls, p, 1)[2][1:].count(0)
        if rank in walked and _has_sorted_row_keys(cls):
            walked[rank].append(cls)
    orders = list(permutations(range(n)))
    equivalence = {
        frozenset(_permuted(a, r, c) for a in (cls, _transposed(cls)) for r in orders for c in orders)
        for cls in walked[2]
    }
    similarity = {
        frozenset(_permuted(a, o, o) for a in (cls, _transposed(cls)) for o in orders) for cls in walked[1]
    }
    assert (len(walked[2]), len(equivalence), len(walked[1]), len(similarity)) == (79, 13, 15, 9)

    want = enumerate_density(p, 2, n)
    calls = Counter()

    def counted(name):
        inner = getattr(density, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    class InProcessPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(density, "_POOL_MIN_ONE_BY_ONE", 1)
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    for name in ("_corank_one_keys", "_lift_outcomes"):
        monkeypatch.setattr(density, name, counted(name))
    for threads in (1, 2):
        calls.clear()
        assert enumerate_density(p, 2, n, threads=threads) == want
        assert calls == {"_corank_one_keys": len(equivalence), "_lift_outcomes": len(similarity)}


def test_three_adic_n3_cell_with_two_digit_lifts():
    # Beyond brute force (3^18 matrices); at p = 3 the rank 2 orbits span
    # several first-row keys, and the walk computes their lift counts once
    # per orbit.  The digest is the sha256 of the sorted partition
    # classes, (key, size, char_count) each.
    row = enumerate_density(3, 2, 3)
    assert row.csv_row() == "3,2,3,45.25,86.67,40.15,387420489,175310185,335777317"
    assert len(row.partitions) == 25
    canon = repr(sorted((key, cell.size, cell.char_count) for key, cell in row.partitions.items()))
    assert hashlib.sha256(canon.encode()).hexdigest() == (
        "f6a724c1347bf887b345bdd27205344658f3720bf49d48471049f798fb046300"
    )


def test_binary_n3_cell_with_three_digit_lifts():
    # Beyond brute force (2^27 matrices); the only n = 3 cell within
    # DEFAULT_BUDGET whose classes mod p lift over two more digits, so its
    # rank 1 and rank 2 orbits take the m >= 3 lift counts.
    # The digest is the sha256 of the sorted partition classes, as above.
    row = enumerate_density(2, 3, 3)
    assert row.csv_row() == "2,3,3,26.41,70.14,16.67,134217728,35445376,94134776"
    assert len(row.partitions) == 50
    canon = repr(sorted((key, cell.size, cell.char_count) for key, cell in row.partitions.items()))
    assert hashlib.sha256(canon.encode()).hexdigest() == (
        "d1502721f3deb2e49689d257e4cf574199b4bb255a6fa6169e1780e9072f7ed0"
    )


def test_gl_order_closed_form():
    assert gl_order(2, 1, 2) == 6
    assert gl_order(2, 2, 2) == 96
    assert gl_order(3, 1, 3) == 11232
    assert gl_order(5, 1, 1) == 4


def test_gl_count_cross_checks_exhaustively():
    # a witness of the closed form that does not go through enumerate_density
    for p, m, n in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)]:
        units = sum(
            1 for rows in product(product(range(p**m), repeat=n), repeat=n) if det(rows) % p
        )
        assert units == gl_order(p, m, n) == gl_count(p, m, n).order
    rep = gl_count(2, 2, 2)
    assert rep.order == 96
    assert rep.exhaustive_count == 96
    assert rep.exhaustive_checked and rep.ok
    assert rep.ratio == Fraction(256, 96)
    big = gl_count(11, 3, 4)
    assert big.exhaustive_count is None
    assert not big.exhaustive_checked and big.ok
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
    with pytest.raises(ValueError, match="at least one exponent"):
        orbit_stabilizer_check(2, 1, ())


def test_orbit_stabilizer_refuses_a_pair_space_over_budget(monkeypatch):
    import padicsmith.density as density

    def never(*args, **kwargs):
        pytest.fail("the class was counted for a pair space over budget")

    with monkeypatch.context() as patched:
        patched.setattr(density, "enumerate_density", never)
        # (2^1)^(2 * 4) = 256 pairs
        with pytest.raises(BudgetExceededError, match=r"pair space \(p\^m\)\^\(2 n\^2\) = 256 exceeds budget 255"):
            orbit_stabilizer_check(2, 1, (0, 0), budget=255)
    assert orbit_stabilizer_check(2, 1, (0, 0), budget=256).ok


def test_orbit_stabilizer_agrees_with_a_profile_scan():
    # class sizes and hit counts from local_profile on every matrix of the
    # box and every pair, without the unit-determinant restriction
    for p, m, exponents in [(2, 1, (0,)), (3, 1, (0,)), (2, 2, (1,)), (2, 1, (0, 0)), (2, 2, (0, 1))]:
        n, q = len(exponents), p**m
        S = [[p**e if i == j else 0 for j, e in enumerate(exponents)] for i in range(n)]
        box = [
            IntMatrix.from_rows([flat[i * n : (i + 1) * n] for i in range(n)])
            for flat in product(range(q), repeat=n * n)
        ]
        members = {M for M in box if local_profile(M, p).exponents == exponents}
        scaled = [L @ IntMatrix.from_rows(S) for L in box]
        hits = Counter(rem_pm(LS @ R, p, m) for LS in scaled for R in box)
        rep = orbit_stabilizer_check(p, m, exponents)
        assert rep.class_size == len(members)
        assert rep.ok
        assert {hits[M] for M in members} == {rep.pair_count_per_member}


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
