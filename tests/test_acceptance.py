"""Acceptance runs: the eight headline claims, one test and one line each.

Each test ends by printing `ACCEPTANCE <k> PASS: ...`; a failing assert
turns the line into the usual pytest failure for that criterion.  Run
with -s (or read captured output) to see the lines alongside the
verdicts.
"""

import random
import time
from fractions import Fraction

from padicsmith.charpoly import char_poly, char_poly_minor_oracle
from padicsmith.classify import analyze
from padicsmith.density import enumerate_density, gl_count, orbit_stabilizer_check
from padicsmith.exact import IntMatrix, det, val_p
from padicsmith.newton import eigenvalue_valuations
from padicsmith.smith import determinantal_divisors, local_profile, smith_form
from padicsmith.transform import single_attempt_success_rate, verify_rem_stability

from conftest import (
    CONVEXED,
    HEPTA,
    HEPTA_FIXED,
    HEPTA_U,
    HEPTA_V,
    SKEWED,
    TRIDENT,
)
from oracles import minor_gcd_dets

TABLE = {
    (2, 1, 2): ("56.25", "81.25", "33.33"),
    (2, 2, 2): ("53.52", "80.08", "33.33"),
    (2, 3, 2): ("53.34", "80.00", "33.33"),
    (2, 4, 2): ("53.33", "80.00", "33.33"),
    (2, 1, 3): ("29.10", "71.29", "18.75"),
    (2, 2, 3): ("26.51", "70.14", "16.67"),
    (2, 1, 4): ("15.61", "66.67", "6.67"),
    (3, 1, 2): ("67.90", "90.12", "62.50"),
    (3, 2, 2): ("67.50", "90.00", "50.00"),
    (3, 3, 2): ("67.50", "90.00", "50.00"),
    (3, 1, 3): ("45.58", "86.73", "42.77"),
    (5, 1, 2): ("80.16", "96.16", "79.17"),
    (5, 2, 2): ("80.13", "96.15", "78.96"),
    (7, 1, 2): ("85.76", "98.00", "85.42"),
}

# the exact (total, char_count, corr_count) behind each rendered row, so a
# count off by a few matrices fails even where the two decimals agree
COUNTS = {
    (2, 1, 2): (16, 9, 13),
    (2, 2, 2): (256, 137, 205),
    (2, 3, 2): (4096, 2185, 3277),
    (2, 4, 2): (65536, 34953, 52429),
    (2, 1, 3): (512, 149, 365),
    (2, 2, 3): (262144, 69485, 183877),
    (2, 1, 4): (65536, 10229, 43693),
    (3, 1, 2): (81, 55, 73),
    (3, 2, 2): (6561, 4429, 5905),
    (3, 3, 2): (531441, 358723, 478297),
    (3, 1, 3): (19683, 8971, 17071),
    (5, 1, 2): (625, 501, 601),
    (5, 2, 2): (390625, 313001, 375601),
    (7, 1, 2): (2401, 2059, 2353),
}


def test_criterion_1_density_table():
    start = time.perf_counter()
    for (p, m, n), rendered in TABLE.items():
        row = enumerate_density(p, m, n)
        expected = ",".join(map(str, (p, m, n, *rendered, *COUNTS[p, m, n])))
        assert row.csv_row() == expected, f"({p},{m},{n}): {row.csv_row()} != {expected}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 1 PASS: all {len(TABLE)} density rows exact in {elapsed:.1f}s")


def test_criterion_2_golden_examples():
    trident = IntMatrix.from_rows(TRIDENT)
    assert smith_form(trident).diag == (1, 3, 9)
    assert eigenvalue_valuations(trident, 3).values == (0, 1, 2)
    t = analyze(trident, 3)
    assert t.p_characterized and t.p_correspondent

    skewed = IntMatrix.from_rows(SKEWED)
    assert local_profile(skewed, 2).exponents == (0, 1, 1, 2)
    assert eigenvalue_valuations(skewed, 2).values == (
        0,
        Fraction(4, 3),
        Fraction(4, 3),
        Fraction(4, 3),
    )
    assert not analyze(skewed, 2).p_correspondent

    convexed = IntMatrix.from_rows(CONVEXED)
    from padicsmith.newton import newton_polygon

    hull = newton_polygon(char_poly(convexed), 3)
    assert hull.vertices == ((0, 0), (1, 0), (3, 2), (4, 4))
    c = analyze(convexed, 3)
    assert c.p_correspondent and not c.p_characterized

    hepta = IntMatrix.from_rows(HEPTA)
    h = analyze(hepta, 7)
    assert tuple(h.eig_vals.values) == (1, 1, 1, 1)
    assert not h.p_correspondent
    U = IntMatrix.from_rows(HEPTA_U)
    V = IntMatrix.from_rows(HEPTA_V)
    fixed = U @ hepta @ V
    assert fixed == IntMatrix.from_rows(HEPTA_FIXED)
    assert local_profile(fixed, 7).exponents == (0, 1, 1, 2)
    assert analyze(fixed, 7).p_correspondent

    print("ACCEPTANCE 2 PASS: all four worked examples reproduced bit-exactly")


def test_criterion_3_implication_exhaustive():
    start = time.perf_counter()
    cells = [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)]
    checked = 0
    for p, m, n in cells:
        q = p**m
        total = q ** (n * n)
        for idx in range(total):
            rows, x = [], idx
            for _ in range(n):
                row = []
                for _ in range(n):
                    x, r = divmod(x, q)
                    row.append(r)
                rows.append(row)
            rep = analyze(IntMatrix.from_rows(rows), p)
            assert not (rep.p_characterized and not rep.p_correspondent)
            checked += 1
        # the engine's own invariants (weight sum, unit cofactor) raise here
        enumerate_density(p, m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(
        f"ACCEPTANCE 3 PASS: characterized implies correspondent over {checked} "
        f"matrices in {elapsed:.1f}s"
    )


def test_criterion_4_oracle_equivalences():
    rng = random.Random(20250822)
    for _ in range(1000):
        n = rng.randrange(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        )
        assert char_poly(A) == char_poly_minor_oracle(A)
        assert determinantal_divisors(A) == minor_gcd_dets(A)
    print("ACCEPTANCE 4 PASS: 1000 random matrices, both oracle routes agree")


def test_criterion_5_rem_stability():
    rng = random.Random(11)
    done = 0
    while done < 1000:
        n = rng.randrange(2, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        )
        if det(A) == 0:
            continue
        for p in (2, 3, 5):
            rep = verify_rem_stability(A, p, val_p(det(A), p) + 1)
            assert rep.ok
        done += 1
    print("ACCEPTANCE 5 PASS: profile and coefficient valuations stable on 1000 matrices x 3 primes")


def test_criterion_6_orbit_stabilizer():
    start = time.perf_counter()
    for p, m, exps in [(2, 1, (0, 0)), (3, 1, (0, 0)), (2, 2, (0, 1))]:
        rep = orbit_stabilizer_check(p, m, exps)
        assert rep.ok, (p, m, exps)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 6 PASS: pair counts constant across all three orbits in {elapsed:.1f}s")


def test_criterion_7_gl_ratio():
    exhaustive = 0
    for p in (2, 3, 5, 7, 11):
        for m in (1, 2, 3):
            for n in (1, 2, 3, 4):
                rep = gl_count(p, m, n)
                assert rep.ok and rep.ratio < 4, (p, m, n, rep)
                exhaustive += rep.exhaustive_checked
    assert exhaustive == 29  # every cell with (p^m)^(n^2) <= GL_EXHAUSTIVE_BUDGET
    print(
        f"ACCEPTANCE 7 PASS: unit-fraction ratio below 4 on the 60-cell grid "
        f"({exhaustive} cells verified exhaustively)"
    )


def test_criterion_8_single_attempt_success_rate():
    start = time.perf_counter()
    rep = single_attempt_success_rate(n=3, p=101, bound=101, trials=1200, seed=5)
    assert rep.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(
        f"ACCEPTANCE 8 PASS: {rep.successes}/{rep.trials} single-attempt successes at p={rep.p} "
        f"(floor {rep.floor} less 3 sigma) in {elapsed:.1f}s"
    )
