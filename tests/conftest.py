"""Shared fixtures: a small zoo of matrices with known invariants."""

import pytest

from padicsmith import density, exact, newton
from padicsmith.exact import IntMatrix


@pytest.fixture(autouse=True)
def _clear_memos():
    """Start every test with empty package memos, so a test that patches
    Newton, hull or primality internals never sees an earlier test's
    cached result, whatever the test order."""
    for memo in (newton._eigenvalue_valuations, density._outcome, exact.is_prime):
        memo.cache_clear()

# 3x3 with Smith form diag(1, 3, 9); 3-adically both predicates hold.
TRIDENT = [[3, -1, 3], [9, -10, 0], [3, 0, 3]]
TRIDENT_U = [[1, -1, 0], [1, 0, 1], [0, -1, 0]]
TRIDENT_V = [[0, -1, 0], [-1, 0, -1], [1, -1, 0]]

# 4x4 with invariant factors (1, 2, 2, 4) but 2-adic eigenvalue
# valuations (0, 4/3, 4/3, 4/3): the correspondence fails.
SKEWED = [
    [37, 192, 180, 369],
    [55, 268, 198, 531],
    [163, 758, 442, 1539],
    [198, 908, 486, 1858],
]

# 4x4 that is 3-correspondent without being 3-characterized: the
# coefficient valuations sit strictly above the Newton polygon.
CONVEXED = [
    [-20, -2, 81, -388],
    [18, -6, -84, 375],
    [7, 34, 3, 41],
    [13004, -11695, -64944, 289315],
]

# 4x4 with invariant factors (1, 7, 7, 49) and all four 7-adic
# eigenvalue valuations equal to 1; not 7-correspondent.  HEPTA_U and
# HEPTA_V are unit-determinant picks mod 7 that repair it, with
# HEPTA_FIXED the exact product U A V.
HEPTA = [
    [-48, -83, 91, -497],
    [-407, -666, 637, -3948],
    [83, 125, -91, 728],
    [-291, -599, 903, -3717],
]
HEPTA_U = [[6, 1, 0, 20], [1, 1, 1, 0], [1, 1, 1, 2], [1, 3, 0, 1]]
HEPTA_V = [[1, 1, 1, 17], [0, 0, 3, 2], [0, 5, 1, 3], [1, 0, 9, 56]]
HEPTA_FIXED = [
    [-87785, 89700, -758134, -4630434],
    [-4089, 2813, -35060, -213813],
    [-12105, 11261, -104336, -636989],
    [-17618, 12965, -151217, -922413],
]

# 2x2 with determinant -28; reducing mod 2^3 keeps the 2-part of the
# Smith form intact, a stability witness used across several tests.
REDUCIBLE = [[9, 2], [32, 4]]


@pytest.fixture
def trident():
    return IntMatrix.from_rows(TRIDENT)


@pytest.fixture
def skewed():
    return IntMatrix.from_rows(SKEWED)


@pytest.fixture
def convexed():
    return IntMatrix.from_rows(CONVEXED)


@pytest.fixture
def hepta():
    return IntMatrix.from_rows(HEPTA)


@pytest.fixture
def hepta_fixed():
    return IntMatrix.from_rows(HEPTA_FIXED)


@pytest.fixture
def reducible():
    return IntMatrix.from_rows(REDUCIBLE)
