"""Exhaustive densities of the two predicates over residue matrices.

For a prime power p^m and dimension n, every matrix with entries in
[0, p^m) is counted.  Two denominators are offered: ALL counts against
the full space (the convention the reported density table actually
uses), DET_FILTERED restricts to matrices whose determinant has
valuation below m (the convention its caption suggests).  The partition
map splits the whole space by Smith form localized at p, keyed by the
diagonal (p^e_1, ..., p^e_r, 0, ..., 0); singular classes and classes
with sum(e) >= m are real classes here.  The reported minimum
characterized percentage ranges over every class that contains at least
one characterized matrix.

The count is exact, but most matrices are not classified themselves:
each is counted through a representative with a sorted diagonal.
Permutation similarity P A P^T keeps every entry in [0, p^m) and
preserves the characteristic polynomial and the Smith form, so both
predicates, the determinant filter and the partition key are constant
on its orbits.  For a fixed arrangement of a diagonal, one such
similarity maps the matrices with that diagonal one-to-one onto the
matrices with the sorted diagonal.  So the walk classifies only the
representatives whose diagonal is non-decreasing and counts each with
weight n!/prod(multiplicity!) of its diagonal values: the number of
arrangements it stands for.  Transposition is a second exact symmetry:
A -> A^T keeps the diagonal, the characteristic polynomial and the Smith
form, and swaps a01 with a10.  So for n >= 2 only representatives with
a01 <= a10 are classified (the other off-diagonal entries over the full
box); one with a01 < a10 also stands for its transpose and counts twice.
The representatives of one sorted diagonal are the unit of work: the
walk tallies one diagonal after another, and with workers each diagonal
is one task.

Each matrix classified one by one is reduced to its valuation signature
by the minor kernel (padicsmith.kernel).  A box has few distinct
signatures, and each is decided once by classify._predicates, the rule
analyze runs, so the theorem is checked on each of them.

The m >= 2 strata counted whole (below) rest on Mazur's inequality
instead.  With the Smith exponents e_1 <= ... <= e_r and Delta_k =
e_1 + ... + e_k, each f_k sums principal k x k minors, so v(f_k) >=
Delta_k: the Newton polygon lies on or above the Hodge polygon through
(k, Delta_k), and both span 0 <= x <= r.  The lower convex hull of
points on or above a convex polygon equals it exactly when the points
include each of its vertices.  So a matrix is correspondent exactly
when v(f_r) = Delta_r and v(f_k) = Delta_k at every k < r with
e_k < e_{k+1}, and characterized when that holds at every k.

For m >= 2 the walk runs over residue classes, not matrices.  The
matrices congruent to one A0 = A mod p, its p^((m-1) n^2) lifts, form a
class, and the classes are walked over the representatives of the
box over [0, p) with the same weights: P(A0 + pB)P^T and transposition map
the lifts of A0 one-to-one onto the lifts of its image.  Each f_k mod p
and the rank of A0 mod p (the number of Delta_k equal to 0) are read
off A0's own signature, and split the classes into strata:

- rank n: every Delta_k is 0, so every lift has key (n, 0, ..., 0), lies
  in the det filter and is correspondent; it is characterized exactly
  when f_1, ..., f_{n-1} are units (f_n = +-det is one).  The class is
  counted whole.
- rank n - 1: e_1 = ... = e_{n-1} = 0 on every lift, so k = n - 1 is the
  only possible Hodge vertex, and f_n = +-det meets Delta_n whenever the
  lift is nonsingular.  The class is characterized exactly when
  f_1, ..., f_{n-1} are units and correspondent exactly when f_{n-1} is;
  only the key needs v(det).  det is affine in an entry whose cofactor
  is a unit, so most v(det) counts are closed forms and only one lift
  of that entry per lift of the others is valued (_corank_one_keys).
  These counts are the same for every class in one orbit under row and
  column permutations and transposition: det(P (A0 + pB) Q) =
  +-det(A0 + pB), det is unchanged by transposition, and each of these
  maps carries the lifts of A0 onto the lifts of its image.  So they are computed once per orbit, for
  its least image P A0 Q or P A0^T Q (_equivalence_key).  Characterized
  and correspondent still come from each class's own signature: an
  independent P and Q change the charpoly.
- A0 = 0: the lifts are pB with B over [0, p^(m-1)).  Scaling by p adds
  1 to every Smith exponent and k to v(f_k), which keeps both predicates,
  so this class is the tally of cell (p, m-1, n) with each exponent
  raised by 1.
- any other rank: every lift is classified by its signature, once per
  orbit under permutation similarity and transposition.
  P (A0 + pB) P^T and its transpose carry the lifts of A0 onto those of
  the image and keep f_k, Delta_k and the key of every lift, so the
  counted outcomes of the lifts are those of the least image
  P A0 P^T or P A0^T P^T (_similarity_key).

Both memos are keyed on a permuted copy of the class, not a hash, and
live for one _tally call: one sorted diagonal per pool task, so workers
lose the reuse across diagonals that the serial walk gets.  At (2,2,3)
the walk computes the lifts of 13 of its 105 rank 2 classes and of 9 of
its 20 rank 1 classes, one per orbit.

The det filter is read off the key, val_p(det) = e_1 + ... + e_n, so it
need not be tallied separately.

The group-order checks take their class sizes from the same partition
map: gl_count the unit class (1, ..., 1), and orbit_stabilizer_check the
class of diag(p^e), which it compares with the products L diag(p^e) R
over pairs of units.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, permutations, product
from math import comb, factorial, prod
from operator import itemgetter

from .classify import _predicates
from .exact import BudgetExceededError, _det_rows, _require_prime
from .kernel import _VAL_OF_ZERO, _deep_valuations, _signature_valuations, _signatures, _valuation_table

DEFAULT_BUDGET = 2**30

# Fewest matrices classified one by one for which enumerate_density starts
# workers.  Two workers take some 15-30 ms to start and merge (2 vCPUs,
# CPython 3.11, one sorted diagonal per task).  They lose on every cell of
# the density table, up to (2,2,3), which counts 98304 (14-19 ms serially,
# 23-27 ms on two), and win from (5,1,3), which counts 328125 (240-255 ms
# serially, 160-180 ms on two).  For m >= 2 the count takes every lift of
# every class, far more than the walk classifies once per orbit, and a
# task reuses lift work only within its own diagonal; the cells past the
# threshold still win on two: (2,3,3) takes 3.41 s serially and 2.34 s on
# two, (3,2,3) 1.84 s and 1.68 s (medians of 3 fresh processes).
_POOL_MIN_ONE_BY_ONE = 2**17

# gl_count checks the closed form against an exhaustive count up to this many matrices
GL_EXHAUSTIVE_BUDGET = 2**20

CSV_HEADER = "p,m,n,pct_char,pct_corr,min_pct_char,total,char_count,corr_count"


class Convention(str, Enum):
    """Which matrices form the denominator of a density row."""

    ALL = "all"
    DET_FILTERED = "det-filtered"


def round_half_up_2dec(x: Fraction) -> str:
    """Render a non-negative exact percentage with two decimals, ties up."""
    num, den = x.numerator, x.denominator
    if num < 0:
        raise ValueError(f"percentage must be non-negative, got {x}")
    hundredths = (200 * num + den) // (2 * den)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


@dataclass(frozen=True)
class PartitionCell:
    """One localized-Smith-form class of the residue matrix space."""

    size: int
    char_count: int

    @property
    def pct_char(self) -> Fraction:
        return Fraction(100 * self.char_count, self.size)


@dataclass(frozen=True)
class DensityRow:
    p: int
    m: int
    n: int
    convention: Convention
    total: int
    char_count: int
    corr_count: int
    partitions: dict[tuple[int, ...], PartitionCell]

    @property
    def pct_char(self) -> Fraction:
        return Fraction(100 * self.char_count, self.total)

    @property
    def pct_corr(self) -> Fraction:
        return Fraction(100 * self.corr_count, self.total)

    @property
    def min_pct_char(self) -> Fraction:
        """Smallest characterized percentage over the localized Smith form classes.

        Classes without a single characterized member are skipped.  Small
        boxes do produce such classes (entries below p^m can force an even
        trace on every matrix with a given Smith form, say) and including
        them would pin the minimum at zero; the reported figure is the
        worst class that is actually attainable.  The zero matrix is
        vacuously characterized, so its class keeps the minimum defined.
        """
        return min(
            cell.pct_char for cell in self.partitions.values() if cell.char_count > 0
        )

    def rendered(self) -> tuple[str, str, str]:
        return (
            round_half_up_2dec(self.pct_char),
            round_half_up_2dec(self.pct_corr),
            round_half_up_2dec(self.min_pct_char),
        )

    def csv_row(self) -> str:
        pc, pr, mn = self.rendered()
        return f"{self.p},{self.m},{self.n},{pc},{pr},{mn},{self.total},{self.char_count},{self.corr_count}"

    def to_json_obj(self) -> dict:
        pc, pr, mn = self.rendered()
        return {
            "p": self.p,
            "m": self.m,
            "n": self.n,
            "convention": self.convention.value,
            "total": self.total,
            "char_count": self.char_count,
            "corr_count": self.corr_count,
            "pct_char": f"{self.pct_char.numerator}/{self.pct_char.denominator}",
            "pct_corr": f"{self.pct_corr.numerator}/{self.pct_corr.denominator}",
            "min_pct_char": f"{self.min_pct_char.numerator}/{self.min_pct_char.denominator}",
            "pct_char_2dec": pc,
            "pct_corr_2dec": pr,
            "min_pct_char_2dec": mn,
            "partitions": {
                ",".join(map(str, key)): {"size": cell.size, "char_count": cell.char_count}
                for key, cell in sorted(self.partitions.items())
            },
        }


# ---------------------------------------------------------------------------
# per-matrix classification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _outcome(sig: tuple[int, ...], p: int) -> tuple[bool, bool, tuple[int, ...]]:
    """(characterized, correspondent, partition_key) of a signature at p,
    decided by classify._predicates; a box has few distinct signatures,
    hence the memo."""
    vals, exponents = _signature_valuations(sig)
    _, _, char, corr = _predicates(vals, exponents, p, f"v(f_k) {vals}, Smith exponents {exponents} at p={p}")
    return char, corr, (len(exponents),) + exponents


def _det_filtered(key: tuple[int, ...], n: int, m: int) -> bool:
    """val_p(det) < m, read off a partition key (rank, e_1, ..., e_rank).

    Exact: a nonsingular matrix has val_p(det) = e_1 + ... + e_n.
    """
    return key[0] == n and sum(key[1:]) < m


def classify_residue_matrix(
    rows, p: int, m: int
) -> tuple[bool, bool, tuple[int, ...], bool]:
    """Classify one residue matrix from the valuations of its minors.

    Returns (characterized, correspondent, partition_key, det_filtered).
    The key is (rank, e_1, ..., e_rank), identifying the Smith form
    localized at p; det_filtered flags val_p(det) < m.  Semantics are
    identical to classify.analyze; the test suite holds both to
    Berkowitz and the integer Smith form.  Raises ValueError when p is
    not prime, rows is not n >= 1 rows of n entries, or an entry is not
    an int (a bool included) or lies outside [0, p^m);
    UnsupportedSizeError when n > 6.
    """
    _require_prime(p)
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise ValueError(
            f"residue matrix must be n >= 1 rows of n entries each, got {[list(r) for r in rows]}"
        )
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise ValueError(f"residue matrix entries must be int, got {x!r} in {[list(r) for r in rows]}")
    q = p**m
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= q:
        raise ValueError(
            f"residue matrix entries must lie in [0, {q}), got {[list(r) for r in rows]}"
        )
    char, corr, key = _outcome(_signatures(n)(rows[:-1], rows[-1:], _valuation_table(p, m, n))[0], p)
    return char, corr, key, _det_filtered(key, n, m)


# ---------------------------------------------------------------------------
# enumeration and tallies
# ---------------------------------------------------------------------------

def _arrangements(diag: tuple[int, ...]) -> int:
    """Number of distinct orderings of a diagonal: n! / prod(multiplicity!)."""
    return factorial(len(diag)) // prod(factorial(c) for c in Counter(diag).values())


def _representative_count(q: int, n: int) -> int:
    """Number of representatives of the n x n box over [0, q): sorted
    diagonals x (a01 <= a10) pairs x the other off-diagonal digits."""
    if n == 1:
        return q
    return comb(q + n - 1, n) * comb(q + 1, 2) * q ** (n * n - n - 2)


def _walk(groups):
    """The matrices product(*group) of each group, chained, as (prefix, lasts) runs.

    The last factor of a group is a sequence of last rows, so a run is
    one prefix, a tuple of rows 0 .. n-2, with all of the group's last
    rows.
    """
    for *heads, lasts in groups:
        for prefix in product(*heads):
            yield prefix, lasts


def _blocks(q: int, n: int, diag: tuple[int, ...]):
    """The representatives of the n x n box over [0, q) with sorted diagonal diag.

    Yields (runs, weight) per block: runs is a _walk over the block's
    (prefix, lasts) runs, in which each matrix stands for weight
    matrices.  A representative has a non-decreasing diagonal and
    a01 <= a10.  Those with a01 < a10 form the strict block, those with
    a01 = a10 the tied one; each block is ordered by (a01, rest of row 0,
    a10, rest of row 1, rows 2 .. n-1 row-major), last digit fastest.  A
    representative stands for the n!/prod(multiplicity!) diagonal
    arrangements that permutation similarity reaches, times 2 for its
    transpose when a01 < a10.
    """
    weight = _arrangements(diag)
    if n == 1:
        yield _walk([([diag],)]), weight
        return
    d0, d1 = diag[:2]
    # rows 0 and 1 indexed by a01 and a10, each over its other fills;
    # row i >= 2 runs over its q^(n-1) off-diagonal fills around diag[i]
    row0 = [[(d0, x, *f) for f in product(range(q), repeat=n - 2)] for x in range(q)]
    row1 = [[(y, d1, *f) for f in product(range(q), repeat=n - 2)] for y in range(q)]
    rest = [[(*f[:i], d, *f[i:]) for f in product(range(q), repeat=n - 1)] for i, d in enumerate(diag) if i >= 2]
    # one group per a01 in each block: row 1 over every a10 > a01
    # (strict, empty for a01 = q - 1), then with a10 = a01 (tied)
    strict = [(row0[x], [r for y in range(x + 1, q) for r in row1[y]], *rest) for x in range(q - 1)]
    tied = [(row0[x], row1[x], *rest) for x in range(q)]
    yield _walk(strict), 2 * weight
    yield _walk(tied), weight


def _lifts(row, p: int, m: int) -> list[tuple[int, ...]]:
    """Every row over [0, p^m) congruent to row mod p."""
    return list(product(*(range(a, p**m, p) for a in row)))


def _corank_one_keys(cls, p: int, m: int, vt) -> Counter:
    """Partition keys of the lifts of a class of rank n - 1 mod p, counted.

    e_1 = ... = e_{n-1} = 0 on every lift, so the key only needs
    v(det) >= 1.  Order the class as [[M, u], [w, x]] with det M a unit
    mod p, by moving an entry with a unit cofactor to (n-1, n-1).  Then
    det = x c - s with c = det M and s = w adj(M) u, and det is affine in
    x: over the p^(m-1) lifts of x it meets every multiple of p mod p^m
    once.  Per lift of the other n^2 - 1 entries, (p-1) p^(m-1-j) lifts
    of x have v(det) = j for 1 <= j < m, and the one with det = 0 mod p^m,
    x* = s c^-1 mod p^m, gets its key from its exact det.  x* lies in the
    class without a check: det of the class is 0 mod p, so x c = s mod p
    for x the class's own entry, and c is a unit.
    """
    n = len(cls)
    idx = range(n)

    def cofactor_is_unit(i, j):
        minor = [[a for c, a in enumerate(row) if c != j] for r, row in enumerate(cls) if r != i]
        return _det_rows(minor) % p != 0

    pivot = next(((i, j) for i in idx for j in idx if cofactor_is_unit(i, j)), None)
    if pivot is None:
        raise AssertionError(f"no unit cofactor mod {p} in a class of rank n - 1: {[list(r) for r in cls]}")
    # move the pivot to (n-1, n-1); permuting rows and columns changes
    # det by a sign at most, which neither v(det) nor det = 0 sees
    i, j = pivot
    rows = [r for r in idx if r != i] + [i]
    cols = [c for c in idx if c != j] + [j]
    *upper, last = [[cls[r][c] for c in cols] for r in rows]
    deep = _deep_valuations(n)(
        product(*(_lifts(row[:-1], p, m) for row in upper)),
        _lifts([row[-1] for row in upper], p, m),
        _lifts(last[:-1], p, m),
        p**m,
        vt,
    )
    units = (0,) * (n - 1)
    shallow = p ** ((m - 1) * (n * n - 1))  # lifts of the other entries
    keys = Counter({(n, *units, j): shallow * (p - 1) * p ** (m - 1 - j) for j in range(1, m)})
    for e, count in deep.items():
        keys[(n - 1, *units) if e == _VAL_OF_ZERO else (n, *units, e)] += count
    return keys


def _equivalence_key(cls) -> tuple[tuple[int, ...], ...]:
    """The least P cls Q or P cls^T Q over permutation matrices P and Q, n >= 2.

    For a fixed column order the least row order is the sorted one, so
    the minimum runs over column orders of cls and of cls^T alone.
    """
    orders = [itemgetter(*order) for order in permutations(range(len(cls)))]
    return min(tuple(sorted(map(order, a))) for a in (cls, tuple(zip(*cls))) for order in orders)


def _similarity_key(cls) -> tuple[tuple[int, ...], ...]:
    """The least P cls P^T or P cls^T P^T over permutation matrices P, n >= 2."""
    orders = [itemgetter(*order) for order in permutations(range(len(cls)))]
    return min(tuple(map(order, order(a))) for a in (cls, tuple(zip(*cls))) for order in orders)


def _count_outcomes(tally: Counter, runs, weight: int, p: int, sigs, vt) -> None:
    """Add the outcome (characterized, correspondent, partition_key) of
    each matrix of a _walk to tally, weight times; each distinct
    signature is decided once."""
    counts = Counter(chain.from_iterable(sigs(prefix, lasts, vt) for prefix, lasts in runs))
    for sig, count in counts.items():
        tally[_outcome(sig, p)] += weight * count


def _lift_outcomes(cls, p: int, m: int, sigs, vt) -> Counter:
    """Outcomes of the p^((m-1) n^2) lifts of a class mod p, each classified."""
    outcomes: Counter = Counter()
    _count_outcomes(outcomes, _walk([[_lifts(row, p, m) for row in cls]]), 1, p, sigs, vt)
    return outcomes


def _box_tally(p: int, m: int, n: int, diags: Iterable[tuple[int, ...]] | None = None) -> Counter:
    """Outcomes of the box over [0, p^m), from its representatives with a sorted diagonal in
    diags (all by default), each classified and weighted; verify theorem1 walks the whole box."""
    sigs, vt = _signatures(n), _valuation_table(p, m, n)
    tally: Counter = Counter()
    for diag in combinations_with_replacement(range(p**m), n) if diags is None else diags:
        for runs, weight in _blocks(p**m, n, diag):
            _count_outcomes(tally, runs, weight, p, sigs, vt)
    return tally


def _tally(args: tuple[int, int, int, Iterable[tuple[int, ...]]]) -> Counter:
    """Tally the representatives of the box over [0, p) with a sorted diagonal in diags.

    Returns a Counter of outcomes (characterized, correspondent, partition_key),
    each counted with its weight: for m = 1 by _box_tally, for m >= 2 as classes
    A mod p whose p^((m-1) n^2) lifts are counted by the stratum of their rank
    mod p (see the module docstring).  Only ranks 1 .. n-2 classify lifts one by
    one, and the lift work of ranks 1 .. n-1 runs once per orbit of the classes.
    """
    p, m, n, diags = args
    if m == 1:
        return _box_tally(p, 1, n, diags)
    sigs, vt, vt1 = _signatures(n), _valuation_table(p, m, n), _valuation_table(p, 1, n)
    tally: Counter = Counter()
    units = (0,) * (n - 1)
    class_size = p ** ((m - 1) * n * n)
    # the per-lift work of each class, once per orbit of its stratum's symmetry
    deep_keys: dict = {}  # by _equivalence_key: partition keys of the lifts
    lift_outcomes: dict = {}  # by _similarity_key: outcomes of the lifts
    for runs, weight in chain.from_iterable(_blocks(p, n, diag) for diag in diags):
        for prefix, lasts in runs:
            for last, sig in zip(lasts, sigs(prefix, lasts, vt1)):
                cls = (*prefix, last)
                rank = sig[n:].count(0)  # Delta_k = 0 iff some k x k minor is a unit
                char = sig[: n - 1] == units  # f_1 .. f_{n-1} units
                if rank == n:
                    tally[char, True, (n, *units, 0)] += weight * class_size
                elif rank == 0:
                    below = _tally((p, m - 1, n, combinations_with_replacement(range(p), n)))
                    for (c, r, (k, *exps)), w in below.items():
                        tally[c, r, (k, *(e + 1 for e in exps))] += weight * w
                elif rank == n - 1:
                    corr = sig[n - 2] == 0  # f_{n-1} a unit
                    rep = _equivalence_key(cls)
                    if rep not in deep_keys:
                        deep_keys[rep] = _corank_one_keys(rep, p, m, vt)
                    for key, w in deep_keys[rep].items():
                        tally[char, corr, key] += weight * w
                else:
                    rep = _similarity_key(cls)
                    if rep not in lift_outcomes:
                        lift_outcomes[rep] = _lift_outcomes(rep, p, m, sigs, vt)
                    for outcome, w in lift_outcomes[rep].items():
                        tally[outcome] += weight * w
    return tally


def _space_size(space: str, p: int, exponent: int, budget: int) -> int:
    """p^exponent, the size of a space of matrices, if it fits budget.

    The space holds at least 2^exponent matrices, so from exponent >=
    budget.bit_length() on it is refused without building its size, which
    can run to millions of digits; one too long to print shows as p^exponent.
    """
    if exponent < budget.bit_length():
        size = p**exponent
        if size <= budget:
            return size
    shown = p**exponent if exponent * p.bit_length() <= 10_000 else f"{p}^{exponent}"
    raise BudgetExceededError(f"{space} = {shown} exceeds budget {budget}")


def _box_size(p: int, m: int, n: int, budget: int) -> int:
    """The number (p^m)^(n^2) of n x n matrices over [0, p^m), if it fits budget."""
    return _space_size("enumeration space (p^m)^(n^2)", p, m * n * n, budget)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def enumerate_density(
    p: int,
    m: int,
    n: int,
    convention: Convention = Convention.ALL,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> DensityRow:
    """Count every n x n matrix over [0, p^m) and tally the densities.

    The walk runs over the representatives of the box over [0, p), each
    weighted by its number of diagonal arrangements: single matrices for
    m = 1, classes mod p for m >= 2 (see the module docstring).  With
    workers, each sorted diagonal is one task, handed to the next free
    worker, and the tallies are summed, so the result is independent of
    thread count.  No more workers start than there are diagonals or
    usable CPUs.  Raises BudgetExceededError when the full space
    (p^m)^(n^2) is larger than budget, however few of its matrices are
    classified one by one, and UnsupportedSizeError past n = 6, both
    before any work starts.
    """
    _require_prime(p)
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    convention = Convention(convention)
    total = _box_size(p, m, n, budget)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _signatures(n)  # refuses n > _SIGNATURE_MAX_N here, not in the workers

    reps = _representative_count(p, n)
    # Workers pay off only for matrices classified one by one: every
    # representative for m = 1, and for m >= 2 at most every lift of a
    # class, none at n <= 2, where every class is counted whole.
    one_by_one = reps if m == 1 else reps * p ** ((m - 1) * n * n) if n > 2 else 0
    diags = tuple(combinations_with_replacement(range(p), n))
    if threads == 1 or one_by_one < _POOL_MIN_ONE_BY_ONE:
        tally = _tally((p, m, n, diags))
    else:
        import multiprocessing as mp

        tasks = [(p, m, n, (diag,)) for diag in diags]
        with mp.Pool(min(threads, len(tasks), _usable_cpus())) as pool:
            tally = sum(pool.imap(_tally, tasks, chunksize=1), Counter())
    weight = sum(tally.values())
    if weight != total:
        raise AssertionError(
            f"representative weights sum to {weight}, expected {total} matrices"
        )

    # classes split the whole space under either convention; expose each by
    # its localized Smith diagonal (p^e_1, ..., p^e_r, 0, ..)
    classes: dict = {}
    for (char, _, key), w in tally.items():
        cell = classes.setdefault(key, [0, 0])
        cell[0] += w
        cell[1] += w if char else 0
    partitions = {}
    for (r, *exps), (size, char) in sorted(classes.items()):
        diag = tuple(p**e for e in exps) + (0,) * (n - r)
        partitions[diag] = PartitionCell(size=size, char_count=char)
    counted = [
        (char, corr, w)
        for (char, corr, key), w in tally.items()
        if convention is Convention.ALL or _det_filtered(key, n, m)
    ]
    return DensityRow(
        p=p,
        m=m,
        n=n,
        convention=convention,
        total=sum(w for _, _, w in counted),
        char_count=sum(w for char, _, w in counted if char),
        corr_count=sum(w for _, corr, w in counted if corr),
        partitions=partitions,
    )


# ---------------------------------------------------------------------------
# group orders and the orbit-stabilizer identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GLCountReport:
    p: int
    m: int
    n: int
    order: int
    ratio: Fraction
    exhaustive_count: int | None  # None past GL_EXHAUSTIVE_BUDGET

    @property
    def exhaustive_checked(self) -> bool:
        return self.exhaustive_count is not None

    @property
    def ok(self) -> bool:
        """The closed form agrees with the exhaustive count, where one was made."""
        return self.exhaustive_count in (None, self.order)


def gl_order(p: int, m: int, n: int) -> int:
    """|GL_n(Z/p^m Z)| in closed form."""
    _require_prime(p)
    base = prod(p**n - p**i for i in range(n))
    return p ** ((m - 1) * n * n) * base


def gl_count(p: int, m: int, n: int) -> GLCountReport:
    """Order of GL_n(Z/p^m Z) and the full-space/GL ratio.

    The ratio is prod_{k=1..n} 1/(1 - p^-k) < 3.47.  When the residue
    space fits in GL_EXHAUSTIVE_BUDGET the report also carries the size
    of the unit class that enumerate_density counts over the whole box,
    and its ok says whether that count equals the closed form.
    """
    order = gl_order(p, m, n)
    space = p ** (m * n * n)
    count = None
    if space <= GL_EXHAUSTIVE_BUDGET:
        # Smith diagonal (1, ..., 1) at p: det is prime to p, so A is invertible mod p^m
        count = enumerate_density(p, m, n).partitions[(1,) * n].size
    return GLCountReport(
        p=p, m=m, n=n, order=order, ratio=Fraction(space, order), exhaustive_count=count
    )


@dataclass(frozen=True)
class OrbitCheckReport:
    p: int
    m: int
    exponents: tuple[int, ...]
    class_size: int
    pair_count_per_member: Fraction  # |GL|^2 / class_size
    ok: bool


def orbit_stabilizer_check(
    p: int, m: int, exponents: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> OrbitCheckReport:
    """Exhaustively verify the sandwich-counting identity for one profile class.

    With S = diag(p^e) and sum(e) < m, a product L @ S @ R lies in S's
    class only if det L and det R are prime to p, since det(L S R) =
    det L * det S * det R mod p^m must have valuation sum(e); and every
    such product does, since the Smith form mod p^m is that of any lift
    (rem-stability).  So (L @ S @ R) rem p^m is bucketed over the pairs of
    matrices over [0, p^m) with det prime to p, the class size is read
    off enumerate_density's partition map, and each member of the class
    must be hit exactly |GL|^2 / class_size times.
    """
    _require_prime(p)
    exponents = tuple(int(e) for e in exponents)
    n = len(exponents)
    if n < 1:
        raise ValueError("profile must have at least one exponent")
    if any(e < 0 for e in exponents) or list(exponents) != sorted(exponents):
        raise ValueError(f"profile must be sorted non-negative exponents, got {exponents}")
    if sum(exponents) >= m:
        raise ValueError(
            f"profile classes need sum(e) < m, got sum {sum(exponents)} with m={m}"
        )
    _space_size("pair space (p^m)^(2 n^2)", p, 2 * m * n * n, budget)
    q = p**m

    rng_n = range(n)
    units = [
        flat
        for flat in product(range(q), repeat=n * n)
        if _det_rows([list(flat[i * n : (i + 1) * n]) for i in rng_n]) % p
    ]
    powers = tuple(p**e for e in exponents)
    # S is nonsingular with every e_i <= sum(e) < m, so its key is its diagonal
    class_size = enumerate_density(p, m, n, budget=budget).partitions[powers].size
    # a Fraction: when class_size does not divide |GL|^2, no hit count
    # equals it and ok is False
    expected = Fraction(gl_order(p, m, n) ** 2, class_size)

    hits: Counter = Counter()
    for L in units:
        scaled = [[L[i * n + k] * powers[k] for k in rng_n] for i in rng_n]
        for R in units:
            out = []
            for i in rng_n:
                srow = scaled[i]
                for j in rng_n:
                    out.append(sum(srow[k] * R[k * n + j] for k in rng_n) % q)
            hits[tuple(out)] += 1

    ok = len(hits) == class_size and all(c == expected for c in hits.values())
    return OrbitCheckReport(
        p=p,
        m=m,
        exponents=exponents,
        class_size=class_size,
        pair_count_per_member=expected,
        ok=ok,
    )
