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

The per-matrix classifier here is a specialized fast path for n <= 4
(direct minor valuations read from a per-cell table, hand-rolled
charpolys); its agreement with the general machinery in
classify.analyze is enforced by the test suite.  It decides
correspondence without building a Newton polygon.  With the Smith
exponents e_1 <= ... <= e_r and Delta_k = e_1 + ... + e_k, the valuation
of the k-th determinantal divisor, each coefficient f_k of the
characteristic polynomial is a signed sum of principal k x k minors, so
val_p(f_k) >= Delta_k: the Newton polygon lies on or above the Hodge
polygon through (k, Delta_k) (Mazur's inequality), and both span
0 <= x <= r.  The lower convex hull of points on or above a convex
polygon equals that polygon exactly when the points include each of its
vertices.  So the matrix is correspondent exactly when val_p(f_r) =
Delta_r and val_p(f_k) = Delta_k at every k < r with e_k < e_{k+1}, and
characterized when that holds at every k.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, islice, product, repeat
from math import comb, factorial, prod

from .classify import analyze
from .exact import BudgetExceededError, IntMatrix, _det_rows, _require_prime, val_p
from .smith import local_profile

DEFAULT_BUDGET = 2**30

THREADS_ENV_VAR = "PADICSMITH_THREADS"

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
# fast per-matrix classification
# ---------------------------------------------------------------------------

# Largest valuation table a classifier builds.  Every cell within
# DEFAULT_BUDGET fits (the largest, n = 2 with p^m = 181, needs 64800);
# bigger boxes go through classify.analyze instead.
_TABLE_LIMIT = 2**16

# What a table holds at index 0: more than the valuation of any nonzero
# value under _TABLE_LIMIT, so min() passes over zero entries and minors,
# and a vanishing coefficient never equals a determinantal valuation.
_VAL_OF_ZERO = _TABLE_LIMIT


def _table_bound(q: int, n: int) -> int:
    """Largest |x| a classifier looks up for an n x n matrix over [0, q).

    f_k sums n!/(k!(n-k)!) principal k x k minors of k! products each, so
    |f_k| <= n!/(n-k)! (q-1)^k, which also bounds every k x k minor; the
    maximum over k is at k = n.
    """
    return factorial(n) * (q - 1) ** n


@lru_cache(maxsize=16)
def _valuation_table(p: int, m: int, n: int) -> list[int]:
    """val_p(x) at index x for every nonzero |x| up to _table_bound.

    A negative x wraps to the end of the list, as Python indexing does,
    so one list serves both signs.
    """
    bound = _table_bound(p**m, n)
    table = [_VAL_OF_ZERO] * (2 * bound + 1)
    for x in range(1, bound + 1):
        table[x] = table[-x] = val_p(x, p)
    return table


def _hodge_test(fv: list[int], dv: list[int]) -> tuple[bool, bool]:
    """(characterized, correspondent) from val_p(f_k) and Delta_k, k = 1..r.

    fv[k-1] is val_p(f_k), with _VAL_OF_ZERO for a vanishing f_k, and
    dv[k-1] = Delta_k = e_1 + ... + e_k.  Characterized means fv == dv.
    Each f_k sums principal k x k minors, so fv >= dv entrywise: the
    Newton polygon lies on or above the Hodge polygon through the points
    (k, Delta_k), and both end at x = r.  They are equal, i.e. the
    matrix is correspondent, exactly when the Newton points hit the Hodge
    polygon at x = r and at every vertex k, where e_k < e_{k+1}.
    """
    if fv == dv:
        return True, True
    if fv[-1] != dv[-1]:
        return False, False
    prev = 0
    for k in range(len(dv) - 1):
        # e_k < e_{k+1} is Delta_k - Delta_{k-1} < Delta_{k+1} - Delta_k
        if fv[k] != dv[k] and 2 * dv[k] < prev + dv[k + 1]:
            return False, False
        prev = dv[k]
    return False, True


def _classify2(rows, p: int, m: int, vt: list[int]):
    (a, b), (c, d) = rows
    d1 = min(vt[a], vt[b], vt[c], vt[d])
    v1 = vt[a + d]
    det = a * d - b * c
    if det:
        # f_2 = det, so only f_1 can miss; the Hodge polygon has a vertex
        # at x = 1 unless e_1 = e_2
        d2 = vt[det]
        char = v1 == d1
        return char, char or 2 * d1 == d2, (2, d1, d2 - d1), d2 < m
    if d1 != _VAL_OF_ZERO:
        # rank 1: both predicates reduce to val(trace) == min entry valuation
        char = v1 == d1
        return char, char, (1, d1), False
    return True, True, (0,), False


def _classify3(rows, p: int, m: int, vt: list[int]):
    (a, b, c), (d, e, f), (g, h, i) = rows
    d1 = min(vt[a], vt[b], vt[c], vt[d], vt[e], vt[f], vt[g], vt[h], vt[i])
    if d1 == _VAL_OF_ZERO:
        return True, True, (0,), False
    # the principal 2 x 2 minors, then the rest of rows 1-2 for the det
    p01, p02, p12 = a * e - b * d, a * i - c * g, e * i - f * h
    x02, x01 = d * i - f * g, d * h - e * g
    det = a * p12 - b * x02 + c * x01
    d2 = min(
        vt[p01], vt[a * f - c * d], vt[b * f - c * e],
        vt[a * h - b * g], vt[p02], vt[b * i - c * h],
        vt[x01], vt[x02], vt[p12],
    )
    v1 = vt[a + e + i]
    # _hodge_test written out for r = 3 and r = 2
    if det:
        d3 = vt[det]
        ok1 = v1 == d1
        ok2 = vt[p01 + p02 + p12] == d2
        corr = (ok1 or 2 * d1 == d2) and (ok2 or 2 * d2 == d1 + d3)
        return ok1 and ok2, corr, (3, d1, d2 - d1, d3 - d2), d3 < m
    if d2 != _VAL_OF_ZERO:
        ok1 = v1 == d1
        ok2 = vt[p01 + p02 + p12] == d2
        return ok1 and ok2, ok2 and (ok1 or 2 * d1 == d2), (2, d1, d2 - d1), False
    char = v1 == d1
    return char, char, (1, d1), False


_PAIRS4 = tuple(combinations(range(4), 2))
_TRIPLES4 = tuple(combinations(range(4), 3))


def _classify4(rows, p: int, m: int, vt: list[int]):
    r0, r1, r2, r3 = rows
    d1 = min(map(vt.__getitem__, (*r0, *r1, *r2, *r3)))
    if d1 == _VAL_OF_ZERO:
        return True, True, (0,), False
    f1 = -(r0[0] + r1[1] + r2[2] + r3[3])
    f2 = 0
    for i0, i1 in _PAIRS4:
        ra, rb = rows[i0], rows[i1]
        f2 += ra[i0] * rb[i1] - ra[i1] * rb[i0]
    f3 = 0
    for sel in _TRIPLES4:
        i, j, k = sel
        ra, rb, rc = rows[i], rows[j], rows[k]
        f3 += (
            ra[i] * (rb[j] * rc[k] - rb[k] * rc[j])
            - ra[j] * (rb[i] * rc[k] - rb[k] * rc[i])
            + ra[k] * (rb[i] * rc[j] - rb[j] * rc[i])
        )
    f3 = -f3
    det = 0
    for j, sel in ((0, (1, 2, 3)), (1, (0, 2, 3)), (2, (0, 1, 3)), (3, (0, 1, 2))):
        if r0[j]:
            c0, c1, c2 = sel
            sub = (
                r1[c0] * (r2[c1] * r3[c2] - r2[c2] * r3[c1])
                - r1[c1] * (r2[c0] * r3[c2] - r2[c2] * r3[c0])
                + r1[c2] * (r2[c0] * r3[c1] - r2[c1] * r3[c0])
            )
            det += (sub if j % 2 == 0 else -sub) * r0[j]

    # determinantal valuations; a unit minor ends the search at its level
    d2 = _VAL_OF_ZERO
    for i0, i1 in _PAIRS4:
        ra, rb = rows[i0], rows[i1]
        for j0, j1 in _PAIRS4:
            v = vt[ra[j0] * rb[j1] - ra[j1] * rb[j0]]
            if v < d2:
                d2 = v
        if d2 == 0:
            break
    d3 = _VAL_OF_ZERO
    if d2 != _VAL_OF_ZERO:
        for i, j, k in _TRIPLES4:
            ra, rb, rc = rows[i], rows[j], rows[k]
            for c0, c1, c2 in _TRIPLES4:
                v = vt[
                    ra[c0] * (rb[c1] * rc[c2] - rb[c2] * rc[c1])
                    - ra[c1] * (rb[c0] * rc[c2] - rb[c2] * rc[c0])
                    + ra[c2] * (rb[c0] * rc[c1] - rb[c1] * rc[c0])
                ]
                if v < d3:
                    d3 = v
            if d3 == 0:
                break

    fv = [vt[f1], vt[f2], vt[f3], vt[det]]
    dv = [d1, d2, d3, vt[det]]
    r = 4 if det else dv.index(_VAL_OF_ZERO)
    del fv[r:], dv[r:]
    char, corr = _hodge_test(fv, dv)
    key = (r, d1) + tuple(dv[k] - dv[k - 1] for k in range(1, r))
    return char, corr, key, r == 4 and dv[3] < m


def _classify_generic(rows, p: int, m: int, vt: list[int] | None):
    # correctness fallback for sizes without a specialized path
    A = IntMatrix.from_rows(rows)
    rep = analyze(A, p)
    filtered = rep.rank == A.n and sum(rep.profile) < m
    return rep.p_characterized, rep.p_correspondent, (rep.rank, *rep.profile), filtered


_CLASSIFIERS = {2: _classify2, 3: _classify3, 4: _classify4}


def _classifier_for(p: int, m: int, n: int):
    """The classifier for n x n matrices over [0, p^m), and the table it reads."""
    if n in _CLASSIFIERS and _table_bound(p**m, n) <= _TABLE_LIMIT:
        return _CLASSIFIERS[n], _valuation_table(p, m, n)
    return _classify_generic, None


def classify_residue_matrix(
    rows, p: int, m: int
) -> tuple[bool, bool, tuple[int, ...], bool]:
    """Fast-path classification of one residue matrix.

    Returns (characterized, correspondent, partition_key, det_filtered).
    The key is (rank, e_1, ..., e_rank), identifying the Smith form
    localized at p; det_filtered flags val_p(det) < m.  Semantics are
    identical to classify.analyze; the test suite pins the two
    implementations together.  Raises ValueError when an entry lies
    outside [0, p^m).
    """
    q = p**m
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= q:
        raise ValueError(
            f"residue matrix entries must lie in [0, {q}), got {[list(r) for r in rows]}"
        )
    classifier, vt = _classifier_for(p, m, len(rows))
    return classifier(rows, p, m, vt)


# ---------------------------------------------------------------------------
# enumeration and tallies
# ---------------------------------------------------------------------------

@dataclass
class _Tally:
    total: int = 0
    char_all: int = 0
    corr_all: int = 0
    filtered: int = 0
    char_filtered: int = 0
    corr_filtered: int = 0
    partitions: dict = field(default_factory=dict)

    def add_outcomes(self, outcomes: Counter, weight: int) -> None:
        """Count classifier outcomes, each standing for weight matrices."""
        for (char, corr, key, in_filter), count in outcomes.items():
            w = weight * count
            self.total += w
            cell = self.partitions.setdefault(key, [0, 0])
            cell[0] += w
            if char:
                self.char_all += w
                cell[1] += w
            if corr:
                self.corr_all += w
            if in_filter:
                self.filtered += w
                if char:
                    self.char_filtered += w
                if corr:
                    self.corr_filtered += w

    def merge(self, other: "_Tally") -> None:
        self.total += other.total
        self.char_all += other.char_all
        self.corr_all += other.corr_all
        self.filtered += other.filtered
        self.char_filtered += other.char_filtered
        self.corr_filtered += other.corr_filtered
        for key, (size, char) in other.partitions.items():
            cell = self.partitions.setdefault(key, [0, 0])
            cell[0] += size
            cell[1] += char


def _arrangements(diag: tuple[int, ...]) -> int:
    """Number of distinct orderings of a diagonal: n! / prod(multiplicity!)."""
    return factorial(len(diag)) // prod(factorial(c) for c in Counter(diag).values())


def _representative_count(q: int, n: int) -> int:
    """Size of the flat representative index: sorted diagonals x
    (a01 <= a10) pairs x the other off-diagonal digits."""
    if n == 1:
        return q
    return comb(q + n - 1, n) * comb(q + 1, 2) * q ** (n * n - n - 2)


def _tally_range(args: tuple[int, int, int, int, int]) -> _Tally:
    """Classify the representatives with flat index in [lo, hi).

    A representative has a non-decreasing diagonal and a01 <= a10.  Per
    sorted diagonal, the representatives with a01 < a10 come first, then
    those with a01 = a10; each block is ordered by (a01, rest of row 0,
    a10, rest of row 1, rows 2 .. n-1 row-major), last digit fastest.  A
    representative stands for the n!/prod(multiplicity!) diagonal
    arrangements that permutation similarity reaches, times 2 for its
    transpose when a01 < a10, and is counted with that weight.
    """
    p, m, n, lo, hi = args
    q = p**m
    classifier, vt = _classifier_for(p, m, n)
    tally = _Tally()

    def count_block(groups, rest, window, weight):
        # product(*group, *rest) for each group, chained, from window[0]
        # up to window[1]; product hands back one reused tuple per matrix
        def matrices():
            walk = chain.from_iterable(product(*group, *rest) for group in groups)
            return islice(walk, *window)

        outcomes = Counter(map(classifier, matrices(), repeat(p), repeat(m), repeat(vt)))
        if any(char and not corr for char, corr, _, _ in outcomes):
            for rows in matrices():
                char, corr, _, _ = classifier(rows, p, m, vt)
                if char and not corr:
                    raise AssertionError(
                        f"characterized but not correspondent at p={p}, m={m}: "
                        f"{[list(r) for r in rows]}"
                    )
        tally.add_outcomes(outcomes, weight)

    if n == 1:
        count_block([([(x,) for x in range(q)],)], [], (lo, hi), 1)
        return tally
    tail = q ** (n * n - n - 2)  # representatives per (a01, a10) pair
    fills = tuple(product(range(q), repeat=n - 2))  # rest of rows 0 and 1
    row_fills = tuple(product(range(q), repeat=n - 1))  # rows 2 .. n-1
    d_lo, skip = divmod(lo, comb(q + 1, 2) * tail)
    left = hi - lo
    for diag in islice(combinations_with_replacement(range(q), n), d_lo, None):
        if left <= 0:
            break
        d0, d1 = diag[:2]
        # rows 0 and 1 indexed by a01 and a10, each over its other fills;
        # row i >= 2 runs over its q^(n-1) off-diagonal fills around diag[i]
        row0 = [[(d0, x) + f for f in fills] for x in range(q)]
        row1 = [[(y, d1) + f for f in fills] for y in range(q)]
        rest = [[f[:i] + (d,) + f[i:] for f in row_fills] for i, d in enumerate(diag) if i >= 2]
        weight = _arrangements(diag)
        # one product per a01 in each block: row 1 over every a10 > a01
        # (strict), then with a10 = a01 (tied)
        strict = [(row0[x], [r for y in range(x + 1, q) for r in row1[y]]) for x in range(q)]
        tied = list(zip(row0, row1))
        for groups, pairs, mult in ((strict, comb(q, 2), 2), (tied, q, 1)):
            size = pairs * tail
            count = min(size - skip, left)
            if count > 0:
                count_block(groups, rest, (skip, skip + count), weight * mult)
                left -= count
            skip = max(skip - size, 0)
    return tally


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR)
        threads = int(env) if env else 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def enumerate_density(
    p: int,
    m: int,
    n: int,
    convention: Convention = Convention.ALL,
    threads: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DensityRow:
    """Count every n x n matrix over [0, p^m) and tally the densities.

    One representative per sorted diagonal is classified and weighted by
    its number of diagonal arrangements (see the module docstring).  The
    representatives split into contiguous ranges of one flat index
    (sorted diagonal, off-diagonal digits) merged deterministically, so
    the result is independent of thread count.  Raises
    BudgetExceededError when the full space (p^m)^(n^2) is larger than
    budget.
    """
    _require_prime(p)
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    convention = Convention(convention)
    total = (p**m) ** (n * n)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration space (p^m)^(n^2) = {total} exceeds budget {budget}"
        )
    threads = _resolve_threads(threads)

    reps = _representative_count(p**m, n)
    if threads == 1 or total < 4096:
        tally = _tally_range((p, m, n, 0, reps))
    else:
        import multiprocessing as mp

        bounds = [reps * i // threads for i in range(threads + 1)]
        jobs = [
            (p, m, n, bounds[i], bounds[i + 1])
            for i in range(threads)
            if bounds[i] < bounds[i + 1]
        ]
        tally = _Tally()
        with mp.Pool(threads) as pool:
            for part in pool.map(_tally_range, jobs):
                tally.merge(part)
    if tally.total != total:
        raise AssertionError(
            f"representative weights sum to {tally.total}, expected {total} matrices"
        )

    # expose each class by its localized Smith diagonal (p^e_1, ..., p^e_r, 0, ..)
    partitions = {}
    for (r, *exps), (size, char) in sorted(tally.partitions.items()):
        diag = tuple(p**e for e in exps) + (0,) * (n - r)
        partitions[diag] = PartitionCell(size=size, char_count=char)
    if convention is Convention.ALL:
        denom, char_count, corr_count = tally.total, tally.char_all, tally.corr_all
    else:
        denom, char_count, corr_count = tally.filtered, tally.char_filtered, tally.corr_filtered
    return DensityRow(
        p=p,
        m=m,
        n=n,
        convention=convention,
        total=denom,
        char_count=char_count,
        corr_count=corr_count,
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
    exhaustive_checked: bool

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "n": self.n,
            "order": self.order,
            "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
            "exhaustive_checked": self.exhaustive_checked,
        }


def gl_order(p: int, m: int, n: int) -> int:
    """|GL_n(Z/p^m Z)| in closed form."""
    _require_prime(p)
    base = prod(p**n - p**i for i in range(n))
    return p ** ((m - 1) * n * n) * base


def gl_count(p: int, m: int, n: int, exhaustive_budget: int = 2**20) -> GLCountReport:
    """Order of GL_n(Z/p^m Z); a full-space/GL ratio of 4 or more raises.

    When the residue space fits in exhaustive_budget the closed form is
    verified by brute-force counting of invertible matrices.
    """
    order = gl_order(p, m, n)
    space = p ** (m * n * n)
    ratio = Fraction(space, order)
    if not ratio < 4:
        raise AssertionError(f"GL density ratio {ratio} is not below 4")
    checked = False
    if space <= exhaustive_budget:
        count = sum(
            1
            for rows in product(product(range(p**m), repeat=n), repeat=n)
            if _det_rows(list(map(list, rows))) % p
        )
        if count != order:
            raise AssertionError(
                f"exhaustive GL count {count} disagrees with closed form {order}"
            )
        checked = True
    return GLCountReport(p=p, m=m, n=n, order=order, ratio=ratio, exhaustive_checked=checked)


@dataclass(frozen=True)
class OrbitCheckReport:
    p: int
    m: int
    exponents: tuple[int, ...]
    class_size: int
    pair_count_per_member: int
    ok: bool

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "exponents": list(self.exponents),
            "class_size": self.class_size,
            "pair_count_per_member": self.pair_count_per_member,
            "ok": self.ok,
        }


def orbit_stabilizer_check(
    p: int, m: int, exponents: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> OrbitCheckReport:
    """Exhaustively verify the sandwich-counting identity for one profile class.

    Buckets every pair (L, R) over [0, p^m) by (L @ S @ R) rem p^m with
    S = diag(p^e) and checks each member of the profile class is hit
    exactly |GL|^2 / class_size times.
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
    q = p**m
    space = q ** (n * n)
    if space * space > budget:
        raise BudgetExceededError(
            f"pair space (p^m)^(2 n^2) = {space * space} exceeds budget {budget}"
        )

    flats = list(product(range(q), repeat=n * n))

    members = set()
    for flat in flats:
        M = IntMatrix.from_rows([flat[i * n : (i + 1) * n] for i in range(n)])
        if local_profile(M, p).exponents == exponents:
            members.add(flat)
    class_size = len(members)
    if class_size == 0:
        raise AssertionError(f"profile class {exponents} has no member over [0, {q})")

    order = gl_order(p, m, n)
    expected, rem = divmod(order * order, class_size)
    if rem:
        raise AssertionError(f"class size {class_size} does not divide |GL|^2 = {order * order}")

    powers = [p**e for e in exponents]
    hits: Counter = Counter()
    rng_n = range(n)
    for L in flats:
        scaled = [[L[i * n + k] * powers[k] for k in rng_n] for i in rng_n]
        for R in flats:
            out = []
            for i in rng_n:
                srow = scaled[i]
                for j in rng_n:
                    out.append(sum(srow[k] * R[k * n + j] for k in rng_n) % q)
            key = tuple(out)
            if key in members:
                hits[key] += 1

    ok = all(hits.get(memb, 0) == expected for memb in members)
    return OrbitCheckReport(
        p=p,
        m=m,
        exponents=exponents,
        class_size=class_size,
        pair_count_per_member=expected,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# polynomial root counting over a residue grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPolynomial:
    """Multivariate integer polynomial as a sorted tuple of (exponents, coeff)."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_terms(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "IntPolynomial":
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            if coeff:
                clean[exps] = clean.get(exps, 0) + int(coeff)
        return cls(nvars=nvars, terms=tuple(sorted((e, c) for e, c in clean.items() if c)))

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exps) for exps, _ in self.terms)

    def evaluate(self, point: tuple[int, ...]) -> int:
        acc = 0
        for exps, coeff in self.terms:
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term *= x**e
            acc += term
        return acc


@dataclass(frozen=True)
class PRootReport:
    p: int
    ell: int
    root_count: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.root_count <= self.bound


def proot_count_check(
    g: IntPolynomial, p: int, ell: int, budget: int = DEFAULT_BUDGET
) -> PRootReport:
    """Count zeros of g mod p over the box [0, ell*p)^nvars against the
    Schwartz-Zippel-style bound ell^nvars * deg * p^(nvars - 1).

    The polynomial must survive reduction mod p; otherwise every point
    is a root and the bound is meaningless.
    """
    _require_prime(p)
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not g.terms or all(c % p == 0 for _, c in g.terms):
        raise ValueError("polynomial vanishes mod p; the root bound does not apply")
    side = ell * p
    points = side**g.nvars
    if points > budget:
        raise BudgetExceededError(f"grid size {points} exceeds budget {budget}")
    count = sum(
        1 for point in product(range(side), repeat=g.nvars) if g.evaluate(point) % p == 0
    )
    bound = ell**g.nvars * g.total_degree * p ** (g.nvars - 1)
    return PRootReport(p=p, ell=ell, root_count=count, bound=bound)
