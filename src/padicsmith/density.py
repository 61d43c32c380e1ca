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
representatives whose diagonal is non-decreasing, with the off-diagonal
entries over the full box, and counts each with weight
n!/prod(multiplicity!) of its diagonal values: the number of
arrangements it stands for.

The per-matrix classifier here is a specialized fast path (direct minor
valuations, hand-rolled charpolys for n <= 4); its agreement with the
general machinery in classify.analyze is enforced by the test suite.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, product, repeat
from math import comb, factorial, prod

from .classify import analyze
from .exact import BudgetExceededError, IntMatrix, _det_rows, _require_prime
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

def _vp(x: int, p: int) -> int:
    # valuation of a nonzero int
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _np_match(fv: list[int | None], profile: list[int]) -> bool:
    """Do the Newton polygon slopes of the (truncated) charpoly equal the profile?

    fv[i-1] is val_p(f_i) or None for a vanishing coefficient; the last
    entry must be non-None.  Slopes are matched segment by segment with
    integer arithmetic only: a fractional slope can never equal an
    integer profile entry, so it fails fast on the divisibility test.
    """
    hull_x = [0]
    hull_y = [0]
    for i, v in enumerate(fv, start=1):
        if v is None:
            continue
        while len(hull_x) >= 2:
            x0, y0 = hull_x[-2], hull_y[-2]
            if (hull_y[-1] - y0) * (i - x0) >= (v - y0) * (hull_x[-1] - x0):
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(i)
        hull_y.append(v)
    pos = 0
    for k in range(len(hull_x) - 1):
        dx = hull_x[k + 1] - hull_x[k]
        dy = hull_y[k + 1] - hull_y[k]
        if dy % dx:
            return False
        slope = dy // dx
        for _ in range(dx):
            if profile[pos] != slope:
                return False
            pos += 1
    return True


def _classify2(rows, p: int, m: int):
    a, b = rows[0]
    c, d = rows[1]
    f1 = -(a + d)
    f2 = a * d - b * c
    if f2:
        # nonsingular: delta_1 = min entry valuation, delta_2 = val(det) always
        # matches val(f_2), so characterized reduces to the f_1 test
        d1 = None
        for x in (a, b, c, d):
            if x:
                v = _vp(x, p)
                if d1 is None or v < d1:
                    d1 = v
                    if v == 0:
                        break
        d2 = _vp(f2, p)
        char = f1 != 0 and _vp(f1, p) == d1
        e1, e2 = d1, d2 - d1
        if f1:
            v1 = _vp(f1, p)
            if 2 * v1 <= d2:
                corr = v1 == e1 and d2 - v1 == e2
            else:
                corr = d2 % 2 == 0 and e1 == e2
        else:
            corr = d2 % 2 == 0 and e1 == e2
        return char, corr, (2, e1, e2), d2 < m
    if a or b or c or d:
        # rank 1: both predicates reduce to val(trace) == min entry valuation
        d1 = min(_vp(x, p) for x in (a, b, c, d) if x)
        ok = f1 != 0 and _vp(f1, p) == d1
        return ok, ok, (1, d1), False
    return True, True, (0,), False


_ROWPAIRS3 = tuple(combinations(range(3), 2))
_PAIRS4 = tuple(combinations(range(4), 2))
_TRIPLES4 = tuple(combinations(range(4), 3))


def _classify3(rows, p: int, m: int):
    r0, r1, r2 = rows
    f1 = -(r0[0] + r1[1] + r2[2])
    f2 = (
        (r0[0] * r1[1] - r0[1] * r1[0])
        + (r0[0] * r2[2] - r0[2] * r2[0])
        + (r1[1] * r2[2] - r1[2] * r2[1])
    )
    det = (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )
    f3 = -det

    # determinantal divisor valuations, level by level
    d1 = None
    for row in rows:
        for x in row:
            if x:
                v = _vp(x, p)
                if d1 is None or v < d1:
                    d1 = v
        if d1 == 0:
            break
    if d1 is None:
        return True, True, (0,), False  # zero matrix

    d2 = None
    for i0, i1 in _ROWPAIRS3:
        ra, rb = rows[i0], rows[i1]
        for j0, j1 in _ROWPAIRS3:
            mm = ra[j0] * rb[j1] - ra[j1] * rb[j0]
            if mm:
                v = _vp(mm, p)
                if d2 is None or v < d2:
                    d2 = v
        if d2 == 0:
            break

    if d2 is None:
        r = 1
        dv = [d1]
    elif det == 0:
        r = 2
        dv = [d1, d2]
    else:
        r = 3
        dv = [d1, d2, _vp(det, p)]

    fs = (f1, f2, f3)
    fv = [(_vp(f, p) if f else None) for f in fs[:r]]
    char = all(v is not None and v == d for v, d in zip(fv, dv))

    profile = [dv[0]] + [dv[i] - dv[i - 1] for i in range(1, r)]
    r_prime = 0
    for i in (3, 2, 1):
        if fs[i - 1]:
            r_prime = i
            break
    if r_prime < r:
        corr = False
    else:
        corr = _np_match(fv, profile)

    return char, corr, (r, *profile), r == 3 and dv[2] < m


def _classify4(rows, p: int, m: int):
    r0, r1, r2, r3 = rows
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
    f4 = det

    d1 = None
    for row in rows:
        for x in row:
            if x:
                v = _vp(x, p)
                if d1 is None or v < d1:
                    d1 = v
        if d1 == 0:
            break
    if d1 is None:
        return True, True, (0,), False

    d2 = None
    for i0, i1 in _PAIRS4:
        ra, rb = rows[i0], rows[i1]
        for j0, j1 in _PAIRS4:
            mm = ra[j0] * rb[j1] - ra[j1] * rb[j0]
            if mm:
                v = _vp(mm, p)
                if d2 is None or v < d2:
                    d2 = v
        if d2 == 0:
            break

    d3 = None
    if d2 is not None:
        for ri in _TRIPLES4:
            ra, rb, rc = rows[ri[0]], rows[ri[1]], rows[ri[2]]
            for ci in _TRIPLES4:
                c0, c1, c2 = ci
                mm = (
                    ra[c0] * (rb[c1] * rc[c2] - rb[c2] * rc[c1])
                    - ra[c1] * (rb[c0] * rc[c2] - rb[c2] * rc[c0])
                    + ra[c2] * (rb[c0] * rc[c1] - rb[c1] * rc[c0])
                )
                if mm:
                    v = _vp(mm, p)
                    if d3 is None or v < d3:
                        d3 = v
            if d3 == 0:
                break

    if d2 is None:
        r, dv = 1, [d1]
    elif d3 is None:
        r, dv = 2, [d1, d2]
    elif det == 0:
        r, dv = 3, [d1, d2, d3]
    else:
        r, dv = 4, [d1, d2, d3, _vp(det, p)]

    fs = (f1, f2, f3, f4)
    fv = [(_vp(f, p) if f else None) for f in fs[:r]]
    char = all(v is not None and v == d for v, d in zip(fv, dv))

    profile = [dv[0]] + [dv[i] - dv[i - 1] for i in range(1, r)]
    r_prime = 0
    for i in (4, 3, 2, 1):
        if fs[i - 1]:
            r_prime = i
            break
    if r_prime < r:
        corr = False
    else:
        corr = _np_match(fv, profile)

    return char, corr, (r, *profile), r == 4 and dv[3] < m


def _classify_generic(rows, p: int, m: int):
    # correctness fallback for sizes without a specialized path
    A = IntMatrix.from_rows(rows)
    rep = analyze(A, p)
    filtered = rep.rank == A.n and sum(rep.profile) < m
    return rep.p_characterized, rep.p_correspondent, (rep.rank, *rep.profile), filtered


_CLASSIFIERS = {2: _classify2, 3: _classify3, 4: _classify4}


def classify_residue_matrix(
    rows, p: int, m: int
) -> tuple[bool, bool, tuple[int, ...], bool]:
    """Fast-path classification of one residue matrix.

    Returns (characterized, correspondent, partition_key, det_filtered).
    The key is (rank, e_1, ..., e_rank), identifying the Smith form
    localized at p; det_filtered flags val_p(det) < m.  Semantics are
    identical to classify.analyze; the test suite pins the two
    implementations together.
    """
    classifier = _CLASSIFIERS.get(len(rows), _classify_generic)
    return classifier(rows, p, m)


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
    """Size of the flat representative index: sorted diagonals x off-diagonal fills."""
    return comb(q + n - 1, n) * q ** (n * n - n)


def _tally_range(args: tuple[int, int, int, int, int]) -> _Tally:
    """Classify the representatives with flat index in [lo, hi).

    A representative is a matrix whose diagonal is non-decreasing; the
    flat index is (sorted-diagonal index, row-major off-diagonal digits),
    last digit fastest.  Each representative stands for the
    n!/prod(multiplicity!) matrices that permutation similarity reaches by
    rearranging its diagonal, and is counted with that weight.
    """
    p, m, n, lo, hi = args
    q = p**m
    classifier = _CLASSIFIERS.get(n, _classify_generic)
    block = q ** (n * n - n)
    d_lo, skip = divmod(lo, block)
    left = hi - lo
    tally = _Tally()
    fills = tuple(product(range(q), repeat=n - 1))
    for diag in islice(combinations_with_replacement(range(q), n), d_lo, None):
        if left <= 0:
            break
        count = min(block - skip, left)
        # row i runs over its q^(n-1) off-diagonal fills around diag[i]
        choices = [[f[:i] + (d,) + f[i:] for f in fills] for i, d in enumerate(diag)]
        window = (skip, skip + count)
        outcomes = Counter(
            map(classifier, islice(product(*choices), *window), repeat(p), repeat(m))
        )
        if any(char and not corr for char, corr, _, _ in outcomes):
            for rows in islice(product(*choices), *window):
                char, corr, _, _ = classifier(rows, p, m)
                if char and not corr:
                    raise AssertionError(
                        f"characterized but not correspondent at p={p}, m={m}: "
                        f"{[list(r) for r in rows]}"
                    )
        tally.add_outcomes(outcomes, _arrangements(diag))
        left -= count
        skip = 0
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
