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

One classifier serves every n, and classify.analyze runs its kernel for
n <= 4; the test suite holds both to Berkowitz and the integer Smith
form.  It reduces a matrix to a valuation signature, the valuations of
the charpoly coefficients f_k and of the determinantal divisors, read
from every k x k minor: one Laplace recurrence computes all
C(2n, n) - 1 minors, each from the minors one size smaller, expanded
along its last row.  The walk
classifies runs of matrices that share rows 0 .. n-2, the prefix, and
differ in row n-1.  A minor off row n-1 depends on the prefix alone, so
a run computes those minors once, with each prefix part of a principal
sum and the gcd of the prefix k x k minors.  Per last row only the
minors on row n-1 remain.  Delta_k, the least valuation of a k x k
minor, is the valuation of gcd(prefix gcd, their k x k minors), since
v_p(gcd) = min v_p.  A minor on row n-1 expands along that row into
prefix minors and enters no larger minor, so it is a leaf: the
principal ones feed f_k, the others only the gcd for Delta_k.  When the
prefix gcd is a unit, Delta_k = 0 without them, and they are not
computed.  This batched classifier is generated as straight-line source
and compiled once per n, because the same steps run as loops in Python
are several times slower per matrix.  Valuations come from a per-cell
table.  A box has few distinct signatures, so the outcome of each is
decided once, without building a Newton polygon.  With the Smith exponents
e_1 <= ... <= e_r and Delta_k = e_1 + ... + e_k, the valuation of the
k-th determinantal divisor, each coefficient f_k of the
characteristic polynomial is a signed sum of principal k x k minors, so
val_p(f_k) >= Delta_k: the Newton polygon lies on or above the Hodge
polygon through (k, Delta_k) (Mazur's inequality), and both span
0 <= x <= r.  The lower convex hull of points on or above a convex
polygon equals that polygon exactly when the points include each of its
vertices.  So the matrix is correspondent exactly when val_p(f_r) =
Delta_r and val_p(f_k) = Delta_k at every k < r with e_k < e_{k+1}, and
characterized when that holds at every k.

For m >= 2 the walk runs over residue classes, not matrices.  The
matrices congruent to one A0 = A mod p, its p^((m-1) n^2) lifts, form a
class, and the classes are walked over the representatives of the
(p, 1, n) box with the same weights: P(A0 + pB)P^T and transposition map
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
  only the key needs v(det).  Ordered as [[M, u], [w, x]] around an
  entry x whose cofactor c = det M is a unit, det = x c - w adj(M) u is
  affine in x, so over the p^(m-1) lifts of x, det mod p^m meets each
  multiple of p once: per lift of the other n^2 - 1 entries,
  (p-1) p^(m-1-j) lifts have v(det) = j for 1 <= j < m, and the one with
  det = 0 mod p^m, x = w adj(M) u c^-1 mod p^m, takes its key from its
  exact det, (n, 0, ..., 0, e) with e >= m or (n-1, 0, ..., 0) for 0.
  That x is a lift of the class's own entry because det A0 = 0 mod p and
  c is a unit.  adj(M) is computed once per lift of M and adj(M) u once
  per lift of u.  These counts are the same for every class in one
  orbit under row and column permutations and transposition:
  det(P (A0 + pB) Q) = +-det(A0 + pB), det is unchanged by
  transposition, and each of these maps carries the lifts of A0 onto
  the lifts of its image.  So they are computed once per orbit, for
  its least image P A0 Q or P A0^T Q (_equivalence_key).  Characterized
  and correspondent still come from each class's own signature: an
  independent P and Q change the charpoly.
- A0 = 0: the lifts are pB with B over [0, p^(m-1)).  Scaling by p adds
  1 to every Smith exponent and k to v(f_k), which keeps the Hodge test,
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

import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations, product
from math import comb, factorial, gcd, prod
from operator import itemgetter, sub

from .exact import BudgetExceededError, UnsupportedSizeError, _det_rows, _require_prime, _val, val_p

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

# Largest valuation table kept as a list.  Every cell within
# DEFAULT_BUDGET with n >= 2 fits (the largest, n = 2 with p^m = 181,
# needs 64800); bigger boxes look valuations up on demand.
_TABLE_LIMIT = 2**16

# The valuation of zero: a nonzero int's valuation is below its bit
# length, which is below this, so min() passes over zero entries and
# minors, a vanishing coefficient never equals a determinantal
# valuation, and the first Delta_k equal to it marks the rank.
_VAL_OF_ZERO = sys.maxsize

# Largest n a signature function is built for.  Its C(2n, n) - 1 minors
# grow about fourfold per step (923 at n = 6); at n = 8 the generated
# function takes 0.6 s and some 100 MB to build and runs slower than
# classify.analyze.
_SIGNATURE_MAX_N = 6


def _table_bound(q: int, n: int) -> int:
    """Largest |x| a signature looks up for an n x n matrix over [0, q).

    f_k sums n!/(k!(n-k)!) principal k x k minors of k! products each, so
    |f_k| <= n!/(n-k)! (q-1)^k, which also bounds every k x k minor; the
    maximum over k is at k = n.
    """
    return factorial(n) * (q - 1) ** n


class _LazyValuations(dict):
    """val_p on demand, for a box whose table would pass _TABLE_LIMIT and
    for classify.analyze, whose entries are unbounded.

    Nothing is stored, so memory stays flat however many values a walk
    looks up.  p must be prime; the caller checks it.
    """

    def __init__(self, p: int):
        self[0] = _VAL_OF_ZERO
        self.p = p

    def __missing__(self, x: int) -> int:
        return _val(x, self.p)  # x != 0: zero is stored


@lru_cache(maxsize=16)
def _valuation_table(p: int, m: int, n: int) -> list[int] | _LazyValuations:
    """val_p(x) at index x for every |x| up to _table_bound.

    A list when the bound is within _TABLE_LIMIT: a negative x wraps to
    the end of it, as Python indexing does, so one list serves both
    signs.  Past the limit, a _LazyValuations.
    """
    bound = _table_bound(p**m, n)
    if bound > _TABLE_LIMIT:
        return _LazyValuations(p)
    table = [_VAL_OF_ZERO] * (2 * bound + 1)
    for x in range(1, bound + 1):
        table[x] = table[-x] = val_p(x, p)
    return table


def _minor(R, C) -> str:
    """Source name of the minor on rows R and columns C: m<row mask>_<column mask>."""
    return f"m{sum(1 << i for i in R)}_{sum(1 << j for j in C)}"


def _laplace(R: tuple[int, ...], C: tuple[int, ...]) -> str:
    """Source of the minor on rows R, columns C (k >= 2 of each) expanded
    along row R[-1]: entry (R[-1], c) times the minor on R[:-1] and C
    without c, sign (-1)^(k-1+t) for the t-th column c."""
    terms = ([], [])
    for t, c in enumerate(C):
        terms[(len(C) - 1 + t) % 2].append(f"{_minor(R[-1:], (c,))} * {_minor(R[:-1], C[:t] + C[t + 1 :])}")
    plus, minus = terms
    return " + ".join(plus) + "".join(f" - {t}" for t in minus)


def _row(i: int, n: int) -> str:
    """Source target for row i of an n x n matrix: its entries bound to
    the 1 x 1 minors m<1 << i>_<1 << j>."""
    return "(" + ", ".join(_minor((i,), (j,)) for j in range(n)) + ",)"


def _compile(name: str, args: str, lines: list[str]):
    """Compile the straight-line source lines into a function name(args)."""
    source = "\n".join([f"def {name}({args}):", *lines])
    namespace = {"gcd": gcd}
    exec(compile(source, f"<padicsmith.density {name}>", "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def _signatures(n: int):
    """The batched signature kernel sigs(prefix, lasts, vt) for n x n matrices.

    prefix holds rows 0 .. n-2 and lasts a sequence of rows n-1.  It
    returns, per last row in order, the signature of the matrix
    prefix + (last,): (v(f_1), ..., v(f_n), Delta_1, ..., Delta_n) with
    v(x) = vt[x].  v(f_k) is the valuation of the sum of the principal
    k x k minors (f_k up to sign) and Delta_k that of the gcd of all
    k x k minors, their least valuation.

    The k x k minor on rows R and columns C expands along the last row
    of R into (k-1) x (k-1) minors, so every minor of every size is
    computed once, C(2n, n) - 1 in all.  A minor off row n-1 depends on
    the prefix alone, and one on row n-1 expands along it into prefix
    minors.  So each call computes the prefix minors once, with the
    prefix part f<k> of each principal sum and the gcd g<k> of the
    prefix k x k minors, and then per last row only the minors on row
    n-1: Delta_k = vt[gcd(g<k>, <their k x k minors>)], where
    gcd(0, ..., 0) = 0 maps to _VAL_OF_ZERO.

    No minor expands into one on row n-1, so those are leaves: the
    principal ones feed f_k and stay statements, the others feed only the
    gcd and are written inline in it.  Delta_k <= v(g<k>), so when g<k> is
    a unit, u<k> per prefix, Delta_k = 0 and the gcd, with its inline
    minors, is not evaluated.

    The recurrence is emitted as straight-line source and compiled once
    per n: the same steps as a loop over an index plan of minor slots
    took about 7 times as long per matrix at n = 3 and 4 (CPython
    3.11).  The source holds nothing but minor names, integer indices
    and operators.  Raises UnsupportedSizeError past _SIGNATURE_MAX_N.
    """
    if n > _SIGNATURE_MAX_N:
        raise UnsupportedSizeError(
            f"residue classification is limited to n <= {_SIGNATURE_MAX_N}, got {n}; "
            "use classify.analyze"
        )
    idx, last = range(n), n - 1
    head = [f"    {''.join(_row(i, n) + ', ' for i in idx[:-1])}= prefix"] if n > 1 else []
    body, fv, dv = [], [], []
    for k in range(1, n + 1):
        off, on = [], []  # k x k minors off row n-1, and sources of those on it
        for R in combinations(idx, k):
            for C in combinations(idx, k):
                name = _minor(R, C)
                if last not in R:
                    off.append(name)
                    if k > 1:
                        head.append(f"    {name} = {_laplace(R, C)}")
                elif R == C and k > 1:
                    body.append(f"        {name} = {_laplace(R, C)}")
                    on.append(name)
                else:  # a leaf read by the gcd alone: inline, skipped under u<k>
                    on.append(_laplace(R, C) if k > 1 else name)
        principal = " + ".join(_minor(S, S) for S in combinations(idx, k) if last in S)
        if k < n:
            head.append(f"    f{k} = {' + '.join(_minor(S, S) for S in combinations(idx[:-1], k))}")
            head.append(f"    g{k} = gcd({', '.join(off)})")
            head.append(f"    u{k} = vt[g{k}] == 0")
            fv.append(f"vt[f{k} + {principal}]")
            dv.append(f"0 if u{k} else vt[gcd(g{k}, {', '.join(on)})]")
        else:
            fv.append(f"vt[{principal}]")
            dv.append(f"vt[{principal}]")
    lines = [
        *head,
        "    out = []",
        f"    for {_row(last, n)} in lasts:",
        *body,
        f"        out.append(({', '.join(fv + dv)}))",
        "    return out",
    ]
    return _compile(f"signatures_n{n}", "prefix, lasts, vt", lines)


@lru_cache(maxsize=None)
def _deep_valuations(n: int):
    """The kernel deep(Ms, us, ws, q, vt) for a class of rank n - 1, n >= 2.

    The class is ordered as [[M, u], [w, x]] with M of size n - 1 and
    det M a unit mod p.  Ms, us and ws run over the lifts of M (as rows),
    of the column u and of the row w.  Each such lift has one lift of x
    with det = 0 mod q, and the kernel returns how many have each
    vt[det], as a dict.  From det = x det M - w adj(M) u, with c = det M
    and s = w adj(M) u, that lift is x* = s c^-1 mod q and
    det = x* c - s.  c, its inverse and the minors of M up to size n - 2,
    the largest of which are the entries of adj(M) up to sign, are
    computed once per lift of M, v = adj(M) u once per lift of u, and only
    s = w v per lift of w.
    """
    size = n - 1
    idx = tuple(range(size))
    lines = ["    out = {}", f"    for {''.join(_row(i, size) + ', ' for i in idx)}in Ms:"]
    for k in range(2, size):
        for R in combinations(idx, k):
            lines.extend(f"        {_minor(R, C)} = {_laplace(R, C)}" for C in combinations(idx, k))
    lines.append(f"        c = {_laplace(idx, idx) if size > 1 else _minor(idx, idx)}")
    lines.append("        ci = pow(c, -1, q)")
    lines.append(f"        for {''.join(f'u{j}, ' for j in idx)}in us:")
    for i in idx:
        # adj(M)[i][j] = (-1)^(i+j) times the minor of M without row j and column i
        terms = ([], [])
        for j in idx:
            rest = tuple(r for r in idx if r != j), tuple(c for c in idx if c != i)
            terms[(i + j) % 2].append(f"{_minor(*rest)} * u{j}" if size > 1 else f"u{j}")
        plus, minus = terms
        lines.append(f"            v{i} = {' + '.join(plus)}{''.join(f' - {t}' for t in minus)}")
    lines.append(f"            for {''.join(f'w{i}, ' for i in idx)}in ws:")
    lines.append(f"                s = {' + '.join(f'w{i} * v{i}' for i in idx)}")
    lines.append("                e = vt[s * ci % q * c - s]")
    lines.append("                out[e] = out.get(e, 0) + 1")
    lines.append("    return out")
    return _compile(f"deep_valuations_n{n}", "Ms, us, ws, q, vt", lines)


def _hodge_test(fv: tuple[int, ...], dv: tuple[int, ...]) -> tuple[bool, bool]:
    """(characterized, correspondent) from val_p(f_k) and Delta_k, k = 1..r.

    fv[k-1] is val_p(f_k), with _VAL_OF_ZERO for a vanishing f_k, and
    dv[k-1] = Delta_k = e_1 + ... + e_k.  Characterized means fv == dv.
    Each f_k sums principal k x k minors, so fv >= dv entrywise: the
    Newton polygon lies on or above the Hodge polygon through the points
    (k, Delta_k), and both end at x = r.  They are equal, i.e. the
    matrix is correspondent, exactly when the Newton points hit the Hodge
    polygon at x = r and at every vertex k, where e_k < e_{k+1}.  So
    characterized (fv == dv, the first branch) implies correspondent.
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


def _smith_valuations(sig: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(Delta_1, ..., Delta_r) and the Smith exponents (e_1, ..., e_r) of a signature.

    The rank r is the first k with Delta_k = _VAL_OF_ZERO, n if there is
    none, and e_k = Delta_k - Delta_{k-1}.
    """
    n = len(sig) // 2
    dv = sig[n:]
    if _VAL_OF_ZERO in dv:
        dv = dv[: dv.index(_VAL_OF_ZERO)]
    return dv, tuple(map(sub, dv, (0,) + dv))


@lru_cache(maxsize=4096)
def _outcome(sig: tuple[int, ...]) -> tuple[bool, bool, tuple[int, ...]]:
    """(characterized, correspondent, partition_key) of a signature.

    f_k vanishes for every k beyond the rank r, so only k <= r enters the
    Hodge test.  A box has few distinct signatures, hence the memo.
    """
    dv, exponents = _smith_valuations(sig)
    r = len(dv)
    char, corr = _hodge_test(sig[:r], dv)
    return char, corr, (r,) + exponents


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
    char, corr, key = _outcome(_signatures(n)(rows[:-1], rows[-1:], _valuation_table(p, m, n))[0])
    return char, corr, key, _det_filtered(key, n, m)


# ---------------------------------------------------------------------------
# enumeration and tallies
# ---------------------------------------------------------------------------

def _arrangements(diag: tuple[int, ...]) -> int:
    """Number of distinct orderings of a diagonal: n! / prod(multiplicity!)."""
    return factorial(len(diag)) // prod(factorial(c) for c in Counter(diag).values())


def _representative_count(p: int, n: int) -> int:
    """Number of representatives of the (p, 1, n) box: sorted diagonals
    x (a01 <= a10) pairs x the other off-diagonal digits."""
    if n == 1:
        return p
    return comb(p + n - 1, n) * comb(p + 1, 2) * p ** (n * n - n - 2)


def _walk(groups):
    """The matrices product(*group) of each group, chained, as (prefix, lasts) runs.

    The last factor of a group is a sequence of last rows, so a run is
    one prefix, a tuple of rows 0 .. n-2, with all of the group's last
    rows.
    """
    for *heads, lasts in groups:
        for prefix in product(*heads):
            yield prefix, lasts


def _blocks(p: int, n: int, diag: tuple[int, ...]):
    """The representatives of the (p, 1, n) box with sorted diagonal diag.

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
    # row i >= 2 runs over its p^(n-1) off-diagonal fills around diag[i]
    row0 = [[(d0, x, *f) for f in product(range(p), repeat=n - 2)] for x in range(p)]
    row1 = [[(y, d1, *f) for f in product(range(p), repeat=n - 2)] for y in range(p)]
    rest = [[(*f[:i], d, *f[i:]) for f in product(range(p), repeat=n - 1)] for i, d in enumerate(diag) if i >= 2]
    # one group per a01 in each block: row 1 over every a10 > a01
    # (strict, empty for a01 = p - 1), then with a10 = a01 (tied)
    strict = [(row0[x], [r for y in range(x + 1, p) for r in row1[y]], *rest) for x in range(p - 1)]
    tied = [(row0[x], row1[x], *rest) for x in range(p)]
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


def _count_outcomes(tally: Counter, runs, weight: int, sigs, vt) -> None:
    """Add the outcome (characterized, correspondent, partition_key) of
    each matrix of a _walk to tally, weight times; each distinct
    signature is decided once."""
    counts = Counter(chain.from_iterable(sigs(prefix, lasts, vt) for prefix, lasts in runs))
    for sig, count in counts.items():
        tally[_outcome(sig)] += weight * count


def _lift_outcomes(cls, p: int, m: int, sigs, vt) -> Counter:
    """Outcomes of the p^((m-1) n^2) lifts of a class mod p, each classified."""
    outcomes: Counter = Counter()
    _count_outcomes(outcomes, _walk([[_lifts(row, p, m) for row in cls]]), 1, sigs, vt)
    return outcomes


def _tally(args: tuple[int, int, int, Iterable[tuple[int, ...]]]) -> Counter:
    """Tally the (p, 1, n) representatives with a sorted diagonal in diags.

    Returns a Counter of outcomes (characterized, correspondent,
    partition_key), each counted with its weight.  For m = 1 each
    representative is one matrix of the box and is classified itself.
    For m >= 2 it is a class A mod p whose p^((m-1) n^2) lifts are
    counted by the stratum of its rank mod p (see the module docstring);
    only ranks 1 .. n-2 classify their lifts one by one.  The lift work
    of ranks 1 .. n-1 runs once per orbit of the classes in diags.
    """
    p, m, n, diags = args
    sigs, vt = _signatures(n), _valuation_table(p, m, n)
    tally: Counter = Counter()
    blocks = chain.from_iterable(_blocks(p, n, diag) for diag in diags)

    if m == 1:
        for runs, weight in blocks:
            _count_outcomes(tally, runs, weight, sigs, vt)
        return tally

    vt1 = _valuation_table(p, 1, n)
    units = (0,) * (n - 1)
    class_size = p ** ((m - 1) * n * n)
    # the per-lift work of each class, once per orbit of its stratum's symmetry
    deep_keys: dict = {}  # by _equivalence_key: partition keys of the lifts
    lift_outcomes: dict = {}  # by _similarity_key: outcomes of the lifts
    for runs, weight in blocks:
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


def _box_size(p: int, m: int, n: int, budget: int) -> int:
    """The number (p^m)^(n^2) of n x n matrices over [0, p^m), if it fits budget."""
    total = (p**m) ** (n * n)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration space (p^m)^(n^2) = {total} exceeds budget {budget}"
        )
    return total


def enumerate_density(
    p: int,
    m: int,
    n: int,
    convention: Convention = Convention.ALL,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> DensityRow:
    """Count every n x n matrix over [0, p^m) and tally the densities.

    The walk runs over the representatives of the (p, 1, n) box, each
    weighted by its number of diagonal arrangements: single matrices for
    m = 1, classes mod p for m >= 2 (see the module docstring).  With
    workers, each sorted diagonal is one task, handed to the next free
    worker, and the tallies are summed, so the result is independent of
    thread count.  Raises BudgetExceededError when the full space
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
        with mp.Pool(min(threads, len(tasks))) as pool:
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
    q = p**m
    space = q ** (n * n)
    if space * space > budget:
        raise BudgetExceededError(
            f"pair space (p^m)^(2 n^2) = {space * space} exceeds budget {budget}"
        )

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
