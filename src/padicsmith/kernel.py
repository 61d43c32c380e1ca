"""The minor kernel: valuation signatures of small matrices from their minors.

A matrix's signature is (v(f_1), ..., v(f_n), Delta_1, ..., Delta_n):
f_k, the k-th charpoly coefficient, is a signed sum of the principal
k x k minors, and Delta_k, the valuation of the k-th determinantal
divisor, is the least valuation of a k x k minor.  _signatures compiles
one kernel per n that computes every minor once and reads both from
them, for runs of matrices that share all rows but the last.
classify.analyze runs it for n <= 4 and the density walk for every
matrix it classifies one by one; the test suite holds both to Berkowitz
and the integer Smith form.  Valuations come from a per-cell table, or
on demand where none fits.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd
from operator import sub

from .exact import INFINITY, UnsupportedSizeError, Valuation, _val, val_p

# Largest valuation table kept as a list.  Every cell within the density
# engine's default budget with n >= 2 fits (the largest, n = 2 with
# p^m = 181, needs 64800); bigger boxes look valuations up on demand.
_TABLE_LIMIT = 2**16

# The valuation of zero: a nonzero int's valuation is below its bit
# length, which is below this, so min() passes over zero entries and
# minors, and the first Delta_k equal to it marks the rank.
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

    Only the zero entry is stored, so memory stays flat however many
    values a walk looks up, and one instance per prime,
    _lazy_valuations(p), serves every caller.  Most lookups are of an x
    that p does not divide, and return 0 without calling _val.  p must be
    prime; the caller checks it.
    """

    def __init__(self, p: int):
        self[0] = _VAL_OF_ZERO
        self.p = p

    def __missing__(self, x: int) -> int:
        return 0 if x % self.p else _val(x, self.p)  # x != 0: zero is stored


@lru_cache(maxsize=16)
def _lazy_valuations(p: int) -> _LazyValuations:
    """The one _LazyValuations of the prime p, which must be prime.  It
    holds only its zero entry, so keeping it costs nothing and saves
    building one per classify.analyze call."""
    return _LazyValuations(p)


@lru_cache(maxsize=16)
def _valuation_table(p: int, m: int, n: int) -> list[int] | _LazyValuations:
    """val_p(x) at index x for every |x| up to _table_bound.

    A list when the bound is within _TABLE_LIMIT: a negative x wraps to
    the end of it, as Python indexing does, so one list serves both
    signs.  Past the limit, _lazy_valuations(p).
    """
    bound = _table_bound(p**m, n)
    if bound > _TABLE_LIMIT:
        return _lazy_valuations(p)
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
    exec(compile(source, f"<padicsmith.kernel {name}>", "exec"), namespace)
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
        raise UnsupportedSizeError(f"the signature kernel is limited to n <= {_SIGNATURE_MAX_N}, got {n}")
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


def _signature_valuations(sig: tuple[int, ...]) -> tuple[tuple[Valuation, ...], tuple[int, ...]]:
    """(v(f_1), ..., v(f_n)) and the Smith exponents (e_1, ..., e_r) of a signature.

    A vanishing f_k has valuation INFINITY.  The rank r is the first k
    with Delta_k = _VAL_OF_ZERO, n if there is none, and
    e_k = Delta_k - Delta_{k-1}.
    """
    n = len(sig) // 2
    vals, dv = sig[:n], sig[n:]
    if _VAL_OF_ZERO in vals:
        vals = tuple([INFINITY if v == _VAL_OF_ZERO else v for v in vals])
    if dv[-1] == _VAL_OF_ZERO:  # every Delta_k past the rank is _VAL_OF_ZERO
        dv = dv[: dv.index(_VAL_OF_ZERO)]
    if not dv or not dv[-1]:  # rank 0, or Delta_r = 0 and so every e_k = 0
        return vals, dv
    return vals, tuple(map(sub, dv, (0, *dv)))
