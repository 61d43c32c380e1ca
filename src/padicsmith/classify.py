"""The two p-adic predicates linking Smith forms to eigenvalue valuations.

A matrix is p-characterized when the valuations of its charpoly
coefficients match the valuations of its determinantal divisors on
1..rank, and p-correspondent when the valuation multiset of its nonzero
eigenvalues equals the valuation profile of its invariant factors.
Characterized implies correspondent; the converse fails.

Both valuation vectors come from minors: f_k is a signed sum of the
principal k x k minors, and Delta_k, the valuation of the k-th
determinantal divisor, is the least valuation of a k x k minor.  For
n <= 4 analyze reads v(f_1..f_n) and Delta_1..Delta_n from one call of
the compiled signature kernel (padicsmith.kernel), which computes every
minor once and values it through the prime's one shared
_LazyValuations: that stores nothing but the zero entry, and returns 0
at once for a minor p does not divide.  The matrix is checked once, when
it is built; a parsed one, by the parser alone.

For n >= 5 the coefficients come from Berkowitz.  Delta_k <= v(f_k)
(Mazur's inequality), so a unit f_k forces e_1 = ... = e_k = 0, and a
unit f_{n-1} or f_n fixes the whole Smith profile from the
characteristic polynomial alone: the last exponent is v(f_n) when
f_n != 0, and the rank is n - 1 when f_n = 0.  analyze reads the profile
off the charpoly in that case and runs the local elimination only for
the rest.

Both routes, and the density engine for each signature it classifies,
decide the two predicates and check the theorem in _predicates.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .charpoly import char_poly
from .exact import (
    INFINITY,
    MatrixLike,
    Valuation,
    _as_matrix,
    _require_prime,
    _val,
    valuation_to_json,
)
from .kernel import _lazy_valuations, _signature_valuations, _signatures
from .newton import EigenvalueValuations, _eigenvalue_valuations
from .smith import local_profile

# Largest n whose valuations analyze reads off the signature kernel.  The
# kernel is compiled once per process and n: about 0.1, 0.2, 0.6 and
# 1.9 ms for n = 1..4, against 4.4 ms at n = 5 and 32 ms at n = 6 (2 vCPUs,
# CPython 3.11), a cost a one-shot CLI call pays in full.  For n >= 5
# Berkowitz and local_profile stay the only route, the one the tests hold
# the kernel to.
_KERNEL_MAX_N = 4


class ClassificationReport(
    namedtuple(
        "ClassificationReport",
        "p n rank f_vals delta_vals profile eig_vals p_characterized p_correspondent degenerate",
    )
):
    """Full evidence bundle for one matrix at one prime."""

    __slots__ = ()
    p: int
    n: int
    rank: int
    f_vals: tuple[Valuation, ...]
    delta_vals: tuple[int, ...]
    profile: tuple[int, ...]
    eig_vals: EigenvalueValuations
    p_characterized: bool
    p_correspondent: bool
    degenerate: bool

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "rank": self.rank,
            "f_vals": [valuation_to_json(v) for v in self.f_vals],
            "delta_vals": list(self.delta_vals),
            "profile": list(self.profile),
            "eig_vals": self.eig_vals.to_json_obj(),
            "p_characterized": self.p_characterized,
            "p_correspondent": self.p_correspondent,
            "degenerate": self.degenerate,
        }


def analyze(A: MatrixLike, p: int) -> ClassificationReport:
    """Classify A at the prime p, returning the full evidence bundle.

    Conventions for the edge cases: a rank-0 matrix satisfies both
    predicates vacuously; a matrix with fewer nonzero eigenvalues than
    its rank is degenerate and is not p-correspondent.

    For n <= _KERNEL_MAX_N one signature kernel call gives v(f_k) and
    Delta_k for every k, valued through the prime's one shared
    _LazyValuations, and the rank and exponents are read off the
    Delta_k.  For larger n the charpoly is valued first.  When f_{n-1} or
    f_n is a p-unit, Delta_k <= v(f_k) pins the Smith profile to
    (0, ..., 0, v(f_n)), or to n - 1 zeros when f_n = 0; only the other
    matrices go through local_profile's elimination.
    """
    _require_prime(p)  # before _val, which never returns for p = 1
    A = _as_matrix(A)
    n = A.n
    if n <= _KERNEL_MAX_N:
        sig = _signatures(n)(A.rows[:-1], A.rows[-1:], _lazy_valuations(p))[0]
        vals, exponents = _signature_valuations(sig)
    else:
        vals = tuple([_val(c, p) for c in char_poly(A).coeffs])
        if 0 in vals[-2:]:
            last = vals[-1]
            exponents = (0,) * (n - 1) + ((last,) if last is not INFINITY else ())
        else:
            exponents = local_profile(A, p).exponents
    delta_vals, eig, characterized, correspondent = _predicates(vals, exponents, p, A.rows)
    r = len(exponents)
    return ClassificationReport(
        p, n, r, vals[:r], delta_vals, exponents, eig, characterized, correspondent, len(eig.values) < r
    )


def _predicates(
    vals: tuple[Valuation, ...], exponents: tuple[int, ...], p: int, source: object
) -> tuple[tuple[int, ...], EigenvalueValuations, bool, bool]:
    """(Delta_1..Delta_r, eigenvalue valuations, characterized, correspondent).

    vals holds v(f_1), ..., v(f_n), INFINITY for a zero coefficient, and
    exponents the Smith exponents e_1 <= ... <= e_r at p.  The Newton hull
    comes from vals alone and Delta_k = e_1 + ... + e_k from the exponents
    alone, so characterized implies correspondent is a real check: a
    violation raises AssertionError naming source, the caller's input.
    """
    delta_vals = tuple(accumulate(exponents))
    characterized = vals[: len(exponents)] == delta_vals
    eig = _eigenvalue_valuations(vals, p)
    # Fraction == int is exact; both sides are () at rank 0, and their
    # lengths differ when degenerate
    correspondent = eig.values == exponents
    if characterized and not correspondent:
        raise AssertionError(
            "characterized-but-not-correspondent matrix encountered; "
            f"this contradicts the implication the package is built on: {source}"
        )
    return delta_vals, eig, characterized, correspondent
