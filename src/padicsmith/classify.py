"""The two p-adic predicates linking Smith forms to eigenvalue valuations.

A matrix is p-characterized when the valuations of its charpoly
coefficients match the valuations of its determinantal divisors on
1..rank, and p-correspondent when the valuation multiset of its nonzero
eigenvalues equals the valuation profile of its invariant factors.
Characterized implies correspondent; the converse fails.

Each f_k is a signed sum of k x k minors, so the valuation Delta_k of the
k-th determinantal divisor is at most v(f_k) (Mazur's inequality), and a
unit f_k forces e_1 = ... = e_k = 0.  A unit f_{n-1} or f_n therefore
fixes the whole Smith profile from the characteristic polynomial alone:
the last exponent is v(f_n) when f_n != 0, and the rank is n - 1 when
f_n = 0.  analyze reads the profile off the charpoly in that case and
runs the local elimination only for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .newton import EigenvalueValuations, _eigenvalue_valuations
from .smith import local_profile


@dataclass(frozen=True)
class ClassificationReport:
    """Full evidence bundle for one matrix at one prime."""

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

    The charpoly is valued first.  When f_{n-1} or f_n is a p-unit (or
    n = 1, taking f_0 = 1), Delta_k <= v(f_k) pins the Smith profile to
    (0, ..., 0, v(f_n)), or to n - 1 zeros when f_n = 0; only the other
    matrices go through local_profile's elimination.
    """
    _require_prime(p)  # before _val, which never returns for p = 1
    A = _as_matrix(A)
    n = A.n
    vals = [_val(c, p) for c in char_poly(A).coeffs]
    if n == 1 or 0 in vals[-2:]:
        last = vals[-1]
        exponents = (0,) * (n - 1) + ((last,) if last is not INFINITY else ())
    else:
        exponents = local_profile(A, p).exponents
    r = len(exponents)
    delta_vals = tuple(accumulate(exponents))
    f_vals = tuple(vals[:r])
    characterized = f_vals == delta_vals

    eig = _eigenvalue_valuations(vals, p)
    degenerate = len(eig.values) < r
    # Fraction == int is exact; both sides are () at rank 0, and their
    # lengths differ when degenerate
    correspondent = eig.values == exponents

    if characterized and not correspondent:
        raise AssertionError(
            "characterized-but-not-correspondent matrix encountered; "
            f"this contradicts the implication the package is built on: {A.rows}"
        )

    return ClassificationReport(
        p=p,
        n=n,
        rank=r,
        f_vals=f_vals,
        delta_vals=delta_vals,
        profile=exponents,
        eig_vals=eig,
        p_characterized=characterized,
        p_correspondent=correspondent,
        degenerate=degenerate,
    )


def is_p_characterized(A: MatrixLike, p: int) -> bool:
    """True when charpoly coefficient valuations equal determinantal divisor valuations."""
    return analyze(A, p).p_characterized


def is_p_correspondent(A: MatrixLike, p: int) -> bool:
    """True when nonzero-eigenvalue valuations match the invariant factor profile."""
    return analyze(A, p).p_correspondent
