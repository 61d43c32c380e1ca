"""The two p-adic predicates linking Smith forms to eigenvalue valuations.

A matrix is p-characterized when the valuations of its charpoly
coefficients match the valuations of its determinantal divisors on
1..rank, and p-correspondent when the valuation multiset of its nonzero
eigenvalues equals the valuation profile of its invariant factors.
Characterized implies correspondent; the converse fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .charpoly import char_poly
from .exact import (
    MatrixLike,
    Valuation,
    _as_matrix,
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
    """
    A = _as_matrix(A)
    prof = local_profile(A, p)  # checks that p is prime
    r = prof.rank
    delta_vals = tuple(accumulate(prof.exponents))

    vals = [_val(c, p) for c in char_poly(A).coeffs]
    f_vals = tuple(vals[:r])
    characterized = f_vals == delta_vals

    eig = _eigenvalue_valuations(vals, p)
    degenerate = len(eig.values) < r
    # Fraction == int is exact; both sides are () at rank 0, and their
    # lengths differ when degenerate
    correspondent = eig.values == prof.exponents

    if characterized and not correspondent:
        raise AssertionError(
            "characterized-but-not-correspondent matrix encountered; "
            f"this contradicts the implication the package is built on: {A.rows}"
        )

    return ClassificationReport(
        p=p,
        n=A.n,
        rank=r,
        f_vals=f_vals,
        delta_vals=delta_vals,
        profile=prof.exponents,
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
