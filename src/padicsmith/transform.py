"""Unimodular transforms, random correspondence repair, and reduction stability.

Almost every matrix is similar in spirit to its Smith form locally: for
a large prime p, random unimodular-mod-p sandwiching U @ A @ V is
p-characterized with probability at least 1 - (n^2 + 3n)/p.  This module
hosts the seeded sampler built on that fact, plus the check that taking
entries mod p^m (for m beyond val_p(det)) preserves the local story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .classify import ClassificationReport, analyze
from .exact import (
    IntMatrix,
    MatrixLike,
    Valuation,
    _as_matrix,
    _require_prime,
    det,
    rem_pm,
)

# meets_failure_bound allows the observed rate this many binomial sigmas
FAILURE_BOUND_SIGMAS = 3


class AttemptsExhaustedError(RuntimeError):
    """sample_correspondent ran out of attempts; carries the last report seen."""

    def __init__(self, message: str, last_report: ClassificationReport | None):
        super().__init__(message)
        self.last_report = last_report


@dataclass(frozen=True)
class TransformSample:
    """A successful sandwich U @ A @ V together with its classification."""

    p: int
    bound: int
    attempts: int
    U: IntMatrix
    V: IntMatrix
    result: IntMatrix
    report: ClassificationReport

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "bound": self.bound,
            "attempts": self.attempts,
            "U": self.U.to_lists(),
            "V": self.V.to_lists(),
            "result": self.result.to_lists(),
            "report": self.report.to_json_obj(),
        }


def _random_matrix(rng: random.Random, n: int, bound: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randrange(bound) for _ in range(n)] for _ in range(n)]
    )


def _attempt(
    A: IntMatrix, U: IntMatrix, V: IntMatrix, p: int
) -> tuple[bool, ClassificationReport | None, int, int, IntMatrix | None]:
    """One sandwich attempt: (success, report, det U, det V, U @ A @ V).

    Success needs U, V nonsingular mod p and a p-characterized product;
    that is exactly the event the probabilistic bound counts.  When U or
    V is singular mod p, the product is neither formed nor classified and
    report and product are None.
    """
    det_u, det_v = det(U), det(V)
    if det_u % p == 0 or det_v % p == 0:
        return False, None, det_u, det_v, None
    result = U @ A @ V
    report = analyze(result, p)
    return report.p_characterized, report, det_u, det_v, result


def sample_correspondent(
    A: MatrixLike,
    p: int,
    bound: int | None = None,
    max_attempts: int = 64,
    seed: int | None = None,
    pair_source: Callable[[], tuple[IntMatrix, IntMatrix]] | None = None,
) -> TransformSample:
    """Search for U, V in [0, bound)^(n x n) making U @ A @ V p-characterized.

    The entry bound defaults to p and must be a positive multiple of p,
    which keeps residues mod p exactly uniform.  pair_source overrides
    the random draw (a deterministic hook for tests); otherwise pairs
    come from a Random seeded with `seed`.

    Returns a TransformSample on the first success; the resulting matrix
    is p-characterized, hence p-correspondent.  Raises
    AttemptsExhaustedError after max_attempts failures.
    """
    A = _as_matrix(A)
    _require_prime(p)
    if bound is None:
        bound = p
    if bound < p or bound % p != 0:
        raise ValueError(f"bound must be a positive multiple of p={p}, got {bound}")
    rng = random.Random(seed)
    last_report: ClassificationReport | None = None
    for attempt in range(1, max_attempts + 1):
        if pair_source is not None:
            U, V = pair_source()
        else:
            U = _random_matrix(rng, A.n, bound)
            V = _random_matrix(rng, A.n, bound)
        ok, report, det_u, det_v, result = _attempt(A, U, V, p)
        if report is not None:
            last_report = report
        if ok:
            # the success certificate: explicit raises, so python -O keeps them
            if report is None or not report.p_correspondent:
                raise AssertionError(
                    f"attempt {attempt} succeeded without a p-correspondent result (p={p})"
                )
            if det_u % p == 0 or det_v % p == 0:
                raise AssertionError(
                    f"attempt {attempt} succeeded with a transform singular mod p={p}"
                )
            return TransformSample(
                p=p,
                bound=bound,
                attempts=attempt,
                U=U,
                V=V,
                result=result,
                report=report,
            )
    raise AttemptsExhaustedError(
        f"no p-characterized sandwich found in {max_attempts} attempts (p={p}, bound={bound})",
        last_report,
    )


def count_single_attempt_successes(
    A: IntMatrix, p: int, bound: int, trials: int, seed: int
) -> int:
    """Monte-Carlo driver: independent single sandwich attempts, seeded."""
    _require_prime(p)
    if bound < p or bound % p != 0:
        raise ValueError(f"bound must be a positive multiple of p={p}, got {bound}")
    rng = random.Random(seed)
    successes = 0
    for _ in range(trials):
        U = _random_matrix(rng, A.n, bound)
        V = _random_matrix(rng, A.n, bound)
        if _attempt(A, U, V, p)[0]:
            successes += 1
    return successes


def single_attempt_failure_bound(n: int, p: int) -> Fraction:
    """Proven upper bound (n^2 + 3n)/p on the single-attempt failure rate."""
    return Fraction(n * n + 3 * n, p)


def meets_failure_bound(successes: int, trials: int, n: int, p: int) -> bool:
    """Exact test that the observed success rate clears 1 - (n^2+3n)/p - k sigma.

    sigma is the binomial standard deviation sqrt(q(1-q)/trials) at the
    bound failure rate q, and k is FAILURE_BOUND_SIGMAS.  Compared by
    squaring, so the whole check stays in rational arithmetic.
    """
    q = single_attempt_failure_bound(n, p)
    shortfall = 1 - q - Fraction(successes, trials)
    if shortfall <= 0:
        return True
    return shortfall * shortfall <= Fraction(FAILURE_BOUND_SIGMAS**2) * q * (1 - q) / trials


@dataclass(frozen=True)
class StabilityReport:
    """What survives reduction mod p^m, for m past val_p(det)."""

    p: int
    m: int
    profile: tuple[int, ...]
    reduced_profile: tuple[int, ...]
    f_vals: tuple[Valuation, ...]
    reduced_f_vals: tuple[Valuation, ...]
    a_characterized: bool
    reduced_characterized: bool

    @property
    def profile_match(self) -> bool:
        return self.profile == self.reduced_profile

    @property
    def coeff_vals_match(self) -> bool:
        """Coefficient valuations below m must survive the reduction."""
        return all(
            rv == av
            for av, rv in zip(self.f_vals, self.reduced_f_vals)
            if isinstance(av, int) and av < self.m
        )

    @property
    def characterized_preserved(self) -> bool:
        return self.reduced_characterized or not self.a_characterized

    @property
    def ok(self) -> bool:
        return self.profile_match and self.coeff_vals_match and self.characterized_preserved


def verify_rem_stability(A: MatrixLike, p: int, m: int) -> StabilityReport:
    """Compare the p-local data of A and of A rem p^m.

    Requires A nonsingular and m strictly above val_p(det A); below that
    threshold reduction can genuinely destroy the profile, so asking is
    a caller error.
    """
    A = _as_matrix(A)
    rep_a = analyze(A, p)  # checks that p is prime
    if rep_a.rank < A.n:
        raise ValueError("rem-stability is only defined for nonsingular matrices")
    # A is nonsingular, so val_p(det A) is the sum of its Smith exponents
    vd = sum(rep_a.profile)
    if m <= vd:
        raise ValueError(f"m must exceed val_p(det A) = {vd}, got m = {m}")

    # both matrices are nonsingular (val_p of the reduced determinant is
    # still vd < m), so each report's rank is n and its f_vals cover f_1..f_n
    rep_r = analyze(rem_pm(A, p, m), p)
    return StabilityReport(
        p=p,
        m=m,
        profile=rep_a.profile,
        reduced_profile=rep_r.profile,
        f_vals=rep_a.f_vals,
        reduced_f_vals=rep_r.f_vals,
        a_characterized=rep_a.p_characterized,
        reduced_characterized=rep_r.p_characterized,
    )
