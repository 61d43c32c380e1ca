"""Unimodular transforms, random correspondence repair, and reduction stability.

Almost every matrix is similar in spirit to its Smith form locally: for
a large prime p, random unimodular-mod-p sandwiching U @ A @ V is
p-characterized with probability at least 1 - (n^2 + 3n)/p (Lemma 3.3).
One seeded stream of sandwich attempts serves both users of that fact:
sample_correspondent stops at its first success, and
single_attempt_success_rate counts the successes among its first trials
and checks the rate against the bound.  The module also hosts the check
that taking entries mod p^m (for m beyond val_p(det)) preserves the
local story.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

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
    """sample_correspondent ran out of attempts."""


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


def _random_unit_matrix(n: int, p: int, seed: int) -> IntMatrix:
    """First matrix over [0, p), drawn row-major from Random(seed), with det prime to p.

    The caller checks that p is prime: at p = 1 the draw would never stop.
    """
    rng = random.Random(seed)
    while True:
        A = _random_matrix(rng, n, p)
        if det(A) % p:
            return A


def _require_bound(p: int, bound: int) -> None:
    _require_prime(p)
    if bound < p or bound % p != 0:
        raise ValueError(f"bound must be a positive multiple of p={p}, got {bound}")


def _attempts(
    A: IntMatrix, p: int, bound: int, seed: int | None
) -> Iterator[tuple[IntMatrix, IntMatrix, IntMatrix, ClassificationReport] | None]:
    """Endless seeded sandwich attempts: (U, V, U @ A @ V, its report), or None.

    U and then V are drawn row-major over [0, bound) from Random(seed).
    None when U or V is singular mod p: the product is then neither
    formed nor classified.  An attempt succeeds when the report says
    p-characterized; that is exactly the event the probabilistic bound
    counts.
    """
    rng = random.Random(seed)
    while True:
        U = _random_matrix(rng, A.n, bound)
        V = _random_matrix(rng, A.n, bound)
        if det(U) % p == 0 or det(V) % p == 0:
            yield None
        else:
            result = U @ A @ V
            yield U, V, result, analyze(result, p)


def sample_correspondent(
    A: MatrixLike,
    p: int,
    bound: int | None = None,
    max_attempts: int = 64,
    seed: int | None = None,
) -> TransformSample:
    """Search for U, V in [0, bound)^(n x n) making U @ A @ V p-characterized.

    The entry bound defaults to p and must be a positive multiple of p,
    which keeps residues mod p exactly uniform.  Pairs come from a
    Random seeded with `seed`.

    Returns a TransformSample on the first success; the resulting matrix
    is p-characterized, hence p-correspondent.  Raises
    AttemptsExhaustedError after max_attempts failures.
    """
    A = _as_matrix(A)
    if bound is None:
        bound = p
    _require_bound(p, bound)
    for attempt, hit in enumerate(islice(_attempts(A, p, bound, seed), max_attempts), 1):
        if hit is not None and hit[3].p_characterized:
            U, V, result, report = hit
            return TransformSample(
                p=p, bound=bound, attempts=attempt, U=U, V=V, result=result, report=report
            )
    raise AttemptsExhaustedError(
        f"no p-characterized sandwich found in {max_attempts} attempts (p={p}, bound={bound})"
    )


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
class SuccessRateReport:
    """Lemma 3.3 measured: single seeded attempts against the floor 1 - (n^2+3n)/p."""

    n: int
    p: int
    bound: int
    trials: int
    successes: int
    floor: Fraction
    ok: bool  # meets_failure_bound(successes, trials, n, p)


def single_attempt_success_rate(
    n: int, p: int, bound: int, trials: int, seed: int
) -> SuccessRateReport:
    """Count the successes of `trials` single sandwich attempts on one unit matrix.

    A is the first matrix over [0, p) drawn from Random(seed) with det
    prime to p; the attempts on it come from a second Random(seed).
    Raises ValueError when the floor 1 - (n^2+3n)/p is not positive,
    because no success rate could then fall below it.
    """
    _require_prime(p)  # before the floor, which p = 1 would report as vacuous
    floor = 1 - single_attempt_failure_bound(n, p)
    if floor <= 0:
        raise ValueError(
            f"lemma33 floor 1 - (n^2+3n)/p = {floor} is vacuous at p={p}, n={n}: "
            "no success rate can fall below it"
        )
    _require_bound(p, bound)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    attempts = _attempts(_random_unit_matrix(n, p, seed), p, bound, seed)
    successes = sum(
        hit is not None and hit[3].p_characterized for hit in islice(attempts, trials)
    )
    return SuccessRateReport(
        n=n,
        p=p,
        bound=bound,
        trials=trials,
        successes=successes,
        floor=floor,
        ok=meets_failure_bound(successes, trials, n, p),
    )


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
