"""The `padicsmith verify` suites: each returns one (ok, line) pair per check.

A suite takes the verify flags it reads as keyword arguments, each with
the suite's default, and imports density or transform only when it
runs, so loading this module loads neither.

theorem1 counts every matrix of one (p, m, n) box through the density
engine's walk, whose predicate rule raises on a characterized matrix
that is not correspondent.  rem-stability and lemma33 run transform's checks on
seeded random matrices.

The group-order checks take their class sizes from the density engine's
partition map: gl-ratio the unit class (1, ..., 1), which it compares
with the closed form of |GL_n(Z/p^m Z)|, and orbit the class of
diag(p^e), which it compares with the products L diag(p^e) R over pairs
of units.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

from .exact import DEFAULT_BUDGET, IntMatrix, _det_rows, _require_prime, det, val_p

GL_RATIO_PRIMES = (2, 3, 5, 7, 11)

# gl-ratio checks the closed form against an exhaustive count up to this many matrices
GL_EXHAUSTIVE_BUDGET = 2**20

REM_STABILITY_PRIMES = (2, 3, 5)

ORBIT_CELLS = ((2, 1, (0, 0)), (3, 1, (0, 0)), (2, 2, (0, 1)))


def gl_order(p: int, m: int, n: int) -> int:
    """|GL_n(Z/p^m Z)| in closed form."""
    _require_prime(p)
    return p ** ((m - 1) * n * n) * prod(p**n - p**i for i in range(n))


def orbit_stabilizer_check(
    p: int, m: int, exponents: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> tuple[int, Fraction, bool]:
    """Exhaustively verify the sandwich-counting identity for one profile class.

    With S = diag(p^e) and sum(e) < m, a product L @ S @ R lies in S's
    class only if det L and det R are prime to p, since det(L S R) =
    det L * det S * det R mod p^m must have valuation sum(e); and every
    such product does, since the Smith form mod p^m is that of any lift
    (rem-stability).  So (L @ S @ R) rem p^m is bucketed over the pairs of
    matrices over [0, p^m) with det prime to p, the class size is read
    off enumerate_density's partition map, and each member of the class
    must be hit exactly |GL|^2 / class_size times.  Returns the class
    size, that quotient and whether the hits bear it out.
    """
    from . import density

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
    density._space_size("pair space (p^m)^(2 n^2)", p, 2 * m * n * n, budget)
    q = p**m

    rng_n = range(n)
    units = [
        flat
        for flat in product(range(q), repeat=n * n)
        if _det_rows([list(flat[i * n : (i + 1) * n]) for i in rng_n]) % p
    ]
    powers = tuple(p**e for e in exponents)
    # S is nonsingular with every e_i <= sum(e) < m, so its key is its diagonal
    class_size = density.enumerate_density(p, m, n, budget=budget).partitions[powers].size
    # a Fraction: when class_size does not divide |GL|^2, no hit count
    # equals it and the check fails
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
    return class_size, expected, ok


def theorem1(p: int = 2, m: int = 1, n: int = 2, budget: int = DEFAULT_BUDGET) -> list[tuple[bool, str]]:
    from .density import _box_size, _box_tally

    _require_prime(p)
    total = _box_size(p, m, n, budget)
    head = f"theorem1 p={p} m={m} n={n}"
    try:
        weight = sum(_box_tally(p, m, n).values())
    except AssertionError as exc:
        return [(False, f"{head}: counterexample found ({exc})")]
    if weight != total:
        return [(False, f"{head}: representative weights sum to {weight}, expected {total} matrices")]
    return [(True, f"{head}: {total} matrices, 0 characterized-but-not-correspondent")]


def gl_ratio(p: int | None = None, m: int = 3, n: int = 4) -> list[tuple[bool, str]]:
    """The full-space/GL ratio prod_{k=1..n} 1/(1 - p^-k) < 3.47 of every cell up to (m, n).

    When the residue space fits in GL_EXHAUSTIVE_BUDGET the closed form
    must also equal the size of the unit class that enumerate_density
    counts over the whole box.
    """
    from . import density

    checks = []
    for p, m, n in product([p] if p else GL_RATIO_PRIMES, range(1, m + 1), range(1, n + 1)):
        order = gl_order(p, m, n)
        space = p ** (m * n * n)
        ratio = Fraction(space, order)
        line = f"gl-ratio p={p} m={m} n={n}: ratio={ratio}"
        ok = ratio < 4
        if space > GL_EXHAUSTIVE_BUDGET:
            line += " (closed-form)"
        else:
            # Smith diagonal (1, ..., 1) at p: det is prime to p, so A is invertible mod p^m
            count = density.enumerate_density(p, m, n).partitions[(1,) * n].size
            line += " (exhaustive+closed-form)"
            if count != order:
                ok = False
                line += f", exhaustive count {count} != closed form {order}"
        checks.append((ok, line))
    return checks


def rem_stability(
    p: int | None = None, n: int | None = None, trials: int = 200, seed: int = 0
) -> list[tuple[bool, str]]:
    from .transform import verify_rem_stability

    rng = random.Random(seed)
    checks = []
    for p in [p] if p else REM_STABILITY_PRIMES:
        bad = 0
        done = 0
        while done < trials:
            size = n or rng.randrange(2, 5)
            A = IntMatrix.from_rows(
                [[rng.randrange(-100, 101) for _ in range(size)] for _ in range(size)]
            )
            d = det(A)
            if d == 0:
                continue
            rep = verify_rem_stability(A, p, val_p(d, p) + 1)
            bad += not rep.ok
            done += 1
        checks.append((bad == 0, f"rem-stability p={p}: {trials} trials, {bad} violations"))
    return checks


def lemma33(
    p: int = 101, n: int = 3, bound: int | None = None, trials: int = 1000, seed: int = 0
) -> list[tuple[bool, str]]:
    from .transform import single_attempt_success_rate

    rep = single_attempt_success_rate(n, p, bound or p, trials, seed)
    return [
        (
            rep.ok,
            f"lemma33 p={p} n={rep.n} bound={rep.bound}: {rep.successes}/{rep.trials} "
            f"successes, rate {Fraction(rep.successes, rep.trials)} vs floor {rep.floor} - 3sigma",
        )
    ]


def orbit(budget: int = DEFAULT_BUDGET) -> list[tuple[bool, str]]:
    checks = []
    for p, m, exponents in ORBIT_CELLS:
        class_size, per_member, ok = orbit_stabilizer_check(p, m, exponents, budget=budget)
        checks.append(
            (
                ok,
                f"orbit p={p} m={m} e={list(exponents)}: class size {class_size}, "
                f"{per_member} pairs per member",
            )
        )
    return checks
