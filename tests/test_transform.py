from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicsmith import transform
from padicsmith.classify import analyze
from padicsmith.charpoly import char_poly
from padicsmith.exact import IntMatrix, det, rem_pm, val_p
from padicsmith.smith import local_profile
from padicsmith.transform import (
    AttemptsExhaustedError,
    meets_failure_bound,
    sample_correspondent,
    single_attempt_failure_bound,
    single_attempt_success_rate,
    verify_rem_stability,
)

from conftest import HEPTA_U, HEPTA_V


def test_published_pair_succeeds_first_try(monkeypatch, hepta, hepta_fixed):
    # each attempt draws U, then V
    draws = iter([IntMatrix.from_rows(HEPTA_U), IntMatrix.from_rows(HEPTA_V)])
    monkeypatch.setattr(transform, "_random_matrix", lambda rng, n, bound: next(draws))
    sample = sample_correspondent(hepta, 7, bound=63)
    assert sample.attempts == 1
    assert sample.result == hepta_fixed
    assert sample.report.p_characterized
    assert sample.report.p_correspondent
    assert sample.report.profile == (0, 1, 1, 2)


def test_seeded_runs_are_reproducible(hepta):
    a = sample_correspondent(hepta, 7, seed=42)
    b = sample_correspondent(hepta, 7, seed=42)
    assert a == b
    assert analyze(a.result, 7).p_correspondent


def test_success_certificate(hepta):
    sample = sample_correspondent(hepta, 7, seed=0)
    assert det(sample.U) % 7 != 0
    assert det(sample.V) % 7 != 0
    assert sample.result == sample.U @ hepta @ sample.V
    assert sample.report.p_characterized


def test_bound_must_be_multiple_of_p(hepta):
    with pytest.raises(ValueError):
        sample_correspondent(hepta, 7, bound=10)
    with pytest.raises(ValueError):
        sample_correspondent(hepta, 7, bound=0)


def test_exhaustion_refuses_singular_pairs_unclassified(monkeypatch, hepta):
    singular = IntMatrix.from_rows([[7, 0, 0, 0], [0, 7, 0, 0], [0, 0, 7, 0], [0, 0, 0, 7]])
    draws = []

    def draw(rng, n, bound):
        draws.append(bound)
        return singular

    def never(A, p):
        pytest.fail("a product of a singular pair was classified")

    monkeypatch.setattr(transform, "_random_matrix", draw)
    monkeypatch.setattr(transform, "analyze", never)
    with pytest.raises(AttemptsExhaustedError) as exc:
        sample_correspondent(hepta, 7, bound=7, max_attempts=3)
    assert str(exc.value) == "no p-characterized sandwich found in 3 attempts (p=7, bound=7)"
    # two draws per attempt, and none past the last one
    assert draws == [7] * 6


def test_failure_bound_values():
    assert single_attempt_failure_bound(3, 101) == Fraction(18, 101)
    assert single_attempt_failure_bound(4, 7) == 4


def test_meets_failure_bound_edges():
    assert meets_failure_bound(1000, 1000, n=3, p=101)
    assert not meets_failure_bound(0, 1000, n=3, p=101)


def test_counting_is_deterministic():
    runs = [single_attempt_success_rate(4, 101, 101, trials=50, seed=9) for _ in range(2)]
    assert runs[0] == runs[1]
    rep = runs[0]
    assert (rep.n, rep.p, rep.bound, rep.trials) == (4, 101, 101, 50)
    assert 0 <= rep.successes <= 50
    assert rep.floor == 1 - single_attempt_failure_bound(4, 101)
    assert rep.ok == meets_failure_bound(rep.successes, 50, 4, 101)


def test_success_rate_matches_the_sampler():
    # both read one attempt stream: the sampler's first success, attempt a,
    # is the rate's first success on the same matrix and seed
    for seed in range(12):
        A = transform._random_unit_matrix(2, 11, seed)
        a = sample_correspondent(A, 11, seed=seed).attempts
        assert single_attempt_success_rate(2, 11, 11, trials=a, seed=seed).successes == 1
        if a > 1:
            assert single_attempt_success_rate(2, 11, 11, trials=a - 1, seed=seed).successes == 0


def test_success_rate_refusals():
    with pytest.raises(ValueError, match="p must be prime"):
        single_attempt_success_rate(3, 1, 1, trials=10, seed=0)
    with pytest.raises(ValueError, match=r"floor 1 - \(n\^2\+3n\)/p = -13/5 is vacuous at p=5, n=3"):
        single_attempt_success_rate(3, 5, 5, trials=10, seed=0)
    with pytest.raises(ValueError, match="bound must be a positive multiple"):
        single_attempt_success_rate(3, 101, 50, trials=10, seed=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        single_attempt_success_rate(3, 101, 101, trials=0, seed=0)


def test_rem_stability_pinned(reducible):
    rep = verify_rem_stability(reducible, 2, 3)
    assert rep.profile == (0, 2)
    assert rep.reduced_profile == (0, 2)
    assert rep.profile_match
    assert rep.coeff_vals_match
    assert rep.characterized_preserved
    assert rep.ok


def test_rem_stability_domain_errors(reducible):
    with pytest.raises(ValueError):
        verify_rem_stability(IntMatrix.from_rows([[1, 1], [1, 1]]), 2, 3)
    # v_2(det) = 2, so m must exceed 2
    with pytest.raises(ValueError):
        verify_rem_stability(reducible, 2, 2)


def square(n):
    e = st.integers(min_value=-40, max_value=40)
    return st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n).map(
        IntMatrix.from_rows
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(square), st.sampled_from([2, 3, 5]))
def test_rem_stability_holds_above_det_valuation(A, p):
    d = det(A)
    if d == 0:
        return
    m = val_p(d, p) + 1
    rep = verify_rem_stability(A, p, m)
    assert rep.ok
    # the report's fields are read off analyze; pin them to direct computations
    reduced = rem_pm(A, p, m)
    sides = ((A, rep.profile, rep.f_vals), (reduced, rep.reduced_profile, rep.reduced_f_vals))
    for M, profile, f_vals in sides:
        f = char_poly(M)
        assert profile == local_profile(M, p).exponents
        assert f_vals == tuple(val_p(f.f(i), p) for i in range(1, A.n + 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_sampling_terminates_at_modest_primes(seed):
    A = IntMatrix.from_rows([[2, 3], [5, 7]])
    sample = sample_correspondent(A, 11, seed=seed, max_attempts=256)
    assert analyze(sample.result, 11).p_correspondent
