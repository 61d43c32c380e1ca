import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import padicsmith
from padicsmith.classify import analyze
from padicsmith.charpoly import char_poly
from padicsmith.exact import IntMatrix, det, rem_pm, val_p
from padicsmith.smith import local_profile
from padicsmith.transform import (
    AttemptsExhaustedError,
    count_single_attempt_successes,
    meets_failure_bound,
    sample_correspondent,
    single_attempt_failure_bound,
    verify_rem_stability,
)

from conftest import HEPTA_U, HEPTA_V, SKEWED


def test_published_pair_succeeds_first_try(hepta, hepta_fixed):
    pairs = iter([(IntMatrix.from_rows(HEPTA_U), IntMatrix.from_rows(HEPTA_V))])
    sample = sample_correspondent(hepta, 7, bound=63, pair_source=lambda: next(pairs))
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


PLANTED_CERTIFICATES = """
import padicsmith.transform as t
from padicsmith.classify import analyze
from padicsmith.exact import IntMatrix, det

A = IntMatrix.from_rows({skewed})
eye, zero = IntMatrix.identity(4), IntMatrix.zeros(4)
not_correspondent = analyze(A, 2)
correspondent = analyze(eye, 2)
for report, pair in ((not_correspondent, (eye, eye)), (correspondent, (zero, eye))):
    t._attempt = lambda A, U, V, p, report=report: (True, report, det(U), det(V), U @ A @ V)
    try:
        t.sample_correspondent(A, 2, pair_source=lambda pair=pair: pair)
    except AssertionError as exc:
        print("refused:", exc)
    else:
        print("accepted")
"""


def test_bad_certificate_raises_with_asserts_stripped():
    # a planted success with a non-correspondent report, then with a U
    # singular mod p: both must raise even under python -O
    assert not analyze(IntMatrix.from_rows(SKEWED), 2).p_correspondent
    env = dict(os.environ)
    src = str(Path(padicsmith.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_CERTIFICATES.format(skewed=SKEWED)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    assert "p-correspondent" in lines[0] and lines[0].startswith("refused:")
    assert "singular" in lines[1] and lines[1].startswith("refused:")


def test_bound_must_be_multiple_of_p(hepta):
    with pytest.raises(ValueError):
        sample_correspondent(hepta, 7, bound=10)
    with pytest.raises(ValueError):
        sample_correspondent(hepta, 7, bound=0)


def test_exhaustion_raises_with_last_report(hepta):
    singular = IntMatrix.from_rows([[7, 0, 0, 0], [0, 7, 0, 0], [0, 0, 7, 0], [0, 0, 0, 7]])
    with pytest.raises(AttemptsExhaustedError) as exc:
        sample_correspondent(
            hepta, 7, bound=7, max_attempts=3, pair_source=lambda: (singular, singular)
        )
    assert "3" in str(exc.value)


def test_failure_bound_values():
    assert single_attempt_failure_bound(3, 101) == Fraction(18, 101)
    assert single_attempt_failure_bound(4, 7) == 4


def test_meets_failure_bound_edges():
    assert meets_failure_bound(1000, 1000, n=3, p=101)
    assert not meets_failure_bound(0, 1000, n=3, p=101)


def test_counting_is_deterministic(hepta):
    runs = [count_single_attempt_successes(hepta, 101, 101, trials=50, seed=9) for _ in range(2)]
    assert runs[0] == runs[1]
    assert 0 <= runs[0] <= 50


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
