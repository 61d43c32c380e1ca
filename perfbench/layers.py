"""The per-layer sweep of a traced run.

Each layer is measured from outside, by timing calls into its module's
public functions; nothing here reaches into private helpers.  Matrix
layers are timed on the workload's own inputs; smith, charpoly and
analyze also on seeded n = 16 inputs (random 32-bit entries and
U diag(p^e) V sandwiches, the metrics ending in .n16), the bignum regime
where local_profile is most of analyze.  The density and transform
layers are timed on fixed inputs: the full table serially, its four
biggest cells with one worker per CPU, and the sampler and rem-stability
ops of analyze-small.
"""

from __future__ import annotations

import json
import operator
import os
import random
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from padicsmith.charpoly import char_poly
from padicsmith.classify import analyze
from padicsmith.density import classify_residue_matrix, enumerate_density
from padicsmith.exact import IntMatrix, det, parse_matrix
from padicsmith.newton import valuations_from_charpoly
from padicsmith.smith import local_profile, smith_form
from padicsmith.transform import AttemptsExhaustedError, sample_correspondent, verify_rem_stability

from .workloads import (
    TABLE_CELLS,
    WORKER_CELLS,
    SampleOp,
    RemOp,
    cell_key,
    cell_size,
    check_density_row,
    large_ops,
    load_pinned,
    small_ops,
)
from .tracing import NullTracer

CLASSIFY_SAMPLE = 300  # uniform residue matrices per cell
CLI_RUNS = 3
LARGE_INPUTS = 10  # n = 16 matrices, two cycles of the random/sandwich pattern
# The layers that dominate analyze at n = 16.  analyze's self time there is
# under the noise of the difference that defines it, so it is left out.
LARGE_LAYERS = ("smith.smith_form_us", "smith.local_profile_us", "charpoly.char_poly_us", "classify.analyze_us")
SAMPLER_ATTEMPTS = 64  # sample_correspondent's default max_attempts
# 3x3 with Smith form diag(1, 3, 9); 3-correspondent, so the CLI exits 0.
CLI_MATRIX = "3\n3 -1 3\n9 -10 0\n3 0 3\n"


def per_call_us(fn, calls, min_rounds: int = 3, min_seconds: float = 0.15) -> float:
    """Median over rounds of the mean time per call, in microseconds."""
    rounds = []
    spent = 0.0
    while len(rounds) < min_rounds or spent < min_seconds:
        t0 = perf_counter()
        for args in calls:
            fn(*args)
        dt = perf_counter() - t0
        spent += dt
        rounds.append(dt / len(calls))
    return median(rounds) * 1e6


def _density_layers(seed: int, out: dict, failures: list) -> int:
    pinned = load_pinned()
    serial = {}
    for cell in TABLE_CELLS:
        t0 = perf_counter()
        row = enumerate_density(*cell, threads=1)
        serial[cell] = perf_counter() - t0
        err = check_density_row(pinned, cell, row)
        if err:
            failures.append(err)
        out[f"density.cell_s.{cell_key(cell)}"] = (serial[cell], "s")

    rng = random.Random(seed)
    us = {}
    for cell in TABLE_CELLS:
        p, m, n = cell
        q = p**m
        sample = [
            ([[rng.randrange(q) for _ in range(n)] for _ in range(n)], p, m)
            for _ in range(CLASSIFY_SAMPLE)
        ]
        us[cell] = per_call_us(classify_residue_matrix, sample, min_seconds=0.02)
    for n in (2, 3, 4):
        cells = [c for c in TABLE_CELLS if c[2] == n]
        weight = sum(cell_size(c) for c in cells)
        out[f"density.classify_residue_matrix_us.n{n}"] = (
            sum(cell_size(c) * us[c] for c in cells) / weight,
            "us",
        )
    explained = sum(cell_size(c) * us[c] * 1e-6 for c in TABLE_CELLS)
    out["density.walk_overhead_frac"] = (1 - explained / sum(serial.values()), "ratio")

    workers = len(os.sched_getaffinity(0))
    parallel = {}
    for cell in WORKER_CELLS:
        t0 = perf_counter()
        row = enumerate_density(*cell, threads=workers)
        parallel[cell] = perf_counter() - t0
        err = check_density_row(pinned, cell, row)
        if err:
            failures.append(f"{workers} workers: {err}")
    out["density.fanout_overhead_s"] = (
        sum(parallel[c] - serial[c] / workers for c in WORKER_CELLS),
        "s",
    )
    out["density.scaling_eff"] = (
        sum(serial[c] for c in WORKER_CELLS) / (workers * sum(parallel.values())),
        "ratio",
    )
    return len(TABLE_CELLS) + len(WORKER_CELLS)


def _matrix_layers(inputs, out: dict) -> None:
    mats = [(A,) for A, _ in inputs]
    at_p = [(A, p) for A, p in inputs]
    texts = [(A.to_text(),) for A, _ in inputs[::2]] + [(json.dumps(A.to_json_obj()),) for A, _ in inputs[1::2]]
    us = {
        "exact.parse_matrix_us": per_call_us(parse_matrix, texts),
        "exact.det_us": per_call_us(det, mats),
        "exact.matmul_us": per_call_us(operator.matmul, [(A, A) for A, _ in inputs]),
        "smith.smith_form_us": per_call_us(smith_form, mats),
        "smith.local_profile_us": per_call_us(local_profile, at_p),
        "charpoly.char_poly_us": per_call_us(char_poly, mats),
        "newton.valuations_from_charpoly_us": per_call_us(
            valuations_from_charpoly, [(char_poly(A), p) for A, p in inputs]
        ),
        "classify.analyze_us": per_call_us(analyze, at_p),
    }
    us["classify.analyze_self_us"] = (
        us["classify.analyze_us"]
        - us["smith.local_profile_us"]
        - us["charpoly.char_poly_us"]
        - us["newton.valuations_from_charpoly_us"]
    )
    for name, value in us.items():
        out[name] = (value, "us")


def _large_layers(seed: int, out: dict, failures: list) -> int:
    """The matrix layers on n = 16 inputs; each op is checked once, untimed."""
    ops = large_ops(seed, LARGE_INPUTS)
    for op in ops:
        try:
            err = op.check(op.run(NullTracer(), 0)[0])
        except Exception as exc:  # an op that raises counts as failed
            err = repr(exc)
        if err:
            failures.append(f"n = 16 layer input: {err}")
    large: dict = {}
    _matrix_layers([(IntMatrix.from_rows(op.rows), op.p) for op in ops], large)
    for name in LARGE_LAYERS:
        out[name + ".n16"] = large[name]
    return len(ops)


def _sample(op) -> None:
    try:
        sample_correspondent(op.A, op.p, seed=op.seed)
    except AttemptsExhaustedError:  # counted as a failure by the untimed first pass
        pass


def _transform_layers(seed: int, out: dict, failures: list) -> int:
    ops = small_ops(seed, 200)
    samplers = [op for op in ops if isinstance(op, SampleOp)]
    rems = [op for op in ops if isinstance(op, RemOp)]
    attempts = successes = 0
    for op in samplers:
        try:
            attempts += sample_correspondent(op.A, op.p, seed=op.seed).attempts
            successes += 1
        except AttemptsExhaustedError as exc:
            attempts += SAMPLER_ATTEMPTS
            failures.append(f"sampler at p={op.p}: {exc!r}")
    out["transform.attempts_per_success"] = (attempts / max(successes, 1), "ratio")
    out["transform.sample_correspondent_us"] = (per_call_us(_sample, [(op,) for op in samplers]), "us")
    out["transform.verify_rem_stability_us"] = (
        per_call_us(verify_rem_stability, [(op.A, op.p, op.m) for op in rems]),
        "us",
    )
    return len(samplers)


def _cli_layer(root: Path, out: dict, failures: list) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "padicsmith.cli", "analyze", "-", "-p", "3"]
    times = []
    for _ in range(CLI_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, input=CLI_MATRIX, capture_output=True, text=True, env=env, cwd=root, timeout=60)
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or "p-characterized: yes" not in proc.stdout:
            failures.append(f"cli analyze exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    out["cli.analyze_cold_ms"] = (median(times) * 1e3, "ms")
    return CLI_RUNS


def sweep(workload, seed: int, root: Path) -> tuple[dict, int, list[str]]:
    """Every per-layer metric except the trace and error figures.

    Returns (metrics as name -> (value, unit), checked ops, failure messages).
    """
    out: dict = {}
    failures: list[str] = []
    checked = _density_layers(seed, out, failures)
    _matrix_layers(workload.layer_inputs(), out)
    checked += _large_layers(seed, out, failures)
    checked += _transform_layers(seed, out, failures)
    checked += _cli_layer(root, out, failures)
    return out, checked, failures
