"""The benchmark workloads: inputs made from a seed, the timed ops, and their checks.

Every workload is a closed loop with one caller in this process, and
none starts a child process.  A timed loop returns a Chunk of raw op
times; summarize() turns one or more chunks into the metrics.  Checks
against independent values run outside the timed region: each distinct
input is checked once per chunk, and a repeat of it must return an equal
result.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from padicsmith.charpoly import char_poly_minor_oracle
from padicsmith.classify import analyze
from padicsmith.density import enumerate_density
from padicsmith.exact import IntMatrix, det, parse_matrix, val_p
from padicsmith.smith import determinantal_divisors
from padicsmith.transform import sample_correspondent, verify_rem_stability

from .tracing import NullTracer

HERE = Path(__file__).resolve().parent

# The cells of scripts/reproduce_density_table.py, in its order.
TABLE_CELLS = (
    (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 1, 3), (2, 2, 3), (2, 1, 4),
    (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 1, 3), (5, 1, 2), (5, 2, 2), (7, 1, 2),
)
# The four biggest cells, where fan-out has enough work to pay for itself;
# the traced run's layer sweep times them with one worker per CPU.
WORKER_CELLS = ((2, 2, 3), (3, 3, 2), (2, 1, 4), (5, 2, 2))
# Small cells whose enumeration warms the classifiers and the odometer.
WARM_CELLS = ((2, 1, 3), (3, 1, 3))

BOX_PRIMES = (2, 3, 5, 7)
# Sampler primes per n: large enough that 64 attempts never run out
# (the single-attempt failure bound (n^2 + 3n)/p stays below 0.6).
SAMPLER_PRIME = {2: 31, 3: 31, 4: 101}

# analyze-small op slots: a<n> is parse + analyze at size n, s a sampler
# op, r a rem-stability op.  The n = 3 share keeps the median inside the
# n = 3 latency mode; the r ops, the slowest, hold the tail.
SMALL_PATTERN = ("a2", "a3", "a4", "a3", "a2", "a3", "a4", "a3", "s", "r")
SMALL_POOL = 2000
# The n = 16 inputs of the layer sweep, the bignum regime: r random 32-bit
# entries, s a U diag(p^e) V sandwich.
LARGE_PATTERN = ("r", "s", "r", "s", "r")
LARGE_N = 16


def cell_key(cell: tuple[int, int, int]) -> str:
    return "-".join(map(str, cell))


def cell_size(cell: tuple[int, int, int]) -> int:
    """Matrices in the cell: (p^m)^(n^2)."""
    p, m, n = cell
    return (p**m) ** (n * n)


def load_pinned() -> dict[str, tuple[str, str]]:
    """cell key -> (csv row, sha256 of the canonical partition list)."""
    hashes = json.loads((HERE / "pinned_partitions.json").read_text())
    pinned = {}
    for line in (HERE / "pinned_density.csv").read_text().splitlines()[1:]:
        key = "-".join(line.split(",")[:3])
        pinned[key] = (line, hashes[key])
    return pinned


def partition_digest(row) -> str:
    canon = repr(sorted((k, c.size, c.char_count) for k, c in row.partitions.items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_density_row(pinned, cell, row) -> str | None:
    csv, digest = pinned[cell_key(cell)]
    if row.csv_row() != csv:
        return f"cell {cell}: row {row.csv_row()} != pinned {csv}"
    if partition_digest(row) != digest:
        return f"cell {cell}: partition classes differ from the pinned ones"
    return None


@dataclass
class Chunk:
    """What one timed loop saw."""

    # seconds, one per op; an array of doubles keeps the benchmark's own
    # memory small next to the program's, however many ops a run times
    latencies: array
    matrices: int  # matrices covered by the ops
    attempted: int  # checked results: density cells, or analyze ops
    failed: int
    failures: list[str]


@dataclass
class Measurement:
    """The metrics of one or more chunks taken together."""

    ops_per_s: float  # per second of op time
    matrices_per_s: float
    op_p50_s: float
    op_tail_s: float
    tail_percentile: int  # the percentile op_tail_s is
    op_count: int
    attempted: int
    failed: int
    failures: list[str]


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(samples: int) -> int:
    """p99, or with fewer than 1000 samples the highest percentile that has
    at least ten samples beyond it, and never below the median.  A density
    run holds fewer than 20 passes, so its tail is its median pass."""
    if samples >= 1000:
        return 99
    return max(50, 100 * (samples - 10) // samples)


def _record_failure(failures: list[str], message: str) -> None:
    if len(failures) < 5:
        failures.append(message)


def summarize(chunks: list[Chunk]) -> Measurement:
    latencies = [t for c in chunks for t in c.latencies]
    busy = sum(latencies)
    q = tail_percentile(len(latencies))
    return Measurement(
        ops_per_s=len(latencies) / busy,
        matrices_per_s=sum(c.matrices for c in chunks) / busy,
        op_p50_s=median(latencies),
        op_tail_s=_percentile(latencies, q),
        tail_percentile=q,
        op_count=len(latencies),
        attempted=sum(c.attempted for c in chunks),
        failed=sum(c.failed for c in chunks),
        failures=[f for c in chunks for f in c.failures][:5],
    )


# ---------------------------------------------------------------------------
# density workloads
# ---------------------------------------------------------------------------

class DensityWorkload:
    """The density table, enumerated serially in full passes.

    An op is one pass over the whole table, which is what a user of the
    table waits for.  Per-cell times are per-layer
    metrics of the traced run.  The seed only permutes the cell order.
    """

    def __init__(self, cells, seed: int):
        self.seed = seed
        self.cells = list(cells)
        random.Random(seed).shuffle(self.cells)
        self.pinned = load_pinned()
        self.matrices = sum(map(cell_size, self.cells))

    def warm_up(self) -> None:
        for cell in WARM_CELLS:
            row = enumerate_density(*cell, threads=1)
            err = check_density_row(self.pinned, cell, row)
            if err:
                raise RuntimeError(f"warm-up: {err}")

    def run(self, seconds: float, tracer) -> Chunk:
        passes = array("d")
        failed = 0
        failures: list[str] = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            op_id = len(passes) + 1
            rows = []
            sp = tracer.begin("op.density_pass", op_id)
            t0 = perf_counter()
            for cell in self.cells:
                c = tracer.begin("density.enumerate_density", op_id, sp)
                try:
                    rows.append(enumerate_density(*cell, threads=1))
                except Exception as exc:  # an op that raises counts as failed
                    rows.append(exc)
                tracer.end(c)
            passes.append(perf_counter() - t0)
            tracer.end(sp)
            errors = [
                f"cell {cell}: {row!r}" if isinstance(row, Exception) else check_density_row(self.pinned, cell, row)
                for cell, row in zip(self.cells, rows)
            ]
            for err in filter(None, errors):
                failed += 1
                _record_failure(failures, err)
        return Chunk(passes, self.matrices * len(passes), len(passes) * len(self.cells), failed, failures)

    def layer_inputs(self) -> list[tuple[IntMatrix, int]]:
        """Uniform residue matrices from this workload's cells, for the layer sweep."""
        rng = random.Random(self.seed)
        out = []
        for p, m, n in sorted(self.cells):
            q = p**m
            for _ in range(4):
                out.append((IntMatrix.from_rows([[rng.randrange(q) for _ in range(n)] for _ in range(n)]), p))
        return out


# ---------------------------------------------------------------------------
# analyze workloads: ops
# ---------------------------------------------------------------------------

def check_report_small(A: IntMatrix, p: int, rep) -> str | None:
    """Check an analyze report of a matrix with n <= 4 against the minor oracles."""
    dd = determinantal_divisors(A)
    f = char_poly_minor_oracle(A)
    r = len(dd)
    delta = tuple(val_p(d, p) for d in dd)
    fv = tuple(val_p(f.f(i), p) for i in range(1, r + 1))
    if rep.rank != r or rep.delta_vals != delta or rep.f_vals != fv:
        return f"analyze {A.rows} at p={p}: rank/delta/f valuations differ from the minor oracles"
    if rep.p_characterized != (fv == delta):
        return f"analyze {A.rows} at p={p}: characterized flag disagrees with the oracles"
    last = max((i for i in range(1, A.n + 1) if f.f(i)), default=0)
    # the Newton slopes, with multiplicity, sum to val_p of the last nonzero coefficient
    if rep.eig_vals.zero_count != A.n - last or (last and sum(rep.eig_vals.values) != val_p(f.f(last), p)):
        return f"analyze {A.rows} at p={p}: eigenvalue valuations disagree with the oracle charpoly"
    if rep.p_characterized and not rep.p_correspondent:
        return f"analyze {A.rows} at p={p}: characterized but not correspondent"
    return None


@dataclass
class AnalyzeOp:
    """parse_matrix on a wire text, then analyze."""

    kind: str
    text: str
    rows: tuple
    p: int
    profile: tuple[int, ...] | None = None  # known Smith profile of a sandwich

    def run(self, tracer, op_id: int):
        sp = tracer.begin("op.analyze", op_id)
        c = tracer.begin("exact.parse_matrix", op_id, sp)
        A = parse_matrix(self.text)
        tracer.end(c)
        c = tracer.begin("classify.analyze", op_id, sp)
        rep = analyze(A, self.p)
        tracer.end(c)
        tracer.end(sp)
        return (A, rep), 1

    def check(self, result) -> str | None:
        A, rep = result
        if A.rows != self.rows:
            return f"parse_matrix returned {A.rows}, expected {self.rows}"
        if A.n <= 4:
            return check_report_small(A, self.p, rep)
        if rep.p_characterized != (rep.f_vals == rep.delta_vals):
            return f"analyze at p={self.p}: characterized flag disagrees with the valuations"
        if self.profile is not None:
            if rep.profile != self.profile:
                return f"sandwich profile {rep.profile} != constructed {self.profile}"
            return None
        d = det(A)
        # f_n = (-1)^n det A, and the Smith exponents sum to val_p(det A)
        if d and (rep.rank != A.n or sum(rep.profile) != val_p(d, self.p) or rep.f_vals[-1] != val_p(d, self.p)):
            return f"analyze at p={self.p}: profile or f_n valuation disagrees with det"
        return None


@dataclass
class SampleOp:
    """sample_correspondent with a fixed seed."""

    A: IntMatrix
    p: int
    seed: int
    kind: str = "sample"

    def run(self, tracer, op_id: int):
        sp = tracer.begin("transform.sample_correspondent", op_id)
        sample = sample_correspondent(self.A, self.p, seed=self.seed)
        tracer.end(sp)
        return sample, sample.attempts

    def check(self, sample) -> str | None:
        p = self.p
        if det(sample.U) % p == 0 or det(sample.V) % p == 0:
            return f"sampler at p={p}: U or V is not a unit mod p"
        if sample.result != sample.U @ self.A @ sample.V:
            return f"sampler at p={p}: result is not U A V"
        dd = determinantal_divisors(sample.result)
        f = char_poly_minor_oracle(sample.result)
        if any(val_p(f.f(i), p) != val_p(d, p) for i, d in enumerate(dd, start=1)):
            return f"sampler at p={p}: result {sample.result.rows} is not p-characterized"
        return None


@dataclass
class RemOp:
    """verify_rem_stability at an m above val_p(det A)."""

    A: IntMatrix
    p: int
    m: int
    kind: str = "rem"

    def run(self, tracer, op_id: int):
        sp = tracer.begin("transform.verify_rem_stability", op_id)
        rep = verify_rem_stability(self.A, self.p, self.m)
        tracer.end(sp)
        return rep, 2

    def check(self, rep) -> str | None:
        dd = determinantal_divisors(self.A)
        delta = [val_p(d, self.p) for d in dd]
        profile = tuple(b - a for a, b in zip([0] + delta, delta))
        if not rep.ok or rep.profile != profile or rep.reduced_profile != profile:
            return f"rem stability of {self.A.rows} at p={self.p}, m={self.m} fails against the minor oracle"
        return None


# ---------------------------------------------------------------------------
# analyze workloads: inputs
# ---------------------------------------------------------------------------

def _wire(A: IntMatrix, as_json: bool) -> str:
    return json.dumps(A.to_json_obj()) if as_json else A.to_text()


def _random_matrix(rng: random.Random, n: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _unimodular(rng: random.Random, n: int) -> IntMatrix:
    """L U with unit triangular factors, so det = 1 over the integers."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(lower) @ IntMatrix.from_rows(upper)


def small_ops(seed: int, count: int):
    """The analyze-small op sequence: fixed slot pattern, seeded entries."""
    rng = random.Random(seed)
    ops = []
    seen = {"a": 0, "s": 0, "r": 0}
    for slot in range(count):
        kind = SMALL_PATTERN[slot % len(SMALL_PATTERN)]
        k = seen[kind[0]]
        seen[kind[0]] += 1
        p = BOX_PRIMES[(k // 2) % len(BOX_PRIMES)]
        if kind[0] == "a":
            n = int(kind[1])
            if k % 2 == 0:  # residue box [0, p^m)
                A = _random_matrix(rng, n, 0, p ** (1 + (k // 8) % 3) - 1)
            else:
                A = _random_matrix(rng, n, -100, 100)
            ops.append(AnalyzeOp(kind, _wire(A, k % 4 >= 2), A.rows, p))
        elif kind == "s":
            n = 2 + k % 3
            ops.append(SampleOp(_random_matrix(rng, n, -100, 100), SAMPLER_PRIME[n], rng.randrange(2**32)))
        else:
            n = 2 + k % 3
            while True:
                A = _random_matrix(rng, n, -100, 100)
                d = det(A)
                if d:
                    break
            ops.append(RemOp(A, p, val_p(d, p) + 1 + k % 2))
    return ops


def large_ops(seed: int, count: int):
    """n = 16 parse + analyze ops, random and sandwich families in a fixed pattern."""
    rng = random.Random(seed)
    ops = []
    for slot in range(count):
        kind = LARGE_PATTERN[slot % len(LARGE_PATTERN)]
        p = BOX_PRIMES[slot % len(BOX_PRIMES)]
        as_json = (slot // len(LARGE_PATTERN)) % 2 == 1
        if kind == "r":
            A = _random_matrix(rng, LARGE_N, -(2**31), 2**31 - 1)
            ops.append(AnalyzeOp("r", _wire(A, as_json), A.rows, p))
        else:
            # about a third of the sandwiches are singular
            rank = LARGE_N if slot % 3 else LARGE_N - 1 - rng.randrange(4)
            e = tuple(sorted(rng.choice((0, 0, 0, 0, 1, 1, 2, 3)) for _ in range(rank)))
            D = IntMatrix.diagonal([p**x for x in e] + [0] * (LARGE_N - rank))
            A = _unimodular(rng, LARGE_N) @ D @ _unimodular(rng, LARGE_N)
            ops.append(AnalyzeOp("s", _wire(A, as_json), A.rows, p, profile=e))
    return ops


class AnalyzeWorkload:
    """Per-matrix ops cycled from a seeded pool, timed one by one."""

    def __init__(self, ops, warm_ops: int, layer_inputs: int):
        self.ops = ops
        self.warm_ops = warm_ops
        self.layer_limit = layer_inputs

    def warm_up(self) -> None:
        tracer = NullTracer()
        for i, op in enumerate(self.ops[: self.warm_ops]):
            op.run(tracer, -1 - i)

    def run(self, seconds: float, tracer) -> Chunk:
        ops = self.ops
        first: dict[int, object] = {}
        latencies = array("d")
        failures: list[str] = []
        failed = matrices = 0
        i = 0
        deadline = perf_counter() + seconds
        while i == 0 or perf_counter() < deadline:
            idx = i % len(ops)
            i += 1
            op = ops[idx]
            t0 = perf_counter()
            try:
                result, covered = op.run(tracer, i)
            except Exception as exc:  # an op that raises counts as failed
                result, covered = exc, 0
            t1 = perf_counter()
            latencies.append(t1 - t0)
            matrices += covered
            if isinstance(result, Exception):
                failed += 1
                _record_failure(failures, f"op {idx} ({op.kind}): {result!r}")
            elif idx not in first:
                first[idx] = result
            elif first[idx] != result:
                failed += 1
                _record_failure(failures, f"op {idx} ({op.kind}): result differs from its first run")
        for idx, result in first.items():
            err = ops[idx].check(result)
            if err:
                failed += 1
                _record_failure(failures, f"op {idx}: {err}")
        return Chunk(latencies, matrices, len(latencies), failed, failures)

    def layer_inputs(self) -> list[tuple[IntMatrix, int]]:
        """The workload's own parse + analyze inputs, for the layer sweep."""
        out = [(IntMatrix.from_rows(op.rows), op.p) for op in self.ops if isinstance(op, AnalyzeOp)]
        return out[: self.layer_limit]


def make(name: str, seed: int):
    """Build a workload by name; generating its inputs is part of set-up."""
    if name == "density-table":
        return DensityWorkload(TABLE_CELLS, seed)
    if name == "analyze-small":
        return AnalyzeWorkload(small_ops(seed, SMALL_POOL), warm_ops=5 * len(SMALL_PATTERN), layer_inputs=48)
    raise ValueError(f"unknown workload {name!r}")
