#!/usr/bin/env python3
"""padicsmith benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload density-table --seed 1 --seconds 15 --trace 0

Run it from the root of a padicsmith checkout; it imports the package
from src/ there and refuses to run without it.  With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics (BENCHMARK.json names both sets).  The line before it is the
run's metadata.  Each run also writes its record to --out, and a traced
run writes its spans next to it; perfbench/compare.py compares two such
directories.

An untraced run cuts its timed loop into CHUNKS chunks and, after each,
times set-up once more in a fresh process (run.py --setup-only), so that
set-up is sampled across the run as the throughput is.  setup_s is the
median of these and the run's own set-up.
"""

from time import perf_counter

PROCESS_T0 = perf_counter()

import argparse  # noqa: E402  (set-up time counts from the line above)
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("density-table", "analyze-small")
CHUNKS = 8


def _setup_in_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, from its first line to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run([*cmd, "--seconds", "0", "--setup-only"], capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise RuntimeError(f"set-up in a child process failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def _end_to_end(meas, setup_times: list[float], peak_rss_mb: float) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "matrices_per_s": (meas.matrices_per_s, "1/s"),
        "ops_per_s": (meas.ops_per_s, "1/s"),
        "op_p50_ms": (meas.op_p50_s * 1e3, "ms"),
        "op_p99_ms": (meas.op_tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results", help="where run records go")
    ap.add_argument("--setup-only", action="store_true", help="print the set-up time in seconds and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "padicsmith" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/padicsmith; run from a padicsmith checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads

    workload = workloads.make(args.workload, args.seed)
    workload.warm_up()
    setup_s = perf_counter() - PROCESS_T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import padicsmith

    from perfbench.tracing import NullTracer, Tracer

    if args.trace:
        from perfbench import layers

        # untraced, traced, traced, untraced: a steady drift in machine
        # speed cancels out of the overhead.  Half of --seconds is enough
        # for that; the layer sweep takes another 15-35 s.
        tracer = Tracer()
        chunks = [workload.run(args.seconds / 8, t) for t in (NullTracer(), tracer, tracer, NullTracer())]
        plain = workloads.summarize([chunks[0], chunks[3]]).ops_per_s
        traced = workloads.summarize(chunks[1:3]).ops_per_s
        meas = workloads.summarize(chunks)
        sweep, checked, sweep_failures = layers.sweep(workload, args.seed, ROOT)
        op_count = meas.op_count
        attempted = meas.attempted + checked
        failed = meas.failed + len(sweep_failures)
        failures = meas.failures + sweep_failures
        metrics = dict(sweep)
        metrics["trace.overhead_pct"] = ((plain / traced - 1) * 100, "%")
        metrics["error_rate"] = (failed / attempted, "ratio")
        spans_path = args.out / f"spans.{args.workload}.seed{args.seed}.{os.getpid()}.jsonl"
        tracer.write(spans_path)
        record_extra = {"spans_file": str(spans_path), "span_summary": tracer.summary()}
    else:
        chunks, setup_times = [], [setup_s]
        for k in range(1, CHUNKS + 1):
            # A chunk runs at least one op.  Chunks share one deadline of op
            # time, so a density pass longer than a chunk does not stretch the
            # run: the chunks it overruns are skipped.
            left = k * args.seconds / CHUNKS - sum(sum(c.latencies) for c in chunks)
            if left > 0 or not chunks:
                chunks.append(workload.run(left, NullTracer()))
            setup_times.append(_setup_in_child(args.workload, args.seed))
        # Read before summarize() copies every op time into a list, so that
        # the peak is the program's and not the benchmark's bookkeeping.
        peak_rss_mb = _peak_rss_mb()
        meas = workloads.summarize(chunks)
        attempted, failed, failures = meas.attempted, meas.failed, meas.failures
        metrics = _end_to_end(meas, setup_times, peak_rss_mb)
        op_count = meas.op_count
        record_extra = {"op_tail_percentile": meas.tail_percentile, "setup_times_s": setup_times}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_count": op_count,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(ROOT),
        "package_version": padicsmith.__version__,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "failures": failures,
        **record_extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    record = args.out / f"{args.workload}.seed{args.seed}.trace{args.trace}.{os.getpid()}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    for message in failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "span_summary"}}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
