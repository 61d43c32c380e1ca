#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the run records perfbench/run.py writes (its --out).
For every workload and metric this prints each side's median and
quartiles, the ratio new/old of the medians and a verdict:

- unresolved: an end-to-end metric whose quartile spread, as a share of
  its median, exceeds its bound in BENCHMARK.json on either side;
- worse: the new median is worse than the old by more than the bound;
- ok: neither.

Per-layer metrics have no bound and get no verdict.  Each workload also
gets a line with both sides' failed and attempted ops, marked failed when
the new side failed more ops than the old.  The exit code is 1 when any
metric is worse or any workload failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> tuple[dict, dict]:
    """(workload, trace) -> metric -> values, one per run record; and
    (workload, trace) -> [failed, attempted], summed over the records."""
    metrics: dict = defaultdict(lambda: defaultdict(list))
    ops: dict = defaultdict(lambda: [0, 0])
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        meta, result = record["meta"], record["result"]
        key = meta["workload"], meta["trace"]
        for name, metric in result["metrics"].items():
            metrics[key][name].append(metric["value"])
        ops[key][0] += result["failed"]
        ops[key][1] += result["attempted"]
    return metrics, ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old: list[float], new: list[float], spec: dict) -> str:
    if "bound" not in spec:
        return ""
    bound = spec["bound"]
    for values in (old, new):
        q1, med, q3 = quartiles(values)
        if med and (q3 - q1) / abs(med) > bound:
            return "unresolved"
    old_med, new_med = statistics.median(old), statistics.median(new)
    change = (new_med - old_med) / old_med if old_med else 0.0
    worse = change > bound if spec["better"] == "lower" else change < -bound
    return "worse" if worse else "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    (old, old_ops), (new, new_ops) = load(args.old), load(args.new)
    worse = False
    print(f"{'workload':16} {'metric':44} {'old median [q1, q3]':>32} {'new median [q1, q3]':>32} {'new/old':>8}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, _ = key
        failed = new_ops[key][0] > old_ops[key][0]
        worse |= failed
        cells = [f"failed {f} of {a}" for f, a in (old_ops[key], new_ops[key])]
        print(f"{workload:16} {'(ops)':44} {cells[0]:>32} {cells[1]:>32} {'':8}  {'failed' if failed else 'ok'}")
        for name in sorted(set(old[key]) & set(new[key])):
            a, b = old[key][name], new[key][name]
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            old_med = statistics.median(a)
            ratio = statistics.median(b) / old_med if old_med else float("nan")
            v = verdict(a, b, specs.get(name, {}))
            worse |= v == "worse"
            print(f"{workload:16} {name:44} {cells[0]:>32} {cells[1]:>32} {ratio:8.3f}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
