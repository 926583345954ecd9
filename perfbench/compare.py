"""Compare two result sets of the lvf benchmark.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py`` (``results/*.jsonl``)
or directories holding them, e.g. the ``perfbench/results`` of a parent
checkout and of a change.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the share of
pairs NEW won (runs paired by seed when both sides ran the same seeds,
otherwise in order) and a verdict:

* ``unresolved`` -- a side's spread (quartile distance over median) is wider
  than the metric's bound, and not every NEW run beats every BASE run;
* ``better`` -- NEW won at least nine tenths of the pairs and the medians
  differ by more than BASE's quartile distance;
* ``worse`` -- NEW's median is worse than BASE's by more than the bound;
* ``within bound`` -- otherwise.

Results measured on different kernel backends are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list:
    """Untraced run records of a result file or directory."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace") == 0:
                    records.append(rec)
    return records


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list, new: list, metric: str) -> list:
    by_seed_b = {r["env"]["seed"]: r for r in base}
    by_seed_n = {r["env"]["seed"]: r for r in new}
    common = sorted(set(by_seed_b) & set(by_seed_n))
    if len(common) == min(len(base), len(new)):
        matched = [(by_seed_b[s], by_seed_n[s]) for s in common]
    else:
        matched = list(zip(base, new))
    return [(b["metrics"][metric]["value"], n["metrics"][metric]["value"]) for b, n in matched]


def verdict(base_v: list, new_v: list, paired: list, bound: float, lower_better: bool):
    sign = 1 if lower_better else -1
    qb, qn = quartiles(base_v), quartiles(new_v)
    spread = max((q[2] - q[0]) / q[1] for q in (qb, qn))
    wins = sum(1 for b, n in paired if sign * (b - n) > 0)
    won = wins / len(paired) if paired else 0.0
    all_better = all(sign * (b - n) > 0 for b in base_v for n in new_v)
    change = sign * (qn[1] - qb[1]) / qb[1]  # > 0 means worse
    if spread > bound and not all_better:
        label = "unresolved"
    elif won >= 0.9 and abs(qn[1] - qb[1]) > qb[2] - qb[0]:
        label = "better"
    elif change > bound:
        label = "worse"
    else:
        label = "within bound"
    return qb, qn, won, label


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two lvf benchmark result sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: a result set holds no untraced runs", file=sys.stderr)
        return 2
    backends = {r["env"]["kernel_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"compare: refusing results from different kernel backends {sorted(backends)}", file=sys.stderr)
        return 2

    groups = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for rec in records:
            groups[rec["workload"]][side].append(rec)
    for workload in sorted(groups):
        b_runs, n_runs = groups[workload]
        if not b_runs or not n_runs:
            print(f"{workload}: only one side has runs")
            continue
        print(f"{workload} ({len(b_runs)} base runs, {len(n_runs)} new runs)")
        for m in spec["end_to_end"]:
            name = m["name"]
            b_v = [r["metrics"][name]["value"] for r in b_runs]
            n_v = [r["metrics"][name]["value"] for r in n_runs]
            qb, qn, won, label = verdict(
                b_v, n_v, pairs(b_runs, n_runs, name), m["bound"], m["better"] == "lower"
            )
            print(
                f"  {name:12} base {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                f"new {qn[1]:.6g} [{qn[0]:.6g}, {qn[2]:.6g}] {m['unit']}  "
                f"pairs won {won:.0%}  {label}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
