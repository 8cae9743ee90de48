#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 bench_e2e/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --json FILE` appends, one per run. For
every (workload, metric) found in both files it prints each side's
median, quartiles and run count, the change of the median, and a
verdict against the metric's bound in BENCHMARK.json:

  better        NEW wins at least 9 of 10 runs paired by seed, and the
                medians differ by more than BASE's quartile distance
  unresolved    either side's quartile distance, as a share of its
                median, is wider than the bound
  worse         NEW's median is worse than BASE's by more than the bound
  within bound  none of the above
  -             a per-layer metric: no bound, no verdict

Exits 1 when any row is worse, else 0.
"""

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): {seed: value}} from a run.py --json file."""
    runs = collections.defaultdict(dict)
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, m in record["result"]["metrics"].items():
                runs[(record["workload"], metric)][record["seed"]] = \
                    m["value"]
    return runs


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base, new, spec):
    """Verdict and signed change (positive = worse) of NEW against BASE."""
    (bm, bq1, bq3), (nm, nq1, nq3) = summary(list(base.values())), \
        summary(list(new.values()))
    sign = 1 if spec.get("better", "lower") == "lower" else -1
    change = sign * (nm - bm) / bm if bm else 0.0
    if "bound" not in spec:
        return "-", change
    pairs = [s for s in base if s in new]
    wins = sum(sign * (new[s] - base[s]) < 0 for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and change < 0 and \
            abs(nm - bm) > bq3 - bq1:
        return "better", change
    spread = max((bq3 - bq1) / bm if bm else 0.0,
                 (nq3 - nq1) / nm if nm else 0.0)
    if spread > spec["bound"]:
        return "unresolved", change
    if change > spec["bound"]:
        return "worse", change
    return "within bound", change


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of bench_e2e runs.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    order = [w["name"] for w in spec["workloads"]]

    def fmt(values):
        m, q1, q3 = summary(list(values.values()))
        return f"{m:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    worse = 0
    print(f"{'workload':12} {'metric':32} {'unit':6} {'base':40} "
          f"{'new':40} {'change':>8}  verdict")
    keys = sorted(set(base) & set(new),
                  key=lambda k: (order.index(k[0]) if k[0] in order else 99,
                                 list(metrics).index(k[1])
                                 if k[1] in metrics else 999, k[1]))
    for workload, metric in keys:
        m = metrics.get(metric, {"unit": "?"})
        v, change = verdict(base[(workload, metric)], new[(workload, metric)],
                            m)
        worse += v == "worse"
        print(f"{workload:12} {metric:32} {m['unit']:6} "
              f"{fmt(base[(workload, metric)]):40} "
              f"{fmt(new[(workload, metric)]):40} {100 * change:+7.2f}%  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
