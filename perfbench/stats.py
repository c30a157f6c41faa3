"""Summarize benchmark runs across seeds.

    python3 perfbench/stats.py [.perfbench/results.jsonl] [--since T]

For every workload and metric recorded by ``run.py`` it prints the
number of runs, the median, the quartiles (``statistics.quantiles``
with n=4) and their spread, (q3 - q1) / median, next to a third of
the metric's bound from BENCHMARK.json, the target for a steady
benchmark.  Only untraced runs are summarized unless ``--trace`` is
given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("path", nargs="?",
                        default=os.path.join(ROOT, ".perfbench",
                                             "results.jsonl"))
    parser.add_argument("--since", type=float, default=0.0,
                        help="ignore runs recorded before this Unix time")
    parser.add_argument("--trace", action="store_true",
                        help="summarize traced runs instead")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    with open(args.path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if record["time"] < args.since \
                    or record["trace"] != int(args.trace):
                continue
            seeds[record["workload"]].append(record["seed"])
            for name, value in record["metrics"].items():
                values[record["workload"]][name].append(value)
    for workload, metrics in values.items():
        print(f"{workload}: {len(seeds[workload])} runs, "
              f"seeds {seeds[workload]}")
        for name, series in metrics.items():
            med = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            target = (f"  target < {bounds[name] / 3:.3f}"
                      if name in bounds else "")
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}{target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
