"""Output check for the batch workloads: RunSummary digests.

A digest flattens one ``RunSummary`` into scalar fields.  Every field
is kept except the ``obs.*`` extras (observability gauges that depend
on host timing).  The per-job ``slowdowns`` list is reduced to its
length, sum, sum of squares, min, max and an order-weighted sum, so a
change to any single job's slowdown still shows.

``compare`` checks ints, bools and strings exactly and floats to a
relative 1e-9: that tolerance admits float-rounding changes in the
simulator's accumulators without editing the stored digests.

Stored digests live in ``reference/<workload>.json.gz``.  Regenerate
them (only when the simulated behaviour is meant to change) with::

    python3 perfbench/reference.py --write --seeds 0-31

which runs each batch workload once per seed in a fresh worker
process and records every run's digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import math
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REL_TOL = 1e-9
BATCH_WORKLOADS = ("paper-sweep", "scale")


def digest(summary) -> Dict[str, object]:
    """Flatten a ``RunSummary`` (or its ``asdict`` form) into scalars."""
    data = (summary if isinstance(summary, dict)
            else dataclasses.asdict(summary))
    out: Dict[str, object] = {}
    for key, value in data.items():
        if key == "extra":
            for name in sorted(value):
                if not name.startswith("obs."):
                    out[f"extra.{name}"] = value[name]
        elif key == "slowdowns":
            values = [float(v) for v in value]
            out["slowdowns.len"] = len(values)
            out["slowdowns.sum"] = math.fsum(values)
            out["slowdowns.sum_sq"] = math.fsum(v * v for v in values)
            out["slowdowns.min"] = min(values) if values else 0.0
            out["slowdowns.max"] = max(values) if values else 0.0
            out["slowdowns.weighted"] = math.fsum(
                (i + 1) * v for i, v in enumerate(values))
        elif key == "reservation_placements":
            for node in sorted(value, key=int):
                out[f"reservation_placements.{node}"] = value[node]
        else:
            out[key] = value
    return out


def _same(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool):
            return expected == actual
        if not isinstance(expected, (int, float)) \
                or not isinstance(actual, (int, float)):
            return False
        if expected == actual:
            return True
        scale = max(abs(expected), abs(actual))
        return abs(expected - actual) <= REL_TOL * scale
    return type(expected) is type(actual) and expected == actual


def compare(expected: Dict[str, object],
            actual: Dict[str, object]) -> List[str]:
    """Mismatched fields as ``field: expected X, got Y`` lines."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            problems.append(f"{key}: expected {expected[key]!r}, missing")
        elif key not in expected:
            problems.append(f"{key}: unexpected field = {actual[key]!r}")
        elif not _same(expected[key], actual[key]):
            problems.append(f"{key}: expected {expected[key]!r}, "
                            f"got {actual[key]!r}")
    return problems


def load(workload: str, seed: int) -> Optional[Dict[str, dict]]:
    """Stored digests of ``workload`` at ``seed``, keyed by run, or
    None when no reference was recorded for that seed."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as stream:
        stored = json.load(stream)
    return stored["seeds"].get(str(seed))


def _parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _generate(workload: str, seed: int) -> Dict[str, dict]:
    root = os.path.dirname(HERE)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         "--seed", str(seed), "--seconds", "0", "--setup-reps", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {row["unit"]: row["digest"] for row in result["passes"][0]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the stored digests")
    parser.add_argument("--seeds", default="0-31",
                        help="seed list such as 0-31 or 0,3,7")
    args = parser.parse_args(argv)
    if not args.write:
        parser.error("nothing to do without --write")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in BATCH_WORKLOADS:
        seeds = {}
        for seed in _parse_seeds(args.seeds):
            seeds[str(seed)] = _generate(workload, seed)
            print(f"{workload} seed {seed}: {len(seeds[str(seed)])} runs",
                  file=sys.stderr)
        path = os.path.join(REFERENCE_DIR, f"{workload}.json.gz")
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            json.dump({"format": 1, "rel_tol": REL_TOL, "seeds": seeds},
                      stream, sort_keys=True, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
