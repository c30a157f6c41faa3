"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-sweep --seed 0 \\
        --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

* ``paper-sweep`` -- the paper's ten traces under G-Loadsharing and
  V-Reconfiguration on 32 nodes, serially in one worker process;
* ``scale`` -- SPEC trace 5 under V-Reconfiguration on 2048 nodes and
  on 10,000 nodes in 32 domains;
* ``service`` -- one served run of the runner CLI, driven over HTTP by
  an open-loop client (``service.py``);
* ``all`` -- each of the above in turn.

``--trace 0`` measures and prints the end-to-end metrics.  ``--trace 1``
runs the workload once untraced and once under the layer tracer
(``layers.py``), checks that both give the same results, and prints
the per-layer metrics.  Every run's raw samples, medians, quartiles
and host environment are appended to ``.perfbench/results.jsonl``;
``stats.py`` summarizes them across runs.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A wrong output is printed field by field and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("paper-sweep", "scale", "service")
#: Worker time allowed beyond ``--seconds``: set-up passes, the pass
#: still running at the deadline, and the four passes of a traced run.
WORKER_MARGIN_S = 140.0

sys.path.insert(0, HERE)
import layers  # noqa: E402
import reference  # noqa: E402
import service  # noqa: E402


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _environment() -> Dict[str, object]:
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 \
                and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": commit}


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def _run_worker(workload: str, seed: int, seconds: float,
                trace: bool) -> Tuple[dict, float]:
    """Run ``worker.py`` in a fresh process; returns its JSON output
    and its peak RSS in MB."""
    out_path = os.path.join(WORKDIR, "worker.out")
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(command, cwd=ROOT, stdout=out)
    timeout = seconds + WORKER_MARGIN_S
    deadline = time.perf_counter() + timeout
    while True:
        # wait4, not Popen.wait: it also returns the child's rusage.
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {timeout:.0f}s")
        time.sleep(0.01)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    with open(out_path, encoding="utf-8") as stream:
        result = json.loads(stream.read().strip().splitlines()[-1])
    return result, usage.ru_maxrss / 1024.0


def _check_batch(workload: str, seed: int, passes: List[List[dict]],
                 notes: List[str]) -> Tuple[int, int, List[str]]:
    """Check every run's digest against the stored reference for this
    seed, or, without one, against the first pass.  Returns
    (attempted, failed, mismatch lines)."""
    expected = reference.load(workload, seed)
    if expected is None:
        notes.append(f"reference check unavailable for seed {seed} "
                     f"(stored seeds: see perfbench/reference); runs are "
                     f"checked against the first pass only")
        expected = {row["unit"]: row["digest"] for row in passes[0]}
    attempted = failed = 0
    lines: List[str] = []
    for number, rows in enumerate(passes, 1):
        for row in rows:
            attempted += 1
            want = expected.get(row["unit"])
            problems = (["no reference for this run"] if want is None
                        else reference.compare(want, row["digest"]))
            if problems:
                failed += 1
                lines += [f"pass {number} {row['unit']}: {p}"
                          for p in problems]
    return attempted, failed, lines


def _batch_metrics(result: dict, rss_mb: float
                   ) -> Tuple[Dict[str, float], dict]:
    """End-to-end metrics of a batch run (see README.md)."""
    passes = result["passes"]
    units = [row["unit"] for row in passes[0]]
    host: Dict[str, List[float]] = {unit: [] for unit in units}
    for rows in passes:
        for row in rows:
            host[row["unit"]].append(row["host_s"])
    # A batch request is one whole pass: the paper's sweep, or the
    # scale pair.  A pass sums many runs and traces, so its time is not
    # one trace's draw (APP-5 under V, the slowest run, takes 11-18 %
    # of a pass depending on the seed).  The what-if question is the
    # pass's V-Reconfiguration runs.
    pass_ms = [sum(r["host_s"] for r in rows) * 1e3 for rows in passes]
    what_if_s = [sum(r["host_s"] for r in rows
                     if r["unit"].endswith("/v-reconfiguration"))
                 for rows in passes]
    # Throughput and the what-if are taken from the slowest pass: the
    # rate a sweep sustains.  The shared host runs at a contended level
    # with bursts up to a third faster; a median over a few passes lands
    # on either, the slowest pass on the contended level.
    slowest_s = max(pass_ms) / 1e3
    # Set-up of every pass, set-up-only or simulated.
    setup = [sum(row["setup_s"] for row in rows)
             for rows in result["setup_passes"] + passes]
    metrics = {
        "sim_s_per_wall_s": sum(r["sim_s"] for r in passes[0]) / slowest_s,
        "jobs_per_s": sum(r["jobs"] for r in passes[0]) / slowest_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "submit_p50_ms": statistics.median(pass_ms),
        "submit_p99_ms": service.percentile(pass_ms, 99),
        "fork_s": max(what_if_s),
    }
    samples = {"setup_s": setup, "pass_host_ms": pass_ms,
               "what_if_host_s": what_if_s, "run_host_s": host}
    return metrics, samples


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              notes: List[str]) -> dict:
    result, rss_mb = _run_worker(workload, seed, seconds, trace)
    passes = result["passes"]
    attempted, failed, lines = _check_batch(workload, seed, passes, notes)
    if trace:
        # Passes alternate untraced, traced, untraced, traced.
        untraced, traced = passes[0::2], passes[1::2]
        for plain_rows, traced_rows in zip(untraced, traced):
            for a, b in zip(plain_rows, traced_rows):
                for problem in reference.compare(a["digest"], b["digest"]):
                    lines.append(f"traced {a['unit']} differs: {problem}")
                    failed += 1
        if result["missing"]:
            notes.append("entry points not found: "
                         + ", ".join(result["missing"]))
        host_untraced = [sum(r["host_s"] for r in rows) for rows in untraced]
        host_traced = [sum(r["host_s"] for r in rows) for rows in traced]
        metrics = dict(result["layers"])
        metrics["sim.host_us_per_event"] = (
            host_untraced[0] / sum(r["events"] for r in untraced[0]) * 1e6)
        metrics["trace.overhead"] = sum(host_traced) / sum(host_untraced)
        metrics["live.sim_lag_max_s"] = 0.0
        metrics["client.late_max_ms"] = 0.0
        samples = {"untraced_pass_host_s": host_untraced,
                   "traced_pass_host_s": host_traced}
    else:
        metrics, samples = _batch_metrics(result, rss_mb)
        runs = sum(len(rows) for rows in passes)
        notes.append(f"{runs} runs in {len(passes)} passes of "
                     f"{len(passes[0])}; submit_p* and fork_s are "
                     f"whole-pass host latencies here")
    return {"metrics": metrics, "samples": samples, "attempted": attempted,
            "failed": failed, "mismatches": lines}


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def run_service(seed: int, seconds: float, trace: bool,
                notes: List[str]) -> dict:
    pool = service.trace_specs(ROOT, seed)
    if trace:
        report_path = os.path.join(WORKDIR, "layers.json")
        plain = service.run(ROOT, WORKDIR, seed, seconds, pool)
        traced = service.run(ROOT, WORKDIR, seed, seconds, pool,
                             report_out=report_path)
        with open(report_path, encoding="utf-8") as stream:
            report = json.load(stream)
        if report["missing"]:
            notes.append("entry points not found: "
                         + ", ".join(report["missing"]))
        metrics = dict(report["layers"])
        metrics["sim.host_us_per_event"] = (plain["cpu_s"] / plain["events"]
                                            * 1e6)
        # The served run is paced, so its wall time is fixed; the
        # server's CPU time is what tracing adds to.
        metrics["trace.overhead"] = traced["cpu_s"] / plain["cpu_s"]
        metrics["live.sim_lag_max_s"] = traced["sim_lag_max_s"]
        metrics["client.late_max_ms"] = traced["late_max_ms"]
        runs = [plain, traced]
        samples = {"cpu_s": [plain["cpu_s"], traced["cpu_s"]]}
    else:
        setups = [service.probe_setup(ROOT, WORKDIR, seed)
                  for _ in range(service.SETUP_PROBES)]
        run = service.run(ROOT, WORKDIR, seed, seconds, pool)
        setups.append(run["setup_s"])
        latencies = run["submit_ms"]
        metrics = {
            "sim_s_per_wall_s": run["loop_sim_s"] / run["loop_s"],
            "jobs_per_s": run["loop_jobs"] / run["loop_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "submit_p50_ms": statistics.median(latencies),
            "submit_p99_ms": service.percentile(latencies, 99),
            "fork_s": statistics.median(run["fork_s"]),
        }
        beyond = sum(v > metrics["submit_p99_ms"] for v in latencies)
        notes.append(f"{len(latencies)} submits ({beyond} beyond p99), "
                     f"{len(run['checkpoint_ms'])} checkpoints, "
                     f"{len(run['fork_s'])} forks, "
                     f"generator late by up to {run['late_max_ms']:.1f} ms")
        runs = [run]
        samples = {"setup_s": setups, "submit_ms": latencies,
                   "fork_s": run["fork_s"],
                   "checkpoint_ms": run["checkpoint_ms"],
                   "checkpoint_bytes": run["checkpoint_bytes"]}
    lines = [p for r in runs for p in r["problems"]]
    return {"metrics": metrics, "samples": samples,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "mismatches": lines}


# ----------------------------------------------------------------------
def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them: the
    per-layer metrics for a traced run, else the end-to-end ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in declared[key]}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    notes: List[str] = []
    if workload == "service":
        outcome = run_service(seed, seconds, trace, notes)
    else:
        outcome = run_batch(workload, seed, seconds, trace, notes)
    units = declared_metrics(trace)
    unmeasured = sorted(set(units) - set(outcome["metrics"]))
    if unmeasured:
        raise RuntimeError("BENCHMARK.json declares metrics this "
                           "benchmark does not measure: "
                           + ", ".join(unmeasured))
    for line in notes:
        print(f"[{workload}] note: {line}")
    for line in outcome["mismatches"]:
        print(f"[{workload}] MISMATCH {line}")
    for name, unit in units.items():
        print(f"[{workload}] {name} = {outcome['metrics'][name]:.6g} {unit}")
    share = outcome["failed"] / outcome["attempted"]
    print(f"[{workload}] failed_share = {share:.6g} "
          f"({outcome['failed']} of {outcome['attempted']} operations)")
    summaries = {}
    for name, values in outcome["samples"].items():
        if isinstance(values, list) and len(values) > 0:
            q1, med, q3 = quartiles([float(v) for v in values])
            summaries[name] = {"n": len(values), "q1": q1, "median": med,
                               "q3": q3}
    record = {"time": time.time(), "workload": workload, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "environment": _environment(),
              "metrics": outcome["metrics"], "samples": outcome["samples"],
              "sample_quartiles": summaries, "failed_share": share,
              "attempted": outcome["attempted"],
              "failed": outcome["failed"], "mismatches": outcome["mismatches"]}
    if trace:
        record["moves"] = layers.MOVES
    with open(os.path.join(WORKDIR, "results.jsonl"), "a",
              encoding="utf-8") as stream:
        stream.write(json.dumps(record) + "\n")
    return {"correct": outcome["failed"] == 0 and not outcome["mismatches"],
            "attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": {name: {"value": outcome["metrics"][name],
                               "unit": unit}
                        for name, unit in units.items()}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": value
                             for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
