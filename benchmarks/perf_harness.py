"""Perf regression harness: time the quick-mode sweep and write
``BENCH_perf.json`` at the repo root.

The harness measures, on a fixed, seeded workload (timed gate legs
run best-of-:data:`BENCH_REPEATS` so a single noisy-neighbor sample
cannot trip the CI ratio gates):

* **single-run throughput** — events/sec of one quick-mode run
  (SPEC trace 3 under G-Loadsharing), the canonical hot-path figure;
* **serial sweep wall time** — the quick-mode figure-1-shaped sweep
  (traces 1/3/5 x both headline policies) executed with ``jobs=1``;
* **parallel sweep wall time** — the same sweep with ``--jobs``
  workers, verifying the summaries are identical to the serial ones
  before reporting the speedup;
* **cluster-size scaling** — SPEC trace 3 under the memory policy at
  32 and 256 nodes (the 256-node leg is gated in CI via
  ``--scale-fail-below-ratio``), and a 2048-node run demonstrating
  thousands-of-nodes scale;
* **domain sharding** — the 2048-node run repeated flat and with the
  load-info directory split into 16 domains (gated in CI via
  ``--domain-fail-below-ratio``), plus a 10 000-node 32-domain leg
  showing the two-level directory at a scale the flat path never
  reaches; each leg records its average slowdown so the throughput
  win is visible next to its scheduling-quality cost;
* **instrumentation overhead** — the single run repeated with a
  metrics-only obs session attached (see :mod:`repro.obs`), verifying
  the summaries are identical modulo the ``obs.*`` keys and reporting
  the obs-on/obs-off overhead factor (gated in CI via
  ``--max-obs-overhead-factor``);
* **lifecycle/sampler overhead** — the single run repeated with the
  full explain-a-run instrumentation (lifecycle tracker + 10 s
  cluster sampler), verifying the summary is unchanged modulo
  ``obs.*`` *and* the lifecycle partition invariant holds, reporting
  the overhead factor (gated under the same
  ``--max-obs-overhead-factor``);
* **fault-injection overhead** — the single run repeated with the
  failure model enabled (see :mod:`repro.faults`), verifying the
  fault schedule is deterministic (two runs, identical summaries) and
  reporting the faults-on/faults-off factor.  The faults-*off* run is
  the one the ``--fail-below-ratio`` gate reads, so the fault
  subsystem cannot mask a hot-path regression;
* **streaming ingest** — a live session (ephemeral HTTP port, paced
  engine) saturated with ``POST /submit`` job batches for a fixed
  wall window, reporting the sustained jobs/s the whole
  HTTP → validate → enqueue → slice-boundary-admit pipeline clears,
  plus the engine's max sim lag during the flood (gated in CI via
  ``--ingest-fail-below-ratio``).

``BENCH_perf.json`` records those numbers plus the environment
(cpu count, python version), giving every future PR a trajectory to
compare against.  ``baseline`` carries the pre-change numbers measured
on the same machine when this harness was introduced, so a regression
in single-run events/sec is visible without digging through history.
``--fail-below-ratio R`` additionally reads the *committed*
``BENCH_perf.json`` before overwriting it and exits non-zero if the
fresh single-run events/sec fall below ``R`` times the committed
figure — the CI perf-smoke gate.

Usage::

    python benchmarks/perf_harness.py                 # jobs=auto, quick scale
    python benchmarks/perf_harness.py --jobs 8
    python benchmarks/perf_harness.py --output /tmp/perf.json
    python benchmarks/perf_harness.py --fail-below-ratio 0.6
    make bench                                        # repo-root Makefile
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.experiments.parallel import (  # noqa: E402
    RunSpec,
    default_jobs,
    run_specs,
)
from repro.experiments.runner import default_config, run_experiment  # noqa: E402
from repro.workload.generator import build_trace, clear_trace_cache  # noqa: E402
from repro.workload.programs import WorkloadGroup  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_perf.json")

#: Quick-mode sweep shape: the light/normal/heavy SPEC traces under the
#: two headline policies, quarter-scale (matches benchmarks/conftest).
SWEEP_SCALE = 0.25
SWEEP_TRACES = (1, 3, 5)
SWEEP_POLICIES = ("g-loadsharing", "v-reconfiguration")

#: Pre-change numbers, measured on the machine that introduced this
#: harness (1 available core) immediately before the hot-path
#: optimization landed.  Regenerate when the harness shape changes.
BASELINE_PRE_CHANGE = {
    "single_run_events_per_s": 9996.0,
    "serial_sweep_wall_s": 9.75,
    "note": ("measured at commit preceding the parallel-sweep/hot-path "
             "PR, same machine, same sweep shape"),
}


#: Cluster sizes for the scaling leg.  The memory policy is used
#: because it scans the accepting-candidate order on every placement;
#: G-Loadsharing short-circuits to the home node on an underloaded
#: 256-node cluster, so it would not exercise the index at all.
SCALE_BENCH_NODES = (32, 256)
SCALE_BENCH_POLICY = "memory"
#: Large-cluster leg, demonstrating thousands-of-nodes scale.
SCALE_BENCH_HUGE_NODES = 2048

#: Gated timed legs run this many times and keep the fastest attempt:
#: on a 1-CPU CI runner a single sample measures the noisy neighbor,
#: not the code, and the ``--fail-below-ratio`` gates were flaky.
#: The 10k-node leg runs once — it is a demonstration, not a gate.
BENCH_REPEATS = 3

#: Domain-bench shape: the 2048-node columnar leg re-run flat and
#: with 16 domains (the CI-gated leg), plus a 10k-node 32-domain run
#: demonstrating the two-level directory at a scale the flat path is
#: never benchmarked at.
DOMAIN_BENCH_NODES = 2048
DOMAIN_BENCH_DOMAINS = 16
DOMAIN_BENCH_HUGE_NODES = 10000
DOMAIN_BENCH_HUGE_DOMAINS = 32

#: Ingest-bench shape: batches of short jobs POSTed back-to-back to a
#: live session's ``/submit`` for a fixed wall window.  The window is
#: fixed (rather than a fixed job count) so the figure is not
#: quantized by the 0.25 s slice-boundary admission cadence; the
#: feeder sends thousands of jobs, so one boundary either way is
#: noise.
INGEST_BENCH_WALL_S = 2.0
INGEST_BENCH_BATCH = 32
INGEST_BENCH_PACE = 5000.0
INGEST_BENCH_NODES = 32


def _cpu_env() -> dict:
    """CPU visibility at this instant, recorded per timed leg.

    CI runners can reshape the affinity mask between legs (cgroup
    throttling, noisy neighbors getting evicted); a single top-level
    snapshot silently misattributes such shifts to the code under
    test.
    """
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": (len(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
    }


def sweep_specs(scale: float = SWEEP_SCALE) -> List[RunSpec]:
    return [RunSpec(group=WorkloadGroup.SPEC, trace_index=index,
                    policy=policy, seed=0, scale=scale)
            for index in SWEEP_TRACES
            for policy in SWEEP_POLICIES]


def _best_of(repeats: int, attempt) -> dict:
    """Run ``attempt()`` ``repeats`` times, return the fastest (by
    events/s).  Every attempt snapshots its own env, so an affinity
    shift mid-leg stays visible in the kept sample."""
    best = None
    for _ in range(repeats):
        measured = attempt()
        if best is None or measured["events_per_s"] > best["events_per_s"]:
            best = measured
    best["repeats"] = repeats
    return best


def measure_single_run(scale: float = SWEEP_SCALE) -> dict:
    """Events/sec of one quick-mode run (trace generation excluded),
    best of :data:`BENCH_REPEATS` attempts."""
    clear_trace_cache()
    warm = run_experiment(WorkloadGroup.SPEC, 3, policy="g-loadsharing",
                          seed=0, scale=scale)  # warm the trace cache
    del warm

    def attempt() -> dict:
        started = time.perf_counter()
        result = run_experiment(WorkloadGroup.SPEC, 3,
                                policy="g-loadsharing", seed=0,
                                scale=scale)
        wall_s = time.perf_counter() - started
        events = result.cluster.sim.event_count
        return {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "env": _cpu_env(),
        }

    return _best_of(BENCH_REPEATS, attempt)


def measure_obs_bench(scale: float = SWEEP_SCALE) -> dict:
    """Instrumentation overhead: the single-run measurement repeated
    with a metrics-only ObsSession attached.

    Checks the determinism invariant (obs must not change scheduling:
    the instrumented summary equals the plain one once the ``obs.*``
    keys are stripped) and reports the overhead factor
    ``events_per_s(off) / events_per_s(on)``.
    """
    import dataclasses

    from repro.obs.session import EXTRA_PREFIX, ObsSession

    off = measure_single_run(scale)
    plain = run_experiment(WorkloadGroup.SPEC, 3, policy="g-loadsharing",
                           seed=0, scale=scale)

    def attempt() -> dict:
        obs = ObsSession(record_events=False, run_label="obs-bench")
        started = time.perf_counter()
        result = run_experiment(WorkloadGroup.SPEC, 3,
                                policy="g-loadsharing", seed=0,
                                scale=scale, obs=obs)
        wall_s = time.perf_counter() - started
        events = result.cluster.sim.event_count
        stripped = dataclasses.replace(
            result.summary,
            extra={key: value
                   for key, value in result.summary.extra.items()
                   if not key.startswith(EXTRA_PREFIX)})
        if stripped != plain.summary:
            raise AssertionError(
                "instrumented run produced a different summary — "
                "observability changed scheduling behavior")
        return {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "env": _cpu_env(),
        }

    on = _best_of(BENCH_REPEATS, attempt)
    factor = (off["events_per_s"] / on["events_per_s"]
              if on["events_per_s"] > 0 else 0.0)
    return {
        "obs_off": off,
        "obs_on": on,
        "overhead_factor": factor,
        "summaries_identical_modulo_obs": True,
    }


def measure_sampler_bench(scale: float = SWEEP_SCALE) -> dict:
    """Lifecycle/sampler overhead: the single-run measurement with the
    full explain-a-run instrumentation attached (a
    :class:`~repro.obs.lifecycle.JobLifecycleTracker` plus a 10 s
    :class:`~repro.obs.sampler.ClusterSampler`).

    Checks that the heavier instrumentation still does not change
    scheduling (summary identical modulo ``obs.*``) and that the
    lifecycle partition invariant holds (max residual at float noise),
    then reports the overhead factor — gated in CI alongside
    ``obs_bench`` via ``--max-obs-overhead-factor``.
    """
    import dataclasses

    from repro.obs.session import EXTRA_PREFIX, ObsSession

    off = measure_single_run(scale)
    plain = run_experiment(WorkloadGroup.SPEC, 3, policy="g-loadsharing",
                           seed=0, scale=scale)
    extras = {}

    def attempt() -> dict:
        obs = ObsSession(record_events=False, run_label="sampler-bench",
                         lifecycle=True, sample_period=10.0)
        started = time.perf_counter()
        result = run_experiment(WorkloadGroup.SPEC, 3,
                                policy="g-loadsharing", seed=0,
                                scale=scale, obs=obs)
        wall_s = time.perf_counter() - started
        events = result.cluster.sim.event_count
        stripped = dataclasses.replace(
            result.summary,
            extra={key: value
                   for key, value in result.summary.extra.items()
                   if not key.startswith(EXTRA_PREFIX)})
        if stripped != plain.summary:
            raise AssertionError(
                "lifecycle/sampler-instrumented run produced a different "
                "summary — the sampler perturbed scheduling")
        residual = result.summary.extra.get(
            "obs.lifecycle_residual_max_s", 0.0)
        if abs(residual) > 1e-6:
            raise AssertionError(
                f"lifecycle partition residual {residual!r} exceeds "
                f"1e-6 — span attribution no longer tiles job wall time")
        extras.update(
            residual=residual,
            samples=result.summary.extra.get("obs.sampler_samples", 0.0),
            lifecycle_jobs=result.summary.extra.get(
                "obs.lifecycle_jobs", 0.0))
        return {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "env": _cpu_env(),
        }

    on = _best_of(BENCH_REPEATS, attempt)
    factor = (off["events_per_s"] / on["events_per_s"]
              if on["events_per_s"] > 0 else 0.0)
    return {
        "sampler_off": off,
        "sampler_on": on,
        "overhead_factor": factor,
        "sample_period_s": 10.0,
        "samples": extras["samples"],
        "lifecycle_jobs": extras["lifecycle_jobs"],
        "partition_residual_max_s": extras["residual"],
        "summaries_identical_modulo_obs": True,
    }


def measure_profile_bench(scale: float = SWEEP_SCALE) -> dict:
    """Engine self-profiling overhead and coverage.

    The single-run measurement repeated with
    ``ObsSession(profile=True)``: phase timers wrapped around the
    engine's hot entry points (recompute, placement, reconfiguration,
    load-info ticks).  Checks that profiling does not change
    scheduling (summary identical modulo ``obs.*``) and that the
    exclusive phase times account for at least 90% of the engine wall
    time — the coverage floor that makes the breakdown trustworthy.
    Reports the overhead factor, gated in CI alongside ``obs_bench``
    via ``--max-obs-overhead-factor``.  Also reports
    ``named_coverage``: the exclusive time of the named phases, i.e.
    outside the catch-all ``other``, over engine wall time.  The 0.9
    check counts ``other`` and so holds by construction; this figure
    says how much of the engine is attributed to a layer.  It is
    reported, not gated.
    """
    from repro.obs.profile import OTHER_PHASE
    import dataclasses

    from repro.obs.session import EXTRA_PREFIX, ObsSession

    off = measure_single_run(scale)
    plain = run_experiment(WorkloadGroup.SPEC, 3, policy="g-loadsharing",
                           seed=0, scale=scale)
    extras = {}

    def attempt() -> dict:
        obs = ObsSession(record_events=False, run_label="profile-bench",
                         profile=True)
        started = time.perf_counter()
        result = run_experiment(WorkloadGroup.SPEC, 3,
                                policy="g-loadsharing", seed=0,
                                scale=scale, obs=obs)
        wall_s = time.perf_counter() - started
        events = result.cluster.sim.event_count
        stripped = dataclasses.replace(
            result.summary,
            extra={key: value
                   for key, value in result.summary.extra.items()
                   if not key.startswith(EXTRA_PREFIX)})
        if stripped != plain.summary:
            raise AssertionError(
                "self-profiled run produced a different summary — "
                "the phase timers perturbed scheduling")
        coverage = result.summary.extra.get("obs.profile_coverage", 0.0)
        if coverage < 0.9:
            raise AssertionError(
                f"profile coverage {coverage:.3f} is below 0.9 — the "
                f"phase timers no longer tile the engine wall time")
        extras.update(
            coverage=coverage,
            engine_wall_s=result.summary.extra.get(
                "obs.profile_engine_wall_s", 0.0),
            phases={key[len("obs.profile_"):-len("_wall_s")]:
                    value for key, value in result.summary.extra.items()
                    if key.startswith("obs.profile_")
                    and key.endswith("_wall_s")
                    and key != "obs.profile_engine_wall_s"})
        return {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "env": _cpu_env(),
        }

    on = _best_of(BENCH_REPEATS, attempt)
    factor = (off["events_per_s"] / on["events_per_s"]
              if on["events_per_s"] > 0 else 0.0)
    engine_wall_s = extras["engine_wall_s"]
    named_s = sum(seconds for phase, seconds in extras["phases"].items()
                  if phase != OTHER_PHASE)
    return {
        "profile_off": off,
        "profile_on": on,
        "overhead_factor": factor,
        "coverage": extras["coverage"],
        "named_coverage": (named_s / engine_wall_s
                           if engine_wall_s > 0 else 0.0),
        "engine_wall_s": engine_wall_s,
        "phase_wall_s": extras["phases"],
        "summaries_identical_modulo_obs": True,
    }


def measure_faults_bench(scale: float = SWEEP_SCALE) -> dict:
    """Fault-injection overhead and determinism.

    The single-run measurement repeated with the failure model on
    (node crashes every ~2000 s per node plus lossy load information
    and a migration failure rate — every fault branch is exercised).
    The run executes twice and the summaries must match exactly: the
    fault schedule derives from ``fault_seed`` alone.
    """
    from repro.faults.config import FaultConfig

    faults = FaultConfig(mtbf_s=2000.0, mttr_s=60.0, fault_seed=0,
                         loadinfo_drop_prob=0.05,
                         loadinfo_delay_prob=0.05,
                         migration_failure_prob=0.2)
    off = measure_single_run(scale)

    def timed() -> tuple:
        started = time.perf_counter()
        result = run_experiment(WorkloadGroup.SPEC, 3,
                                policy="g-loadsharing", seed=0,
                                scale=scale, faults=faults)
        wall_s = time.perf_counter() - started
        return result.summary, {
            "wall_s": wall_s,
            "events": result.cluster.sim.event_count,
            "events_per_s": (result.cluster.sim.event_count / wall_s
                             if wall_s > 0 else 0.0),
        }

    first_summary, first_on = timed()
    second_summary, second_on = timed()
    if first_summary != second_summary:
        raise AssertionError(
            "two faults-enabled runs produced different summaries — "
            "the fault schedule is not deterministic")
    # The determinism check already pays for two runs; keep the faster
    # one as the throughput sample (best-of-2).
    on = (first_on if first_on["events_per_s"]
          >= second_on["events_per_s"] else second_on)
    on["repeats"] = 2
    factor = (off["events_per_s"] / on["events_per_s"]
              if on["events_per_s"] > 0 else 0.0)
    return {
        "mtbf_s": faults.mtbf_s,
        "faults_off": off,
        "faults_on": on,
        "overhead_factor": factor,
        "crashes": first_summary.extra.get("fault.crashes", 0.0),
        "lost_jobs": first_summary.extra.get("fault.lost_jobs", 0.0),
        "deterministic": True,
    }


def measure_ingest_bench() -> dict:
    """Sustained streaming-ingest throughput (jobs/s *admitted*).

    A live session on an ephemeral port is held open by an ingest hold
    while the feeder POSTs batches of half-second jobs to ``/submit``
    as fast as the server answers, for :data:`INGEST_BENCH_WALL_S`
    wall seconds.  The clock stops only once the engine has admitted
    every posted job (queued-but-unadmitted work does not count), so
    the figure covers HTTP parsing, validation, queueing and the
    engine's slice-boundary admission — plus the simulation of the
    admitted jobs themselves, which is exactly the lag a live operator
    would feel.  The engine's max sim lag rides along: an ingest-path
    regression shows up either as fewer jobs/s or as the engine
    falling behind its pace.  Best of :data:`BENCH_REPEATS` attempts.
    """
    import threading
    import urllib.request

    from repro.cluster.cluster import Cluster
    from repro.experiments.runner import POLICIES
    from repro.metrics.collector import (MetricsCollector,
                                         PolicyPendingProbe)
    from repro.obs.session import ObsSession

    batch = [{"program": "ingest-bench", "lifetime_s": 0.5,
              "peak_demand_mb": 8.0,
              "home_node": k % INGEST_BENCH_NODES}
             for k in range(INGEST_BENCH_BATCH)]
    payload = json.dumps(batch).encode("utf-8")

    def attempt() -> dict:
        cluster = Cluster(default_config(WorkloadGroup.SPEC).replace(
            num_nodes=INGEST_BENCH_NODES))
        policy = POLICIES["g-loadsharing"](cluster)
        collector = MetricsCollector(
            cluster, pending_probe=PolicyPendingProbe(policy))
        obs = ObsSession(record_events=False, serve=0,
                         pace=INGEST_BENCH_PACE,
                         run_label="ingest-bench")
        obs.attach(cluster, policy=policy)
        obs.bind_run(collector=collector, jobs=[],
                     trace_name="ingest-bench")
        monitor = obs.live
        monitor.add_ingest_hold()
        engine = threading.Thread(
            target=lambda: obs.run_engine(cluster.sim),
            name="ingest-bench-engine")
        engine.start()
        url = f"{monitor.url}/submit"
        try:
            started = time.perf_counter()
            feed_until = started + INGEST_BENCH_WALL_S
            posts = 0
            while time.perf_counter() < feed_until:
                request = urllib.request.Request(url, data=payload,
                                                 method="POST")
                with urllib.request.urlopen(request, timeout=30) as resp:
                    resp.read()
                posts += 1
            sent = posts * INGEST_BENCH_BATCH
            drain_deadline = started + 10 * INGEST_BENCH_WALL_S
            while (monitor.jobs_admitted < sent
                   and time.perf_counter() < drain_deadline):
                time.sleep(0.005)
            wall_s = time.perf_counter() - started
        finally:
            monitor.release_ingest_hold()
            engine.join(timeout=120)
            obs.close()
        admitted = monitor.jobs_admitted
        if admitted < sent:
            raise AssertionError(
                f"ingest bench admitted only {admitted} of {sent} "
                f"posted jobs before the drain deadline")
        jobs_per_s = admitted / wall_s if wall_s > 0 else 0.0
        return {
            "wall_s": wall_s,
            "http_posts": posts,
            "admitted": admitted,
            "jobs_per_s": jobs_per_s,
            # _best_of selects on events_per_s; this leg's "event" is
            # one admitted job.
            "events_per_s": jobs_per_s,
            "sim_lag_max_s": monitor.sim_lag_max_s,
            "env": _cpu_env(),
        }

    best = _best_of(BENCH_REPEATS, attempt)
    best.update(
        feed_window_s=INGEST_BENCH_WALL_S,
        batch_size=INGEST_BENCH_BATCH,
        pace_sim_per_wall=INGEST_BENCH_PACE,
        nodes=INGEST_BENCH_NODES,
    )
    return best


def measure_sweep(jobs: int, scale: float = SWEEP_SCALE) -> dict:
    """Wall seconds for the quick-mode sweep at ``jobs`` workers."""
    specs = sweep_specs(scale)
    started = time.perf_counter()
    summaries = run_specs(specs, jobs=jobs)
    wall_s = time.perf_counter() - started
    return {"jobs": jobs, "wall_s": wall_s, "runs": len(summaries),
            "summaries": summaries, "env": _cpu_env()}


def _timed_run(config, scale: float,
               repeats: int = BENCH_REPEATS) -> dict:
    """Timed memory-policy run of SPEC trace 3 on ``config``, best of
    ``repeats`` attempts (pass 1 for one-shot demonstration legs).

    Trace generation is warmed (cached per topology) before the clock
    starts, so the measurement is simulation time only.
    """
    build_trace(WorkloadGroup.SPEC, 3, seed=0,
                num_nodes=config.num_nodes)

    def attempt() -> dict:
        started = time.perf_counter()
        result = run_experiment(WorkloadGroup.SPEC, 3,
                                policy=SCALE_BENCH_POLICY, seed=0,
                                scale=scale, config=config)
        wall_s = time.perf_counter() - started
        events = result.cluster.sim.event_count
        return {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "env": _cpu_env(),
            "summary": result.summary,
        }

    return _best_of(repeats, attempt)


def measure_scale_bench(scale: float = SWEEP_SCALE) -> dict:
    """Throughput as the cluster grows.

    Leg names keep their historical ``_indexed``/``_columnar``
    suffixes: the CI gate and the committed report look legs up by
    name.
    """
    runs = {}
    for nodes in SCALE_BENCH_NODES:
        cfg = default_config(WorkloadGroup.SPEC).replace(num_nodes=nodes)
        runs[f"nodes_{nodes}_indexed"] = _timed_run(cfg, scale)
    huge_cfg = default_config(WorkloadGroup.SPEC).replace(
        num_nodes=SCALE_BENCH_HUGE_NODES)
    runs[f"nodes_{SCALE_BENCH_HUGE_NODES}_columnar"] = _timed_run(
        huge_cfg, scale)
    for entry in runs.values():
        entry.pop("summary", None)  # not JSON-serializable
    return {
        "policy": SCALE_BENCH_POLICY,
        "scale": scale,
        "nodes": list(SCALE_BENCH_NODES) + [SCALE_BENCH_HUGE_NODES],
        "runs": runs,
    }


def measure_domain_bench(scale: float = SWEEP_SCALE) -> dict:
    """Throughput of the sharded (domained) load-info directory.

    Three legs: the 2048-node cluster flat (one global directory), the
    same cluster split into 16 domains (the CI-gated leg), and a
    10 000-node 32-domain run — a size the flat directory is never
    benchmarked at.  Flat and domained runs schedule against different
    views by design (two-level placement is an approximation), so no
    summary-identity assertion here; each leg records its average
    slowdown instead so a quality collapse is visible next to the
    throughput win.  The byte-identity contract for ``domains=1`` is
    pinned separately by ``tests/test_domain_equivalence.py``.
    """
    runs = {}
    slowdowns = {}

    def leg(name: str, nodes: int, domains: int, repeats: int) -> None:
        cfg = default_config(WorkloadGroup.SPEC).replace(
            num_nodes=nodes, domains=domains)
        entry = _timed_run(cfg, scale, repeats=repeats)
        slowdowns[name] = entry["summary"].average_slowdown
        runs[name] = entry

    leg(f"nodes_{DOMAIN_BENCH_NODES}_flat",
        DOMAIN_BENCH_NODES, 1, BENCH_REPEATS)
    leg(f"nodes_{DOMAIN_BENCH_NODES}_domains_{DOMAIN_BENCH_DOMAINS}",
        DOMAIN_BENCH_NODES, DOMAIN_BENCH_DOMAINS, BENCH_REPEATS)
    leg(f"nodes_{DOMAIN_BENCH_HUGE_NODES}_domains_"
        f"{DOMAIN_BENCH_HUGE_DOMAINS}",
        DOMAIN_BENCH_HUGE_NODES, DOMAIN_BENCH_HUGE_DOMAINS, 1)
    for name, entry in runs.items():
        entry.pop("summary", None)  # not JSON-serializable
        entry["avg_slowdown"] = slowdowns[name]
    flat_wall = runs[f"nodes_{DOMAIN_BENCH_NODES}_flat"]["wall_s"]
    domained_wall = runs[
        f"nodes_{DOMAIN_BENCH_NODES}_domains_"
        f"{DOMAIN_BENCH_DOMAINS}"]["wall_s"]
    return {
        "policy": SCALE_BENCH_POLICY,
        "scale": scale,
        "domains": DOMAIN_BENCH_DOMAINS,
        "huge_nodes": DOMAIN_BENCH_HUGE_NODES,
        "huge_domains": DOMAIN_BENCH_HUGE_DOMAINS,
        "runs": runs,
        "domain_speedup_at_%d_nodes" % DOMAIN_BENCH_NODES: (
            flat_wall / domained_wall if domained_wall > 0 else 0.0),
    }


def resolve_jobs(requested: int) -> dict:
    """Resolve ``--jobs`` against the CPU affinity mask.

    ``0`` means one worker per *available* core (the affinity mask, not
    the machine-wide count).  When only one core is available the
    parallel leg is pointless — it runs serially with a note instead of
    pretending fork overhead is a scheduling result.
    """
    effective = default_jobs() if requested == 0 else requested
    note = None
    if requested == 0 and effective == 1:
        note = ("single available core (affinity mask); parallel leg "
                "ran serially")
    return {"requested": requested, "effective": effective, "note": note}


def run_harness(jobs: int = 0, scale: float = SWEEP_SCALE,
                output: Optional[str] = DEFAULT_OUTPUT,
                scale_bench: bool = True,
                obs_bench: bool = True,
                sampler_bench: bool = True,
                faults_bench: bool = True,
                domain_bench: bool = True,
                profile_bench: bool = True,
                ingest_bench: bool = True) -> dict:
    """Measure, check determinism, and (optionally) write the report."""
    resolved = resolve_jobs(jobs)
    single = measure_single_run(scale)
    serial = measure_sweep(1, scale)
    parallel = measure_sweep(resolved["effective"], scale)
    if parallel["summaries"] != serial["summaries"]:
        raise AssertionError(
            "parallel sweep summaries differ from the serial ones — "
            "the determinism invariant is broken")
    speedup = (serial["wall_s"] / parallel["wall_s"]
               if parallel["wall_s"] > 0 else 0.0)
    report = {
        "harness": "benchmarks/perf_harness.py",
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "affinity_cpus": (len(os.sched_getaffinity(0))
                              if hasattr(os, "sched_getaffinity") else None),
        },
        "sweep": {
            "scale": scale,
            "traces": list(SWEEP_TRACES),
            "policies": list(SWEEP_POLICIES),
            "runs": serial["runs"],
        },
        "single_run": single,
        "serial_sweep_wall_s": serial["wall_s"],
        "parallel_sweep_wall_s": parallel["wall_s"],
        "requested_jobs": resolved["requested"],
        "parallel_jobs": resolved["effective"],
        "parallel_note": resolved["note"],
        "speedup": speedup,
        "deterministic": True,
        "baseline": BASELINE_PRE_CHANGE,
    }
    if scale_bench:
        report["scale_bench"] = measure_scale_bench(scale)
    if domain_bench:
        report["domain_bench"] = measure_domain_bench(scale)
    if obs_bench:
        report["obs_bench"] = measure_obs_bench(scale)
    if sampler_bench:
        report["sampler_bench"] = measure_sampler_bench(scale)
    if profile_bench:
        report["profile_bench"] = measure_profile_bench(scale)
    if faults_bench:
        report["faults_bench"] = measure_faults_bench(scale)
    if ingest_bench:
        report["ingest_bench"] = measure_ingest_bench()
    if output:
        with open(output, "w") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
    return report


def committed_events_per_s(path: str) -> Optional[float]:
    """Single-run events/sec from an existing report, if readable."""
    try:
        with open(path) as stream:
            prior = json.load(stream)
        return float(prior["single_run"]["events_per_s"])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None


def committed_scale_events_per_s(path: str,
                                 leg: str) -> Optional[float]:
    """Scale-bench events/sec of one leg from an existing report."""
    try:
        with open(path) as stream:
            prior = json.load(stream)
        return float(prior["scale_bench"]["runs"][leg]["events_per_s"])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None


def committed_domain_events_per_s(path: str,
                                  leg: str) -> Optional[float]:
    """Domain-bench events/sec of one leg from an existing report."""
    try:
        with open(path) as stream:
            prior = json.load(stream)
        return float(prior["domain_bench"]["runs"][leg]["events_per_s"])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None


def committed_ingest_jobs_per_s(path: str) -> Optional[float]:
    """Ingest-bench jobs/s from an existing report, if readable."""
    try:
        with open(path) as stream:
            prior = json.load(stream)
        return float(prior["ingest_bench"]["jobs_per_s"])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the quick-mode sweep and write BENCH_perf.json.")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the parallel leg "
                             "(default 0 = one per available core)")
    parser.add_argument("--scale", type=float, default=SWEEP_SCALE,
                        help="trace subsampling factor (default 0.25)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="report path (default: repo-root "
                             "BENCH_perf.json)")
    parser.add_argument("--no-scale-bench", action="store_true",
                        help="skip the 32/256-node scaling leg")
    parser.add_argument("--no-obs-bench", action="store_true",
                        help="skip the obs-off/obs-on overhead leg")
    parser.add_argument("--no-sampler-bench", action="store_true",
                        help="skip the lifecycle/sampler overhead leg")
    parser.add_argument("--no-profile-bench", action="store_true",
                        help="skip the engine self-profiling overhead "
                             "leg")
    parser.add_argument("--no-faults-bench", action="store_true",
                        help="skip the fault-injection overhead leg")
    parser.add_argument("--no-domain-bench", action="store_true",
                        help="skip the sharded-directory (domains) leg")
    parser.add_argument("--no-ingest-bench", action="store_true",
                        help="skip the streaming-ingest throughput leg")
    parser.add_argument("--fail-below-ratio", type=float, default=None,
                        metavar="R",
                        help="exit non-zero if fresh single-run events/s "
                             "is below R times the committed report's "
                             "figure (CI regression gate)")
    parser.add_argument("--scale-fail-below-ratio", type=float,
                        default=None, metavar="R",
                        help="exit non-zero if the fresh 256-node "
                             "scale-bench events/s is below R times the "
                             "committed report's figure for the same leg "
                             "(CI large-cluster regression gate)")
    parser.add_argument("--domain-fail-below-ratio", type=float,
                        default=None, metavar="R",
                        help="exit non-zero if the fresh 2048-node "
                             "16-domain bench events/s is below R times "
                             "the committed report's figure for the same "
                             "leg (CI sharded-directory regression gate)")
    parser.add_argument("--ingest-fail-below-ratio", type=float,
                        default=None, metavar="R",
                        help="exit non-zero if the fresh streaming-"
                             "ingest jobs/s is below R times the "
                             "committed report's figure (CI ingest "
                             "regression gate)")
    parser.add_argument("--max-obs-overhead-factor", type=float,
                        default=None, metavar="F",
                        help="exit non-zero if the obs-on run is more "
                             "than F times slower than obs-off (CI "
                             "instrumentation-overhead gate)")
    args = parser.parse_args(argv)
    if args.max_obs_overhead_factor is not None and args.no_obs_bench:
        parser.error("--max-obs-overhead-factor needs the obs bench; "
                     "drop --no-obs-bench")
    if args.scale_fail_below_ratio is not None and args.no_scale_bench:
        parser.error("--scale-fail-below-ratio needs the scale bench; "
                     "drop --no-scale-bench")
    if args.domain_fail_below_ratio is not None and args.no_domain_bench:
        parser.error("--domain-fail-below-ratio needs the domain bench; "
                     "drop --no-domain-bench")
    if args.ingest_fail_below_ratio is not None and args.no_ingest_bench:
        parser.error("--ingest-fail-below-ratio needs the ingest bench; "
                     "drop --no-ingest-bench")
    committed = (committed_events_per_s(args.output)
                 if args.fail_below_ratio is not None else None)
    scale_gate_leg = "nodes_%d_indexed" % SCALE_BENCH_NODES[-1]
    committed_scale = (
        committed_scale_events_per_s(args.output, scale_gate_leg)
        if args.scale_fail_below_ratio is not None else None)
    domain_gate_leg = ("nodes_%d_domains_%d"
                       % (DOMAIN_BENCH_NODES, DOMAIN_BENCH_DOMAINS))
    committed_domain = (
        committed_domain_events_per_s(args.output, domain_gate_leg)
        if args.domain_fail_below_ratio is not None else None)
    committed_ingest = (
        committed_ingest_jobs_per_s(args.output)
        if args.ingest_fail_below_ratio is not None else None)
    report = run_harness(jobs=args.jobs, scale=args.scale,
                         output=args.output,
                         scale_bench=not args.no_scale_bench,
                         obs_bench=not args.no_obs_bench,
                         sampler_bench=not args.no_sampler_bench,
                         faults_bench=not args.no_faults_bench,
                         domain_bench=not args.no_domain_bench,
                         profile_bench=not args.no_profile_bench,
                         ingest_bench=not args.no_ingest_bench)
    single = report["single_run"]
    print(f"single run : {single['events']} events in "
          f"{single['wall_s']:.2f}s = {single['events_per_s']:,.0f} ev/s")
    print(f"sweep      : serial {report['serial_sweep_wall_s']:.2f}s, "
          f"jobs={report['parallel_jobs']} "
          f"{report['parallel_sweep_wall_s']:.2f}s, "
          f"speedup {report['speedup']:.2f}x "
          f"(on {report['environment']['cpu_count']} cores)")
    if report["parallel_note"]:
        print(f"note       : {report['parallel_note']}")
    if "scale_bench" in report:
        bench = report["scale_bench"]
        for name, entry in bench["runs"].items():
            print(f"{name:22s}: {entry['events']} events in "
                  f"{entry['wall_s']:.2f}s = "
                  f"{entry['events_per_s']:,.0f} ev/s")
    if "domain_bench" in report:
        bench = report["domain_bench"]
        for name, entry in bench["runs"].items():
            print(f"{name:22s}: {entry['events']} events in "
                  f"{entry['wall_s']:.2f}s = "
                  f"{entry['events_per_s']:,.0f} ev/s "
                  f"(slowdown {entry['avg_slowdown']:.2f})")
        ratio = bench[f"domain_speedup_at_{DOMAIN_BENCH_NODES}_nodes"]
        print(f"domain speedup at {DOMAIN_BENCH_NODES} nodes "
              f"({DOMAIN_BENCH_DOMAINS} domains): {ratio:.2f}x")
    if "obs_bench" in report:
        bench = report["obs_bench"]
        print(f"obs        : off {bench['obs_off']['events_per_s']:,.0f} "
              f"ev/s, on {bench['obs_on']['events_per_s']:,.0f} ev/s, "
              f"overhead {bench['overhead_factor']:.2f}x "
              f"(identical summaries modulo obs.*)")
    if "sampler_bench" in report:
        bench = report["sampler_bench"]
        print(f"sampler    : off "
              f"{bench['sampler_off']['events_per_s']:,.0f} ev/s, on "
              f"{bench['sampler_on']['events_per_s']:,.0f} ev/s, "
              f"overhead {bench['overhead_factor']:.2f}x "
              f"({bench['samples']:.0f} samples, "
              f"{bench['lifecycle_jobs']:.0f} lifecycles, residual "
              f"{bench['partition_residual_max_s']:.1e}s)")
    if "profile_bench" in report:
        bench = report["profile_bench"]
        top = sorted(bench["phase_wall_s"].items(),
                     key=lambda item: -item[1])[:3]
        top_str = ", ".join(f"{phase} {seconds:.2f}s"
                            for phase, seconds in top)
        print(f"profile    : off "
              f"{bench['profile_off']['events_per_s']:,.0f} ev/s, on "
              f"{bench['profile_on']['events_per_s']:,.0f} ev/s, "
              f"named coverage {bench['named_coverage']:.2f}, "
              f"overhead {bench['overhead_factor']:.2f}x, coverage "
              f"{bench['coverage']:.1%} ({top_str})")
    if "faults_bench" in report:
        bench = report["faults_bench"]
        print(f"faults     : off "
              f"{bench['faults_off']['events_per_s']:,.0f} ev/s, on "
              f"{bench['faults_on']['events_per_s']:,.0f} ev/s, "
              f"overhead {bench['overhead_factor']:.2f}x "
              f"({bench['crashes']:.0f} crashes, "
              f"{bench['lost_jobs']:.0f} jobs lost, deterministic)")
    if "ingest_bench" in report:
        bench = report["ingest_bench"]
        print(f"ingest     : {bench['admitted']} jobs in "
              f"{bench['wall_s']:.2f}s = {bench['jobs_per_s']:,.0f} "
              f"jobs/s admitted over {bench['http_posts']} POSTs, "
              f"max sim lag {bench['sim_lag_max_s']:.3f}s")
    base = report["baseline"]
    print(f"baseline   : {base['single_run_events_per_s']:,.0f} ev/s, "
          f"serial sweep {base['serial_sweep_wall_s']:.2f}s (pre-change)")
    print(f"[wrote {args.output}]")
    if args.fail_below_ratio is not None:
        if committed is None:
            print("[no committed report to gate against; gate skipped]")
        else:
            floor = args.fail_below_ratio * committed
            fresh = single["events_per_s"]
            if fresh < floor:
                print(f"PERF REGRESSION: {fresh:,.0f} ev/s is below "
                      f"{args.fail_below_ratio:.0%} of the committed "
                      f"{committed:,.0f} ev/s", file=sys.stderr)
                return 1
            print(f"[perf gate ok: {fresh:,.0f} >= "
                  f"{args.fail_below_ratio:.0%} of {committed:,.0f} ev/s]")
    if args.scale_fail_below_ratio is not None:
        if committed_scale is None:
            print("[no committed scale-bench figure to gate against; "
                  "scale gate skipped]")
        else:
            floor = args.scale_fail_below_ratio * committed_scale
            fresh = report["scale_bench"]["runs"][scale_gate_leg][
                "events_per_s"]
            if fresh < floor:
                print(f"SCALE PERF REGRESSION ({scale_gate_leg}): "
                      f"{fresh:,.0f} ev/s is below "
                      f"{args.scale_fail_below_ratio:.0%} of the "
                      f"committed {committed_scale:,.0f} ev/s",
                      file=sys.stderr)
                return 1
            print(f"[scale gate ok: {scale_gate_leg} {fresh:,.0f} >= "
                  f"{args.scale_fail_below_ratio:.0%} of "
                  f"{committed_scale:,.0f} ev/s]")
    if args.domain_fail_below_ratio is not None:
        if committed_domain is None:
            print("[no committed domain-bench figure to gate against; "
                  "domain gate skipped]")
        else:
            floor = args.domain_fail_below_ratio * committed_domain
            fresh = report["domain_bench"]["runs"][domain_gate_leg][
                "events_per_s"]
            if fresh < floor:
                print(f"DOMAIN PERF REGRESSION ({domain_gate_leg}): "
                      f"{fresh:,.0f} ev/s is below "
                      f"{args.domain_fail_below_ratio:.0%} of the "
                      f"committed {committed_domain:,.0f} ev/s",
                      file=sys.stderr)
                return 1
            print(f"[domain gate ok: {domain_gate_leg} {fresh:,.0f} >= "
                  f"{args.domain_fail_below_ratio:.0%} of "
                  f"{committed_domain:,.0f} ev/s]")
    if args.ingest_fail_below_ratio is not None:
        if committed_ingest is None:
            print("[no committed ingest-bench figure to gate against; "
                  "ingest gate skipped]")
        else:
            floor = args.ingest_fail_below_ratio * committed_ingest
            fresh = report["ingest_bench"]["jobs_per_s"]
            if fresh < floor:
                print(f"INGEST PERF REGRESSION: {fresh:,.0f} jobs/s is "
                      f"below {args.ingest_fail_below_ratio:.0%} of the "
                      f"committed {committed_ingest:,.0f} jobs/s",
                      file=sys.stderr)
                return 1
            print(f"[ingest gate ok: {fresh:,.0f} >= "
                  f"{args.ingest_fail_below_ratio:.0%} of "
                  f"{committed_ingest:,.0f} jobs/s]")
    if args.max_obs_overhead_factor is not None:
        gated = [("obs", report["obs_bench"]["overhead_factor"])]
        if "sampler_bench" in report:
            gated.append(("sampler",
                          report["sampler_bench"]["overhead_factor"]))
        if "profile_bench" in report:
            gated.append(("profile",
                          report["profile_bench"]["overhead_factor"]))
        for leg, factor in gated:
            if factor > args.max_obs_overhead_factor:
                print(f"OBS OVERHEAD REGRESSION ({leg}): instrumented "
                      f"run is {factor:.2f}x slower than obs-off, above "
                      f"the {args.max_obs_overhead_factor:.2f}x gate",
                      file=sys.stderr)
                return 1
        summary = ", ".join(f"{leg} {factor:.2f}x"
                            for leg, factor in gated)
        print(f"[obs gate ok: {summary} <= "
              f"{args.max_obs_overhead_factor:.2f}x]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
