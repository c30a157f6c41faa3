"""Batch-workload worker: one fresh process per benchmark run.

Runs a batch workload (``paper-sweep`` or ``scale``) through the
public API, ``repro.experiments.run_experiment``, and prints one JSON
object on its last stdout line.  ``run.py`` starts it and reads its
peak RSS from the kernel when it exits.

Every pass over the workload's runs starts from an empty
``build_trace`` cache, the way a fresh user process pays it.  A run's
set-up time is the host time from the ``run_experiment`` call to its
first entry into the engine (``Simulator.run``), noted by a one-shot
hook on that method.

* ``--setup-reps K``: K set-up passes, each run stopped at its first
  engine entry, so set-up is sampled more often than whole passes
  allow.
* then whole passes until ``--seconds`` have elapsed: at least one,
  and the last runs to its end.
* ``--trace 1``: four passes, untraced and under the layer tracer
  (``layers.py``) in turn, plus the tracer's report of its first pass;
  no set-up hook.

Every run reports its host and set-up time, simulated seconds, jobs,
events and summary digest; ``run.py`` checks the digests.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from reference import digest  # noqa: E402

from repro.experiments.runner import (default_config,  # noqa: E402
                                      run_experiment)
from repro.sim.engine import Simulator  # noqa: E402
from repro.workload.generator import clear_trace_cache  # noqa: E402
from repro.workload.programs import WorkloadGroup  # noqa: E402

G, V = "g-loadsharing", "v-reconfiguration"


@dataclass(frozen=True)
class Unit:
    """One experiment: a published trace under one policy."""

    group: WorkloadGroup
    index: int
    policy: str
    nodes: Optional[int] = None
    domains: int = 1

    @property
    def label(self) -> str:
        name = f"{self.group.value}-{self.index}"
        if self.nodes is not None:
            name += f"@{self.nodes}x{self.domains}"
        return f"{name}/{self.policy}"

    def config(self):
        if self.nodes is None:
            return None
        return default_config(self.group).replace(num_nodes=self.nodes,
                                                  domains=self.domains)


WORKLOADS: Dict[str, List[Unit]] = {
    # The paper's evaluation: ten traces x both policies, 32 nodes.
    "paper-sweep": [Unit(group, index, policy)
                    for group in (WorkloadGroup.APP, WorkloadGroup.SPEC)
                    for index in range(5, 0, -1) for policy in (G, V)],
    # Per-node daemon cost: flat 2048 nodes, then 10k nodes in 32
    # load-information domains.
    "scale": [Unit(WorkloadGroup.SPEC, 5, V, nodes=2048, domains=1),
              Unit(WorkloadGroup.SPEC, 5, V, nodes=10_000, domains=32)],
}


class SetupDone(Exception):
    """Ends a set-up-only run at its first engine entry."""


class EngineEntry:
    """Wraps ``Simulator.run`` to note the host time at which a run
    first enters the engine, the end of its set-up.  With ``stop``
    set, it raises ``SetupDone`` there instead of simulating."""

    def __init__(self):
        self.at: Optional[float] = None
        self.stop = False
        original = Simulator.run

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
                if self.stop:
                    raise SetupDone
            return original(sim, *args, **kwargs)

        Simulator.run = run


def run_pass(units: List[Unit], seed: int,
             entry: Optional[EngineEntry]) -> List[dict]:
    """Run the units in order, each once; host time covers the whole
    API call.  With ``entry.stop`` set, each run ends where its set-up
    does and only ``setup_s`` is reported."""
    clear_trace_cache()
    rows = []
    for unit in units:
        if entry is not None:
            entry.at = None
        start = time.perf_counter()
        try:
            result = run_experiment(unit.group, unit.index,
                                    policy=unit.policy, seed=seed,
                                    config=unit.config())
        except SetupDone:
            result = None
        host = time.perf_counter() - start
        row = {"unit": unit.label}
        if entry is not None:
            row["setup_s"] = entry.at - start
        if result is not None:
            row.update(host_s=host, sim_s=result.cluster.sim.now,
                       jobs=result.summary.num_jobs,
                       events=result.cluster.sim.event_count,
                       digest=digest(result.summary))
        rows.append(row)
        del result
        gc.collect()
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-reps", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = WORKLOADS[args.workload]
    out: dict = {"workload": args.workload, "seed": args.seed}

    if args.trace:
        from layers import LayerTracer

        # Untraced and traced passes alternate, so host-speed drift
        # does not masquerade as tracing overhead.  The layer report
        # covers the first traced pass only.
        passes = [run_pass(units, args.seed, None)]
        tracer = LayerTracer().install()
        passes.append(run_pass(units, args.seed, None))
        out.update(layers=tracer.report(), missing=tracer.missing)
        tracer.uninstall()
        passes.append(run_pass(units, args.seed, None))
        LayerTracer().install()
        passes.append(run_pass(units, args.seed, None))
        out["passes"] = passes
    else:
        entry = EngineEntry()
        entry.stop = True
        out["setup_passes"] = [run_pass(units, args.seed, entry)
                               for _ in range(args.setup_reps)]
        entry.stop = False
        # Whole passes until --seconds have elapsed; the last one runs
        # to its end.
        deadline = time.perf_counter() + args.seconds
        passes = [run_pass(units, args.seed, entry)]
        while time.perf_counter() < deadline:
            passes.append(run_pass(units, args.seed, entry))
        out["passes"] = passes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
