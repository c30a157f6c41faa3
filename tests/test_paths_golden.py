"""Golden pins for the scheduling hot path's state and selection layers.

Placement reads each node's published state from the columnar
:class:`~repro.cluster.state.ClusterState` and picks destinations from
the load directory's maintained candidate orders.  Each cell pins one
run's canonical :class:`RunSummary` and executed-event count to
``tests/golden/summaries_paths.json``.  The file was recorded while
the seed's per-object state walk and snapshot-sort selection still
existed and all three paths agreed on every cell, so a divergence
means a change to scheduling decisions, not just to their cost.

Cells: SPEC trace 3 at scale 0.1 under every policy (periodic load
exchange), the directory-driven policies in live mode (interval 0), a
96-node cluster, and a fixed (seed, nodes) grid at scale 0.05 with a
rotating policy.  This module runs the grid; the named cells run in
``test_indexed_equivalence.py`` (with the seed's from-scratch
selection attached as a live oracle) and in
``test_columnar_equivalence.py`` (with every state row checked against
the ``Workstation`` object API).  Regenerate after a deliberate
behavior change::

    PYTHONPATH=src python tests/golden/make_paths_golden.py
"""

import json
import os

import pytest

from repro.experiments.runner import default_config, run_experiment
from repro.workload.programs import WorkloadGroup

from test_determinism import canonical

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "summaries_paths.json")

#: Every policy the repo ships.
POLICIES = ["cpu", "memory", "g-loadsharing", "v-reconfiguration",
            "suspension"]


def _cells():
    cells = {}
    for policy in POLICIES:
        cells[f"periodic-{policy}"] = dict(policy=policy)
    for policy in ("g-loadsharing", "memory", "cpu"):
        cells[f"live-{policy}"] = dict(policy=policy, interval=0.0)
    cells["nodes96-memory"] = dict(policy="memory", nodes=96)
    grid = [(seed, nodes) for seed in (0, 2, 4, 6) for nodes in (4, 17, 48)]
    for i, (seed, nodes) in enumerate(grid):
        policy = POLICIES[i % len(POLICIES)]
        cells[f"grid-s{seed}-n{nodes}-{policy}"] = dict(
            policy=policy, seed=seed, nodes=nodes, scale=0.05)
    return cells


#: Cell name -> run parameters (see :func:`run_cell`).
CELLS = _cells()


def run_cell(policy, interval=None, seed=0, nodes=None, scale=0.1):
    """Run one cell; returns ``{"summary": ..., "event_count": ...}``."""
    cfg = default_config(WorkloadGroup.SPEC)
    if interval is not None:
        cfg = cfg.replace(load_exchange_interval_s=interval)
    result = run_experiment(WorkloadGroup.SPEC, 3, policy=policy,
                            seed=seed, scale=scale, config=cfg,
                            nodes=nodes)
    return {"summary": canonical(result.summary),
            "event_count": result.cluster.sim.event_count}


def load_golden():
    """Cell name -> ``{"summary": ..., "event_count": ...}``."""
    with open(GOLDEN_PATH) as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize(
    "cell", [name for name in sorted(CELLS) if name.startswith("grid-")])
def test_run_matches_paths_golden(cell, golden):
    assert run_cell(**CELLS[cell]) == golden[cell], \
        f"cell {cell} diverged from the recorded summary"
