"""The columnar state layer against the node objects — pinned here.

Every per-node hot quantity lives in a contiguous column of
:class:`~repro.cluster.state.ClusterState`; the metrics collector, obs
sampler, load directory and cluster-wide queries read those columns.
The seed read the same quantities through each ``Workstation``'s
properties.  Each cell below runs with that per-object reading
attached as a live oracle — after every node change notification the
node's state row must equal its object API, and so must every row at
the end of the run — and must reproduce the summary and event count
recorded in ``tests/golden/summaries_paths.json`` while the seed's
per-object path still ran and agreed.  Any divergence means the
columns changed scheduling decisions, not just their cost.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

import repro.experiments.runner as runner
from repro.cluster.cluster import Cluster
from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED, FLAG_THRASHING
from repro.experiments.runner import run_experiment
from repro.obs.sampler import SAMPLE_FIELDS, ClusterSampler
from repro.obs.session import ObsSession
from repro.sim.checkpoint import restore_bytes, snapshot_bytes
from repro.workload.programs import WorkloadGroup

from helpers import object_row, state_row
from test_paths_golden import CELLS, load_golden, run_cell

#: Every policy the repo ships — all must be columnar-agnostic.
POLICIES = ["cpu", "memory", "g-loadsharing", "v-reconfiguration",
            "suspension"]


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture
def built_clusters(monkeypatch):
    """Build every run's cluster with a per-node change listener that
    checks the node's state row against its object API; returns the
    clusters built and the number of rows checked."""
    built = []
    checks = Counter()

    def build(config):
        cluster = Cluster(config)
        state = cluster.state

        def check(node):
            assert state_row(state, node.node_id) == object_row(node), \
                f"node {node.node_id} row is stale at t={cluster.sim.now}"
            checks["rows"] += 1

        for node in cluster.nodes:
            node.add_change_listener(check)
        built.append(cluster)
        return cluster

    monkeypatch.setattr(runner, "Cluster", build)
    return built, checks


def assert_cell_matches(cell, golden, built_clusters):
    built, checks = built_clusters
    assert run_cell(**CELLS[cell]) == golden[cell], \
        f"cell {cell} diverged from the recorded summary"
    (cluster,) = built
    assert checks["rows"] > 0
    for node in cluster.nodes:
        assert state_row(cluster.state, node.node_id) == object_row(node)


@pytest.mark.parametrize("policy", POLICIES)
def test_columnar_matches_legacy_periodic(policy, golden, built_clusters):
    assert_cell_matches(f"periodic-{policy}", golden, built_clusters)


@pytest.mark.parametrize("policy", ["g-loadsharing", "memory", "cpu"])
def test_columnar_matches_legacy_live(policy, golden, built_clusters):
    """Live mode (interval 0) reads the columns per query instead of
    per exchange round — still the object API's values."""
    assert_cell_matches(f"live-{policy}", golden, built_clusters)


def test_larger_cluster_equivalence(golden, built_clusters):
    """The 256-node scale bench is valid only if the columns hold the
    object API's values beyond the default topology too (smaller
    stand-in keeps the test suite fast)."""
    assert_cell_matches("nodes96-memory", golden, built_clusters)


# ----------------------------------------------------------------------
# obs sampler reads columns, not node objects
# ----------------------------------------------------------------------
class _TrapNode:
    """Stand-in node that fails the test on any attribute access."""

    def __getattr__(self, name):
        raise AssertionError(
            f"sampler touched node attribute {name!r}; the sample "
            f"path must read ClusterState columns only")


def test_sampler_columnar_path_reads_no_node_attributes():
    """``ClusterSampler.sample`` must complete without a single
    per-node Python attribute access."""
    result = run_experiment(WorkloadGroup.SPEC, 3, policy="memory",
                            seed=0, scale=0.1)
    cluster = result.cluster
    sampler = ClusterSampler(cluster, period_s=10.0)
    cluster.nodes = [_TrapNode() for _ in range(cluster.num_nodes)]
    sampler.sample()
    assert sampler.num_samples == 1
    assert len(sampler.series["running"]) == cluster.num_nodes


def test_sampler_rows_identical_across_modes(monkeypatch):
    """The column copy appends exactly the rows the seed's per-object
    sample path built from node properties: the float columns hold the
    property values bit-for-bit and the flag packing matches."""
    times, series, flags = [], {name: [] for name in SAMPLE_FIELDS}, []
    sample = ClusterSampler.sample

    def sample_both_ways(self):
        times.append(self.cluster.sim.now)
        for node in self.cluster.nodes:
            series["running"].append(float(node.num_running))
            series["demand_mb"].append(node.total_demand_mb)
            series["idle_mb"].append(node.idle_memory_mb)
            series["fault_rate_per_s"].append(node.fault_rate_per_s)
            flags.append((FLAG_ALIVE if node.alive else 0)
                         | (FLAG_RESERVED if node.reserved else 0)
                         | (FLAG_THRASHING if node.thrashing else 0))
        sample(self)

    monkeypatch.setattr(ClusterSampler, "sample", sample_both_ways)
    obs = ObsSession(record_events=False, sample_period=10.0)
    run_experiment(WorkloadGroup.SPEC, 3, policy="memory", seed=0,
                   scale=0.1, obs=obs)
    sampler = obs.sampler
    assert sampler.num_samples == len(times) > 1
    assert list(sampler.times) == times
    assert {name: list(values)
            for name, values in sampler.series.items()} == series
    assert list(sampler.flags) == flags


# ----------------------------------------------------------------------
# recompute-skip accounting
# ----------------------------------------------------------------------
def test_recompute_counters_surface_in_obs_snapshot():
    """The recompute/skip split of every node surfaces in the obs
    snapshot as cluster-wide totals."""
    obs = ObsSession(record_events=False)
    result = run_experiment(WorkloadGroup.SPEC, 3, policy="memory",
                            seed=0, scale=0.1, obs=obs)
    snapshot = obs.finalize()
    nodes = result.cluster.nodes
    assert snapshot["workstation_recomputes"] == sum(
        node.recomputes for node in nodes) > 0
    assert snapshot["workstation_recompute_skips"] == sum(
        node.recompute_skips for node in nodes)


@pytest.mark.parametrize("restored", [False, True])
def test_recompute_short_circuits_on_identical_inputs(restored):
    """A recompute whose inputs (liveness, demand vector, dedicated
    flags) match the previous one is skipped — also on a node restored
    from a checkpoint, whose skip key must survive the round trip; the
    skip still notifies listeners, so downstream consumers (directory,
    collector dirty flag) behave exactly as before."""
    from repro.cluster.config import ClusterConfig, WorkstationSpec
    from repro.cluster.job import Job, MemoryProfile

    cfg = ClusterConfig(num_nodes=1,
                        spec=WorkstationSpec(memory_mb=384.0,
                                             swap_mb=384.0),
                        kernel_reserved_mb=0.0)
    cluster = Cluster(cfg)
    node = cluster.nodes[0]
    job = Job(program="steady", cpu_work_s=100.0,
              memory=MemoryProfile.constant(50.0))
    node.add_job(job)
    if restored:
        world = restore_bytes(
            snapshot_bytes(cluster=cluster,
                           policy=SimpleNamespace(name="none"),
                           collector=None, jobs=[job],
                           trace_name="recompute"),
            advance_counters=False)
        node, (job,) = world.cluster.nodes[0], world.jobs
    recomputes = node.recomputes
    notified = []
    node.add_change_listener(lambda n: notified.append(n.node_id))
    # Constant demand and no progress boundary crossed: identical key.
    node._recompute()
    assert node.recomputes == recomputes
    assert node.recompute_skips == 1
    assert notified == [0]
    # A real change (job removed) recomputes again.
    node.remove_job(job)
    assert node.recomputes == recomputes + 1
    assert node.recompute_skips == 1
