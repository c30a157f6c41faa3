"""The candidate index against the seed's selection — pinned here.

Destinations come from the load directory's maintained candidate
orders, and the overload monitor visits only the cluster's maintained
thrashing set.  The seed computed both from scratch: a fresh sort of
``snapshots()`` on every selection and a scan over every node on every
monitor tick.  Each cell below runs with those from-scratch
computations attached as live oracles — every order the directory
hands out must equal the sort, and every monitor tick's thrashing set
must cover the scan — and must reproduce the summary and event count
recorded in ``tests/golden/summaries_paths.json`` while the seed's
selection path still ran and agreed.  Any divergence means the index
changed scheduling decisions, not just their cost.

The overload monitor also answers a declined migration from the
idle-memory column alone (no node has room, so no candidate can
qualify).  The last test runs full-scale cells where that shortcut
fires hundreds of times with the full candidate loop, and the
original reservation-reuse ``max``, attached as live oracles.
"""

from collections import Counter

import pytest

from repro.cluster.loadinfo import LoadInfoDirectory
from repro.cluster.workstation import _EPS
from repro.core.reservation import ReservationManager, ReservationState
from repro.experiments.runner import default_config, run_experiment
from repro.scheduling.base import LoadSharingPolicy
from repro.workload.programs import WorkloadGroup

from test_determinism import canonical
from test_paths_golden import CELLS, load_golden, run_cell

#: Policies whose selection logic touches the candidate orders.
POLICIES = ["cpu", "memory", "g-loadsharing", "v-reconfiguration",
            "suspension"]

#: Policies that place every submission through a directory order.
#: The others consult the directory only to move work off an
#: overloaded node, which these cells never reach; any such call is
#: still checked.
PLACES_THROUGH = {"cpu": "load_order_ids", "memory": "accepting_ids"}


def legacy_accepting(directory):
    """The seed's destination order: accepting nodes by (idle memory
    desc, job count asc, node id), sorted fresh from the snapshots."""
    snaps = [s for s in directory.snapshots() if s.accepting]
    snaps.sort(key=lambda s: (-s.idle_memory_mb, s.num_jobs, s.node_id))
    return [s.node_id for s in snaps]


def legacy_load_order(directory):
    """The seed's CPU-policy order: snapshots of live nodes by (job
    count, node id)."""
    return sorted((s for s in directory.snapshots() if s.alive),
                  key=lambda s: (s.num_jobs, s.node_id))


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture
def oracle_checks(monkeypatch):
    """Attach the seed's from-scratch selection and monitor scan to
    every directory read and monitor tick; returns the check counts."""
    checks = Counter()
    accepting_ids = LoadInfoDirectory.accepting_ids
    load_order_ids = LoadInfoDirectory.load_order_ids
    least_num_jobs = LoadInfoDirectory.least_num_jobs
    monitor_tick = LoadSharingPolicy._monitor_tick

    def checked_accepting_ids(self):
        ids = accepting_ids(self)
        assert ids == legacy_accepting(self)
        checks["accepting_ids"] += 1
        return ids

    def checked_load_order_ids(self):
        ids = load_order_ids(self)
        assert ids == [s.node_id for s in legacy_load_order(self)]
        checks["load_order_ids"] += 1
        return ids

    def checked_least_num_jobs(self):
        least = least_num_jobs(self)
        snaps = legacy_load_order(self)
        assert least == (snaps[0].num_jobs if snaps else 0)
        checks["least_num_jobs"] += 1
        return least

    def checked_monitor_tick(self):
        scan = {node.node_id for node in self.cluster.nodes
                if node.thrashing and not node.reserved}
        assert scan <= self.cluster.thrashing_nodes
        checks["monitor_tick"] += 1
        monitor_tick(self)

    monkeypatch.setattr(LoadInfoDirectory, "accepting_ids",
                        checked_accepting_ids)
    monkeypatch.setattr(LoadInfoDirectory, "load_order_ids",
                        checked_load_order_ids)
    monkeypatch.setattr(LoadInfoDirectory, "least_num_jobs",
                        checked_least_num_jobs)
    monkeypatch.setattr(LoadSharingPolicy, "_monitor_tick",
                        checked_monitor_tick)
    return checks


def assert_cell_matches(cell, golden, checks):
    assert run_cell(**CELLS[cell]) == golden[cell], \
        f"cell {cell} diverged from the recorded summary"
    assert checks["monitor_tick"] > 0
    policy = CELLS[cell]["policy"]
    if policy in PLACES_THROUGH:
        assert checks[PLACES_THROUGH[policy]] > 0, \
            "the selection oracle was never consulted"


@pytest.mark.parametrize("policy", POLICIES)
def test_indexed_matches_legacy_periodic(policy, golden, oracle_checks):
    assert_cell_matches(f"periodic-{policy}", golden, oracle_checks)


@pytest.mark.parametrize("policy", ["g-loadsharing", "memory", "cpu"])
def test_indexed_matches_legacy_live(policy, golden, oracle_checks):
    """Live mode (interval 0) repositions per node change instead of
    per exchange round — still the seed's order at every read."""
    assert_cell_matches(f"live-{policy}", golden, oracle_checks)


def test_larger_cluster_equivalence(golden, oracle_checks):
    """The 256-node scale bench is valid only if the index keeps the
    seed's order beyond the default topology too (smaller stand-in
    keeps the test suite fast)."""
    assert_cell_matches("nodes96-memory", golden, oracle_checks)


# ----------------------------------------------------------------------
# the monitor's column-max reject against the full candidate loop
# ----------------------------------------------------------------------
def attach_destination_oracle(monkeypatch):
    """Check every ``find_migration_destination`` answer against the
    full candidate loop it short-cuts, and every reservation reuse
    pick against the original ``max`` over the filtered active list;
    returns the check counts."""
    checks = Counter()
    find = LoadSharingPolicy.find_migration_destination

    def checked_find(self, job, exclude=None):
        rejected = (max(self.cluster.state.idle_memory_mb)
                    < job.current_demand_mb - _EPS)
        full = next((node for node
                     in self.candidates_by_idle_memory(exclude=exclude)
                     if node.accepts_migration(job)), None)
        if rejected:
            assert full is None, "column-max reject hid a destination"
        answer = find(self, job, exclude)
        assert answer is full
        checks["rejected" if rejected else "searched"] += 1
        return answer

    pick = ReservationManager.serving_reservation_with_capacity

    def checked_pick(self, job):
        rejected = (max(self.cluster.state.idle_memory_mb)
                    < job.current_demand_mb - 1e-9)
        candidates = [r for r in self.active_reservations
                      if r.state is ReservationState.SERVING
                      and r.has_capacity_for(job)]
        full = (max(candidates, key=lambda r: r.node.idle_memory_mb)
                if candidates else None)
        if rejected:
            assert full is None, "column-max reject hid a reservation"
        answer = pick(self, job)
        assert answer is full
        checks["pick_rejected" if rejected else "pick_searched"] += 1
        return answer

    monkeypatch.setattr(LoadSharingPolicy, "find_migration_destination",
                        checked_find)
    monkeypatch.setattr(ReservationManager,
                        "serving_reservation_with_capacity", checked_pick)
    return checks


#: Full-scale cells where thrashing nodes are often re-declined with
#: memory saturated everywhere (the reject fires hundreds of times),
#: flat and in four load-information domains.
REJECT_CELLS = [("app", 3, "g-loadsharing", 1),
                ("app", 3, "v-reconfiguration", 4),
                ("app", 3, "memory", 1),
                ("spec", 3, "suspension", 1)]


@pytest.mark.parametrize("group,index,policy,domains", REJECT_CELLS)
def test_column_max_reject_agrees_with_candidate_loop(
        group, index, policy, domains, monkeypatch):
    group = WorkloadGroup(group)
    config = default_config(group).replace(domains=domains)
    plain = run_experiment(group, index, policy=policy, seed=0,
                           config=config)
    checks = attach_destination_oracle(monkeypatch)
    checked = run_experiment(group, index, policy=policy, seed=0,
                             config=config)
    assert checks["rejected"] > 0 and checks["searched"] > 0
    if policy == "v-reconfiguration":
        assert checks["pick_rejected"] > 0 and checks["pick_searched"] > 0
    # The oracle's extra candidate reads change no decision either.
    assert canonical(checked.summary) == canonical(plain.summary)
    assert checked.cluster.sim.event_count == plain.cluster.sim.event_count
