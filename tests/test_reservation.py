"""Unit tests for the reservation lifecycle (§2.1)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reservation import (
    Reservation,
    ReservationManager,
    ReservationMode,
    ReservationState,
)

from helpers import job, tiny_cluster


def manager(cluster, **kwargs):
    defaults = dict(mode=ReservationMode.DRAIN_ALL, max_reserved=2,
                    reserve_timeout_s=0.0)
    defaults.update(kwargs)
    return ReservationManager(cluster, **defaults)


class TestReserve:
    def test_reserve_blocks_submissions(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        assert cluster.nodes[0].reserved
        assert not cluster.nodes[0].accepting
        assert reservation.state is ReservationState.RESERVING

    def test_idle_node_is_ready_immediately(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        ready = []
        mgr.on_ready = ready.append
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        assert ready == [reservation]

    def test_drain_all_waits_for_all_jobs(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        ready = []
        mgr.on_ready = ready.append
        short = job(work=10.0, demand=10.0)
        long_ = job(work=30.0, demand=10.0)
        cluster.nodes[0].add_job(short)
        cluster.nodes[0].add_job(long_)
        mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        cluster.sim.run(until=25.0)
        assert not ready  # short done, long still running
        cluster.sim.run()
        assert len(ready) == 1

    def test_first_fit_ready_when_memory_frees(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster, mode=ReservationMode.FIRST_FIT)
        ready = []
        mgr.on_ready = ready.append
        short = job(work=10.0, demand=40.0)
        long_ = job(work=1000.0, demand=30.0)
        cluster.nodes[0].add_job(short)
        cluster.nodes[0].add_job(long_)
        mgr.reserve(cluster.nodes[0], needed_mb=60.0)  # idle is 30 now
        cluster.sim.run(until=50.0)
        # short's 40MB freed -> idle 70 >= 60 although long still runs
        assert len(ready) == 1

    def test_double_reserve_rejected(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        with pytest.raises(ValueError):
            mgr.reserve(cluster.nodes[0], needed_mb=1.0)

    def test_max_reserved_enforced(self):
        cluster = tiny_cluster()
        mgr = manager(cluster, max_reserved=1)
        mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        assert not mgr.can_reserve()
        with pytest.raises(ValueError):
            mgr.reserve(cluster.nodes[1], needed_mb=1.0)

    def test_cannot_allow_reserving_every_node(self):
        cluster = tiny_cluster(num_nodes=4)
        with pytest.raises(ValueError):
            ReservationManager(cluster, max_reserved=4)
        with pytest.raises(ValueError):
            ReservationManager(cluster, max_reserved=0)


class TestServeAndRelease:
    def serve_one(self, cluster, mgr):
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        big = job(work=20.0, demand=50.0)
        mgr.assign(reservation, big)
        cluster.nodes[0].add_job(big)
        mgr.job_arrived(reservation, big)
        return reservation, big

    def test_assign_moves_to_serving(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation, _ = self.serve_one(cluster, mgr)
        assert reservation.state is ReservationState.SERVING

    def test_release_when_migrated_jobs_complete(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation, big = self.serve_one(cluster, mgr)
        cluster.sim.run()
        assert big.finished
        assert reservation.state is ReservationState.RELEASED
        assert not cluster.nodes[0].reserved

    def test_release_notifies_node_change(self):
        cluster = tiny_cluster()
        changed = []
        cluster.on_node_changed(lambda node: changed.append(node.node_id))
        mgr = manager(cluster)
        self.serve_one(cluster, mgr)
        cluster.sim.run()
        assert 0 in changed

    def test_not_released_while_inbound_in_flight(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation, big = self.serve_one(cluster, mgr)
        second = job(work=50.0, demand=20.0)
        mgr.assign(reservation, second)  # in flight, never arrives yet
        cluster.sim.run(until=30.0)
        assert big.finished
        assert reservation.state is ReservationState.SERVING

    def test_reuse_capacity_check(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster)
        reservation, _ = self.serve_one(cluster, mgr)
        fits = job(work=10.0, demand=40.0)
        too_big = job(work=10.0, demand=60.0)
        assert mgr.serving_reservation_with_capacity(fits) is reservation
        assert mgr.serving_reservation_with_capacity(too_big) is None

    def test_local_leftovers_do_not_extend_reservation(self):
        """First-fit mode: the reservation ends when migrated jobs are
        done even if pre-existing local jobs still run."""
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster, mode=ReservationMode.FIRST_FIT)
        leftover = job(work=1000.0, demand=10.0)
        cluster.nodes[0].add_job(leftover)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=40.0)
        big = job(work=20.0, demand=40.0)
        mgr.assign(reservation, big)
        cluster.nodes[0].add_job(big)
        mgr.job_arrived(reservation, big)
        cluster.sim.run(until=200.0)
        assert big.finished
        assert not leftover.finished
        assert reservation.state is ReservationState.RELEASED


class TestCancelAndTimeout:
    def test_cancel_returns_node_to_normal(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        cluster.nodes[0].add_job(job(work=100.0))
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        mgr.cancel(reservation)
        assert reservation.state is ReservationState.CANCELLED
        assert not cluster.nodes[0].reserved

    def test_cancel_only_affects_reserving_state(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        big = job(work=10.0, demand=1.0)
        mgr.assign(reservation, big)
        mgr.cancel(reservation)  # no-op: already serving
        assert reservation.state is ReservationState.SERVING

    def test_timeout_cancels_stale_reserving_period(self):
        cluster = tiny_cluster()
        mgr = manager(cluster, reserve_timeout_s=50.0)
        cluster.nodes[0].add_job(job(work=1000.0))
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        cluster.sim.run(until=60.0)
        assert reservation.state is ReservationState.CANCELLED
        assert not cluster.nodes[0].reserved

    def test_timeline_records_lifecycle(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        big = job(work=5.0, demand=1.0)
        mgr.assign(reservation, big)
        cluster.nodes[0].add_job(big)
        mgr.job_arrived(reservation, big)
        cluster.sim.run()
        kinds = [event.kind for event in mgr.timeline]
        assert kinds == ["reserve", "ready", "assign", "arrive", "release"]


class TestServingPick:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
               st.sampled_from([ReservationState.RESERVING,
                                ReservationState.SERVING]),
               st.sampled_from([0.0, 10.0, 30.0, 30.0, 60.0]),
               st.booleans()), max_size=6),
           demand=st.sampled_from([5.0, 30.0, 50.0]))
    def test_single_pass_equals_max_over_filtered_list(self, rows, demand):
        """The one-pass reuse pick returns the very reservation the
        original ``max`` over the filtered active list returned: the
        first with the most idle memory."""
        mgr = manager(tiny_cluster(num_nodes=8), max_reserved=7)
        for node_id, (state, idle, free_slot) in enumerate(rows):
            node = SimpleNamespace(node_id=node_id, idle_memory_mb=idle,
                                   has_free_slot=free_slot)
            mgr._by_node[node_id] = Reservation(
                node=node, mode=mgr.mode, needed_mb=demand,
                created_at=0.0, state=state)
        wanted = job(demand=demand)
        candidates = [r for r in mgr.active_reservations
                      if r.state is ReservationState.SERVING
                      and r.has_capacity_for(wanted)]
        expected = (max(candidates, key=lambda r: r.node.idle_memory_mb)
                    if candidates else None)
        assert mgr.serving_reservation_with_capacity(wanted) is expected
