"""Unit tests for the discrete-event simulation kernel."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.collector import MetricsCollector, PolicyPendingProbe
from repro.scheduling.g_loadsharing import GLoadSharing
from repro.sim import Simulator, SimulationError, restore_bytes, snapshot_bytes

from helpers import job, tiny_cluster


def live_entries(sim):
    """Heap entries whose handle can still fire."""
    return [entry for entry in sim._heap if entry[3].pending]


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(1.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list("abcde")


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("low"), priority=5)
    sim.schedule(1.0, lambda: fired.append("high"), priority=0)
    sim.run()
    assert fired == ["high", "low"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    sim.schedule(2.0, lambda: fired.append("y"))
    handle.cancel()
    sim.run()
    assert fired == ["y"]
    assert not handle.pending


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.event_count == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_events_scheduled_during_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.schedule(2.0, lambda: fired.append(("nested", sim.now)))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [("first", 1.0), ("nested", 3.0)]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    end = sim.run(until=3.0)
    assert fired == [1]
    assert end == 3.0
    assert sim.now == 3.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_step_and_peek():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    cancelled = sim.schedule(1.0, lambda: None)
    cancelled.cancel()
    assert sim.peek() == 2.0
    assert sim.step() is True
    assert sim.step() is False


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending_events() == 1


def test_event_count_tracks_executed_events():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_event_handle_ordering():
    """The heap orders (time, priority, seq, handle) tuples: seq is
    unique, so handles carry their key but are never compared."""
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    b = sim.schedule(1.0, lambda: None)
    c = sim.schedule(0.5, lambda: None, priority=9)
    keys = {id(entry[3]): entry[:3] for entry in sim._heap}
    assert keys[id(a)] == (a.time, a.priority, a.seq) == (1.0, 0, 0)
    assert keys[id(b)] == (1.0, 0, 1)
    assert keys[id(c)] == (0.5, 9, 2)
    assert keys[id(a)] < keys[id(b)] and keys[id(c)] < keys[id(a)]
    assert sim._heap[0][3] is c
    with pytest.raises(TypeError):
        a < b


def test_reentrant_run_rejected():
    sim = Simulator()

    def body():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, body)
    sim.run()


class TestDaemonEvents:
    """Daemon events (periodic services) must not keep an open-ended
    run alive, but still fire while real work remains."""

    def test_open_ended_run_ignores_pure_daemon_queue(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.run()
        assert fired == []  # nothing non-daemon ever existed
        assert sim.now == 0.0

    def test_daemons_fire_while_work_remains(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.schedule(3.5, lambda: None)  # real work until t=3.5
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_executes_daemons(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]

    def test_cancelling_last_non_daemon_stops_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("work"))
        handle = sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(2.0, lambda: None, daemon=True)
        handle.cancel()
        sim.run()
        assert fired == ["work"]

    def test_daemon_scheduling_non_daemon_extends_run(self):
        sim = Simulator()
        fired = []

        def daemon():
            # periodic service discovers real work
            sim.schedule(1.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, daemon, daemon=True)
        sim.schedule(1.5, lambda: fired.append("anchor"))
        sim.run()
        assert "anchor" in fired
        assert 2.0 in fired


class TestPendingEventsCounter:
    """pending_events() is counter-backed (O(1)), so it must stay
    consistent through every schedule/cancel/fire path."""

    def test_counts_daemon_and_non_daemon(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None, daemon=True)
        assert sim.pending_events() == 2

    def test_decrements_on_fire(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None, daemon=True)
        sim.schedule(1.5, lambda: None)
        sim.run()  # stops once only the daemon remains
        assert sim.pending_events() == 1

    def test_decrements_on_daemon_cancel(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None, daemon=True)
        handle.cancel()
        assert sim.pending_events() == 0

    def test_matches_heap_scan_through_mixed_activity(self):
        sim = Simulator()
        handles = []
        for i in range(50):
            handles.append(sim.schedule(float(i + 1), lambda: None,
                                        daemon=(i % 3 == 0)))
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_events() == len(live_entries(sim))
        sim.run(until=10.0)
        assert sim.pending_events() == len(live_entries(sim))


class TestHeapCompaction:
    """Lazily-cancelled events must not accumulate without bound."""

    def test_cancelled_majority_is_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(1000.0 + i, lambda: None)
                   for i in range(500)]
        for handle in handles:
            handle.cancel()
        # One live far-future event plus a new schedule triggers the
        # rebuild: the dead 500 must be gone from the heap.
        sim.schedule(1.0, lambda: None)
        assert len(sim._heap) <= 2
        assert sim.pending_events() == 1

    def test_small_heaps_left_alone(self):
        sim = Simulator()
        handles = [sim.schedule(10.0 + i, lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        sim.schedule(1.0, lambda: None)
        # below the compaction floor: lazy entries may linger
        assert sim.pending_events() == 1

    def test_compaction_preserves_order_and_results(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(200):
            handle = sim.schedule(float(i + 1),
                                  lambda i=i: fired.append(i))
            if i % 7 == 0:
                keep.append(i)
            else:
                handle.cancel()
        sim.run()
        assert fired == keep

    def test_compaction_bounds_heap_under_churn(self):
        """Schedule-and-cancel churn (the migration-heavy pattern)
        keeps the heap near the live-event count."""
        sim = Simulator()
        live = sim.schedule(1e9, lambda: None)  # keeps the run alive
        previous = None
        for i in range(10_000):
            if previous is not None:
                previous.cancel()
            previous = sim.schedule(1e6 + i, lambda: None)
        assert len(sim._heap) < 200
        assert sim.pending_events() == 2
        live.cancel()
        previous.cancel()


# ----------------------------------------------------------------------
# periodic daemons (Simulator.every)
# ----------------------------------------------------------------------
def _drive(sim, spec, periodic):
    """Run one scenario; returns the firing log.

    ``spec``: services (priorities), one-shot events (time, priority),
    events each service's tick schedules from inside itself
    ({tick: [(delay, priority)]}), and per-service stop times (a
    one-shot that cancels the service).  ``periodic`` picks
    :meth:`Simulator.every` or the self-rescheduling pattern it
    replaces.
    """
    period, services, oneshots, inner, stops = spec
    log = []

    def record(label):
        log.append((sim.now, label, sim.pending_events(), sim.event_count))

    current = {}
    counts = {}

    def body(name):
        tick = counts[name] = counts.get(name, 0) + 1
        record(name)
        for k, (delay, priority) in enumerate(inner.get((name, tick), ())):
            sim.schedule(delay, functools.partial(record, f"{name}.{k}"),
                         priority=priority)

    def legacy_tick(name, priority):
        body(name)
        current[name] = sim.schedule(
            period, functools.partial(legacy_tick, name, priority),
            priority=priority, daemon=True)

    for index, priority in enumerate(services):
        name = f"s{index}"
        if periodic:
            current[name] = sim.every(period, functools.partial(body, name),
                                      priority=priority)
        else:
            current[name] = sim.schedule(
                period, functools.partial(legacy_tick, name, priority),
                priority=priority, daemon=True)
    for index, (time, priority) in enumerate(oneshots):
        sim.schedule_at(time, functools.partial(record, f"o{index}"),
                        priority=priority)
    for index, (time, priority) in enumerate(stops):
        if index < len(services):
            name = f"s{index}"
            sim.schedule_at(time, lambda name=name: current[name].cancel(),
                            priority=priority)
    return log


_priority = st.integers(min_value=0, max_value=3)
_grid_time = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25)
scenarios = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.lists(_priority, min_size=1, max_size=3),
    st.lists(st.tuples(_grid_time, _priority), min_size=1, max_size=12),
    st.dictionaries(
        st.tuples(st.sampled_from(["s0", "s1", "s2"]),
                  st.integers(min_value=1, max_value=8)),
        st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.25, 1.0]),
                           _priority), max_size=3),
        max_size=6),
    st.lists(st.tuples(_grid_time, _priority), max_size=2))


class TestPeriodic:
    @settings(max_examples=150, deadline=None)
    @given(spec=scenarios)
    def test_every_matches_self_rescheduling(self, spec):
        """Same global firing order, clock, pending counts and
        event_count as a service that reschedules itself at the end of
        each tick — including same-(time, priority) ties and zero-delay
        events scheduled from inside the tick."""
        legacy, periodic = Simulator(), Simulator()
        expected = _drive(legacy, spec, periodic=False)
        got = _drive(periodic, spec, periodic=True)
        legacy.run()
        periodic.run()
        assert got == expected
        assert periodic.event_count == legacy.event_count
        assert periodic.now == legacy.now
        assert periodic.pending_events() == legacy.pending_events()

    def test_cancel_inside_own_callback_stops_it(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 3:
                handle.cancel()

        handle = sim.every(1.0, tick, priority=2)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert not handle.pending
        assert sim.pending_events() == 0
        assert live_entries(sim) == []

    def test_step_rearms_like_run(self):
        spec = (1.0, [2, 2, 0], [(1.0, 2), (2.5, 0), (3.0, 1)],
                {("s0", 1): [(0.0, 2), (0.0, 0)], ("s1", 2): [(1.0, 2)]},
                [(4.0, 3)])
        by_run, by_step = Simulator(), Simulator()
        expected = _drive(by_run, spec, periodic=True)
        got = _drive(by_step, spec, periodic=True)
        by_run.run()
        while by_step.has_non_daemon_work:
            assert by_step.step()
        assert got == expected
        assert by_step.event_count == by_run.event_count
        assert by_step.now == by_run.now
        assert ([entry[:3] for entry in sorted(live_entries(by_step))]
                == [entry[:3] for entry in sorted(live_entries(by_run))])
        assert len(by_step.periodic_handles()) == 2

    def test_pending_events_stays_exact(self):
        sim = Simulator()
        seen = []

        def tick():
            # The firing handle is off the heap and uncounted.
            seen.append((sim.pending_events(), len(live_entries(sim))))
            sim.schedule(0.0, lambda: None)

        handle = sim.every(1.0, tick)
        sim.every(0.5, lambda: None, priority=1)
        sim.schedule(4.0, lambda: None)
        assert sim.pending_events() == len(live_entries(sim)) == 3
        while sim.now < 3.0:
            sim.step()
            assert sim.pending_events() == len(live_entries(sim))
        before = sim.pending_events()
        handle.cancel()
        assert sim.pending_events() == len(live_entries(sim)) == before - 1
        assert len(seen) == 3
        assert all(pending == live for pending, live in seen)

    def test_every_rejects_non_positive_period(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)

    def test_periodic_handle_survives_snapshot(self):
        cluster = tiny_cluster()
        policy = GLoadSharing(cluster)
        collector = MetricsCollector(cluster,
                                     pending_probe=PolicyPendingProbe(policy))
        jobs = [job(work=40.0, demand=30.0, home=i % 4, submit=float(i))
                for i in range(6)]
        for j in jobs:
            cluster.sim.schedule_at(j.submit_time,
                                    functools.partial(policy.submit, j))
        cluster.sim.run(until=5.5)
        data = snapshot_bytes(cluster=cluster, policy=policy,
                              collector=collector, jobs=jobs,
                              trace_name="every")
        restored = restore_bytes(data, advance_counters=False)
        sim, twin = cluster.sim, restored.cluster.sim

        def keys(s):
            return sorted((h.time, h.priority, h.seq, h.period)
                          for h in s.periodic_handles())

        # The monitor and the collector (tiny_config exchanges live).
        assert keys(twin) == keys(sim) and len(keys(sim)) == 2
        monitor = restored.policy._monitor_event
        assert monitor.period == cluster.config.monitor_interval_s
        assert monitor.pending
        assert monitor in twin.periodic_handles()
        sim.run()
        twin.run()
        assert twin.event_count == sim.event_count
        assert twin.now == sim.now
        assert len(restored.collector.samples) == len(collector.samples)
