"""Event-queue simulation engine.

The engine keeps a binary heap of ``(time, priority, sequence,
handle)`` tuples, so every ordering comparison runs in C (``sequence``
is unique; the handle is never compared).  Events are plain
callables; cancellation is *lazy* — a cancelled :class:`EventHandle`
stays in the heap but is skipped when it surfaces, which keeps
cancellation O(1).  Periodic services register once with
:meth:`Simulator.every` and are re-armed in place after each tick.

Determinism guarantees:

* events at the same timestamp fire in (priority, scheduling-order)
  order;
* the engine never consults wall-clock time or global random state.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.obs.bus import NULL_CHANNEL


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class EventHandle:
    """A scheduled event that may be cancelled before it fires.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` / :meth:`Simulator.every`.  The heap
    orders ``(time, priority, seq, handle)`` tuples, so handles are
    never compared: ``seq`` is unique and every ordering decision is a
    C-level float/int comparison.  A *daemon* event (periodic
    samplers, load-info exchanges, monitors) does not keep
    :meth:`Simulator.run` alive: an open-ended run stops once only
    daemon events remain.  A *periodic* handle (``period`` set, see
    :meth:`Simulator.every`) is re-armed in place after each firing
    until cancelled.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "daemon", "period", "_firing", "_owner")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None], daemon: bool = False,
                 owner: "Optional[Simulator]" = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.daemon = daemon
        #: Re-arm interval of a periodic handle; None for one-shots.
        self.period: Optional[float] = None
        #: True while a periodic handle's callback runs (the handle is
        #: then off the heap and already uncounted).
        self._firing = False
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent).  A periodic
        handle cancelled from inside its own callback is not re-armed."""
        if self.callback is None:
            return
        self.cancelled = True
        self.callback = None  # break reference cycles early
        owner = self._owner
        if owner is not None and not self._firing:
            if self.daemon:
                owner._daemon_pending -= 1
            else:
                owner._non_daemon_pending -= 1

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired
        (a periodic handle stays pending until cancelled)."""
        return self.callback is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} prio={self.priority} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
    """

    #: Heap sizes below this are never compacted (rebuild overhead
    #: would dwarf the memory saved).
    _COMPACT_MIN_HEAP = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        self._event_count = 0
        self._non_daemon_pending = 0
        self._daemon_pending = 0
        #: Number of lazy-cancellation heap rebuilds (diagnostics).
        self.compactions = 0
        #: ``sim.event`` obs channel; the owning cluster points this at
        #: its bus.  Disabled (the shared null channel) by default, so
        #: the per-event cost is one attribute load and bool test.
        self.obs_channel = NULL_CHANNEL

    # ------------------------------------------------------------------
    # clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._event_count

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still in the queue.

        O(1): maintained as a pair of counters (non-daemon + daemon)
        updated on schedule, cancel, and fire.
        """
        return self._non_daemon_pending + self._daemon_pending

    @property
    def has_non_daemon_work(self) -> bool:
        """True while live non-daemon events remain — the condition an
        external pacer loops on when driving the engine in bounded
        ``run(until=...)`` slices (daemon ticks alone never keep a run
        alive, so they must not keep a pacer alive either)."""
        return self._non_daemon_pending > 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = 0, daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.schedule_at(self._now + delay, callback, priority, daemon)

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = 0, daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}")
        time = float(time)
        seq = next(self._seq)
        handle = EventHandle(time, priority, seq, callback, daemon=daemon,
                             owner=self)
        heapq.heappush(self._heap, (time, priority, seq, handle))
        if daemon:
            self._daemon_pending += 1
        else:
            self._non_daemon_pending += 1
        self._maybe_compact()
        return handle

    def every(self, period: float, callback: Callable[[], None],
              priority: int = 0) -> EventHandle:
        """Run ``callback`` every ``period`` seconds, first at
        ``now + period``, as a daemon until the returned handle is
        cancelled.

        The handle is re-armed in place right after each callback
        returns: its next key is ``(now + period, priority,
        next(seq))``, drawn at exactly the point where a service that
        ends its tick with ``schedule(period, tick, priority,
        daemon=True)`` would draw it.  Firing order and
        :attr:`event_count` are therefore identical to the
        self-rescheduling pattern, while a tick costs one heap push
        instead of a new handle and a Python-level comparison chain.
        """
        if not period > 0:
            raise SimulationError(f"period must be positive: {period!r}")
        handle = self.schedule_at(self._now + period, callback, priority,
                                  daemon=True)
        handle.period = period
        return handle

    def periodic_handles(self) -> List[EventHandle]:
        """Live periodic handles on the heap (in heap order)."""
        return [entry[3] for entry in self._heap
                if entry[3].period is not None and entry[3].pending]

    def _fire_periodic(self, handle: EventHandle) -> None:
        """Run a popped periodic handle, then re-arm it unless its
        callback cancelled it."""
        handle._firing = True
        handle.callback()
        handle._firing = False
        if handle.callback is None:
            return
        time = self._now + handle.period
        seq = next(self._seq)
        handle.time = time
        handle.seq = seq
        heap = self._heap
        heapq.heappush(heap, (time, handle.priority, seq, handle))
        self._daemon_pending += 1
        if len(heap) >= self._COMPACT_MIN_HEAP:
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once lazily-cancelled events outnumber the
        pending ones.

        Lazy cancellation keeps :meth:`EventHandle.cancel` O(1), but a
        workload that cancels far-future events faster than the clock
        reaches them (migration-heavy runs rescheduling node wakeups)
        would otherwise grow the heap without bound.  Dropping the dead
        entries when they exceed half the heap keeps total compaction
        work amortized O(1) per cancellation.
        """
        heap = self._heap
        if len(heap) < self._COMPACT_MIN_HEAP:
            return
        if 2 * (self._non_daemon_pending + self._daemon_pending) >= len(heap):
            return
        self._heap = [entry for entry in heap
                      if entry[3].callback is not None]
        heapq.heapify(self._heap)
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event (re-arming a periodic one
        exactly as :meth:`run` does).

        Returns False when the queue is exhausted.
        """
        while self._heap:
            time, priority, _, handle = heapq.heappop(self._heap)
            if handle.callback is None:
                continue
            self._now = time
            self._event_count += 1
            if handle.period is None:
                callback, handle.callback = handle.callback, None
                if handle.daemon:
                    self._daemon_pending -= 1
                else:
                    self._non_daemon_pending -= 1
                obs = self.obs_channel
                if obs.enabled:
                    obs.emit(time, "fire", priority=priority,
                             daemon=handle.daemon)
                callback()
            else:
                self._daemon_pending -= 1
                obs = self.obs_channel
                if obs.enabled:
                    obs.emit(time, "fire", priority=priority, daemon=True)
                self._fire_periodic(handle)
            return True
        return False

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].callback is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed.

        An open-ended run (``until=None``) additionally stops once only
        *daemon* events remain, so periodic services (samplers,
        load-info exchanges) do not keep an idle simulation alive.

        Returns the simulation time when the run stopped.  When
        ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        pop = heapq.heappop
        try:
            # Inlined peek+step: the heap top is scanned once per
            # event instead of once in peek() and again in step().
            # self._heap is re-read each iteration because callbacks
            # can rebind it (lazy-cancellation compaction).
            while True:
                if until is None and self._non_daemon_pending <= 0:
                    break
                heap = self._heap
                while heap and heap[0][3].callback is None:
                    pop(heap)
                if not heap:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                _, priority, _, handle = pop(heap)
                self._now = time
                self._event_count += 1
                if handle.period is None:
                    callback, handle.callback = handle.callback, None
                    if handle.daemon:
                        self._daemon_pending -= 1
                    else:
                        self._non_daemon_pending -= 1
                    obs = self.obs_channel
                    if obs.enabled:
                        obs.emit(time, "fire", priority=priority,
                                 daemon=handle.daemon)
                    callback()
                else:
                    self._daemon_pending -= 1
                    obs = self.obs_channel
                    if obs.enabled:
                        obs.emit(time, "fire", priority=priority,
                                 daemon=True)
                    self._fire_periodic(handle)
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return self._now
