"""Per-layer trace of the simulator, taken from outside the program.

``LayerTracer.install()`` replaces each layer entry point listed in
``ENTRY_POINTS`` (class attributes and module functions under
``src/repro``) with a wrapper that records a span: call count, total
time, and self time (the span minus the time of the named spans it
contains).  Spans are aggregated in memory per thread and read once,
by ``report()``, when the benchmark ends.  It must be installed before
the cluster is built, because instances bind methods at construction.

Every callback handed to ``Simulator.schedule_at`` is also classified
by the layer that owns it (the module defining the bound method or
plain function, or the callable object's class) and wrapped so its
firing is counted per layer, separately for daemon events (periodic
ticks that never keep a run alive) and work events.  The wrapper
pickles as the bare callback, so checkpoints hold exactly what the
program put on the heap.

Run as a script, it launches the runner CLI with the tracer installed
and writes the layer report as JSON when the run ends::

    PYTHONPATH=src python3 perfbench/layers.py --report-out r.json -- \\
        --trace 5 --serve 0 --pace 500

BENCHMARK.json names every metric the traced run reports; ``MOVES``
maps each one to the end-to-end metric and workload it is expected to
move, which BENCHMARK.json has no field for.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> entry points, as ``module:Class.attr`` or
#: ``module:function``.  One name may cover several entry points.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "sim.dispatch": ("repro.sim.engine:Simulator.run",),
    "sim.schedule_at": ("repro.sim.engine:Simulator.schedule_at",),
    "workload.build_trace": (
        "repro.workload.generator:TraceGenerator.build",),
    "workload.build_jobs": ("repro.workload.trace:Trace.build_jobs",),
    "cluster.build": ("repro.cluster.cluster:Cluster.__init__",),
    "cluster.workstation_event": (
        "repro.cluster.workstation:Workstation._on_internal_event",),
    "cluster.recompute": (
        "repro.cluster.workstation:Workstation._recompute",),
    "cluster.paging.assess": ("repro.cluster.memory:PagingModel.assess",),
    "cluster.paging.assess_uncached": (
        "repro.cluster.memory:PagingModel._assess_uncached",),
    "cluster.accepts_migration": (
        "repro.cluster.workstation:Workstation.accepts_migration",),
    "loadinfo.exchange": ("repro.cluster.loadinfo:LoadInfoDirectory._tick",),
    "loadinfo.refresh": (
        "repro.cluster.loadinfo:LoadInfoDirectory.refresh",
        "repro.cluster.domains:DomainDirectory.refresh"),
    "loadinfo.candidates": (
        "repro.cluster.loadinfo:LoadInfoDirectory.accepting_ids",
        "repro.cluster.loadinfo:LoadInfoDirectory.load_order_ids",
        "repro.cluster.domains:DomainDirectory.accepting_ids",
        "repro.cluster.domains:DomainDirectory.load_order_ids"),
    "domains.exchange": (
        "repro.cluster.domains:DomainDirectory._exchange_tick",),
    "domains.summary": (
        "repro.cluster.domains:DomainDirectory._refresh_summaries",),
    "scheduling.submit": ("repro.scheduling.base:LoadSharingPolicy.submit",),
    "scheduling.monitor": (
        "repro.scheduling.base:LoadSharingPolicy._monitor_tick",),
    "scheduling.handle_overload": (
        "repro.scheduling.g_loadsharing:GLoadSharing.handle_overload",),
    "scheduling.find_destination": (
        "repro.scheduling.base:LoadSharingPolicy.find_migration_destination",),
    "scheduling.candidates_by_idle_memory": (
        "repro.scheduling.base:LoadSharingPolicy.candidates_by_idle_memory",),
    "scheduling.migrate": ("repro.scheduling.base:LoadSharingPolicy.migrate",),
    "core.on_blocking": (
        "repro.core.reconfiguration:VReconfiguration.on_blocking",),
    "core.has_capacity_for": (
        "repro.core.reservation:Reservation.has_capacity_for",),
    "core.reserve": ("repro.core.reservation:ReservationManager.reserve",),
    "metrics.tick": ("repro.metrics.collector:MetricsCollector._tick",),
    "metrics.summarize": ("repro.metrics.summary:summarize_run",
                          "repro.experiments.runner:summarize_run"),
    "checkpoint.snapshot": ("repro.sim.checkpoint:snapshot_bytes",),
    "checkpoint.restore": ("repro.sim.checkpoint:restore_bytes",),
    "checkpoint.resume": ("repro.sim.checkpoint:resume",),
    "live.submit": ("repro.obs.live:LiveMonitor.handle_submit",),
    "live.admit": ("repro.obs.live:LiveMonitor._admit_ingest",),
    "live.publish": ("repro.obs.live:LiveMonitor.publish",),
}

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``
#: (``sim.dispatch`` is the engine loop, ``Simulator.run``).
REPORTED_SPANS = tuple(name for name in ENTRY_POINTS
                       if name != "cluster.paging.assess_uncached")

#: Layers that scheduled events are attributed to.
EVENT_LAYERS = ("cluster", "scheduling", "loadinfo", "core", "metrics",
                "obs", "other")

PAPER, SCALE, SERVICE = "paper-sweep", "scale", "service"

#: per-layer metric -> (end-to-end metric it should move, workload).
MOVES: Dict[str, Tuple[str, str]] = {
    name: ("sim_s_per_wall_s", PAPER)
    for name in ("sim.events", "sim.daemon_event_share",
                 "sim.host_us_per_event", "sim.dispatch.calls",
                 "sim.dispatch.self_s", "sim.schedule_at.calls",
                 "sim.schedule_at.self_s", "trace.overhead",
                 "trace.coverage")}
MOVES.update({f"events.{layer}": ("sim_s_per_wall_s", PAPER)
              for layer in EVENT_LAYERS})


def _moves(spans: Tuple[str, ...], extra: Tuple[str, ...], moves: str,
           workload: str) -> None:
    for name in spans:
        MOVES[f"{name}.calls"] = MOVES[f"{name}.self_s"] = (moves, workload)
    for name in extra:
        MOVES[name] = (moves, workload)


_moves(("workload.build_trace", "workload.build_jobs"), (), "setup_s", PAPER)
_moves(("cluster.build",), (), "setup_s", SCALE)
_moves(("cluster.workstation_event", "cluster.recompute",
        "cluster.paging.assess", "cluster.accepts_migration",
        "scheduling.submit", "scheduling.monitor",
        "scheduling.handle_overload", "scheduling.find_destination",
        "scheduling.candidates_by_idle_memory", "scheduling.migrate",
        "core.on_blocking", "core.has_capacity_for", "core.reserve"),
       ("cluster.paging.hit_ratio", "scheduling.migration_yield",
        "core.reserve_yield"), "jobs_per_s", PAPER)
_moves(("loadinfo.exchange", "loadinfo.refresh", "loadinfo.candidates",
        "domains.exchange", "domains.summary", "metrics.tick",
        "metrics.summarize"), (), "sim_s_per_wall_s", SCALE)
_moves(("checkpoint.snapshot", "checkpoint.restore", "checkpoint.resume"),
       ("checkpoint.bytes",), "fork_s", SERVICE)
_moves(("live.submit", "live.admit", "live.publish"),
       ("live.sim_lag_max_s", "client.late_max_ms"), "submit_p99_ms",
       SERVICE)


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------
class _ThreadState:
    """One thread's open-span stack and aggregates.  Only its own
    thread writes it, so no lock is needed."""

    __slots__ = ("stack", "spans", "fired", "events")

    def __init__(self):
        #: child-time accumulators of the open spans, innermost last
        self.stack: List[float] = []
        #: span name -> [calls, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        #: (layer, daemon) -> events fired
        self.fired: Dict[Tuple[str, bool], int] = {}
        #: events executed by ``Simulator.run`` calls on this thread
        self.events = 0


_LOCAL = threading.local()
#: The installed tracer.  Patching class attributes is process-wide,
#: so at most one tracer is installed at a time.
_ACTIVE: Optional["LayerTracer"] = None


def _state() -> _ThreadState:
    try:
        return _LOCAL.state
    except AttributeError:
        state = _LOCAL.state = _ThreadState()
        if _ACTIVE is not None:
            _ACTIVE.states.append(state)
        return state


class _Counted:
    """An event callback that counts its own firing under its owning
    layer.  Pickles as the bare callback."""

    __slots__ = ("key", "callback")

    def __init__(self, key: Tuple[str, bool], callback: Callable[[], None]):
        self.key = key
        self.callback = callback

    def __call__(self) -> None:
        fired = _state().fired
        fired[self.key] = fired.get(self.key, 0) + 1
        self.callback()

    def __reduce__(self):
        return _bare, (self.callback,)


def _bare(callback):
    return callback


def _layer_of_module(module: str) -> str:
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "cluster" and len(parts) > 2 \
            and parts[2] in ("loadinfo", "domains"):
        return "loadinfo"
    return parts[1] if parts[1] in EVENT_LAYERS else "other"


_LAYER_CACHE: Dict[object, str] = {}


def owner_layer(callback) -> str:
    """Layer owning a scheduled callback: the module that defines the
    bound method's function (not the instance's class, so a policy
    subclass in ``core`` still books its inherited monitor tick to
    ``scheduling``), of a plain function, or of a callable object's
    class."""
    target = callback
    while isinstance(target, functools.partial):
        target = target.func
    key = getattr(target, "__func__", None)
    if key is None:
        key = (target if isinstance(target, (types.FunctionType,
                                             types.BuiltinFunctionType))
               else type(target))
    layer = _LAYER_CACHE.get(key)
    if layer is None:
        module = getattr(key, "__module__", None) or ""
        layer = _LAYER_CACHE[key] = _layer_of_module(module)
    return layer


def _resolve(spec: str):
    """``module:Class.attr`` -> (owner object, attr name)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Patches the layer entry points and aggregates their spans."""

    def __init__(self):
        self.states: List[_ThreadState] = []
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a LayerTracer is already installed")
        _ACTIVE = self
        for name, specs in ENTRY_POINTS.items():
            for spec in specs:
                try:
                    owner, attr = _resolve(spec)
                except (ImportError, AttributeError):
                    owner, attr = None, ""
                original = (owner.__dict__.get(attr)
                            if isinstance(owner, type)
                            else getattr(owner, attr, None))
                if original is None:
                    # A later change renamed or removed this entry
                    # point: its span reads zero, the run goes on.
                    self.missing.append(spec)
                    continue
                if name == "sim.schedule_at":
                    wrapper = self._wrap_schedule(original)
                elif name == "sim.dispatch":
                    wrapper = self._wrap(name, original, count_events=True)
                elif name == "checkpoint.snapshot":
                    wrapper = self._wrap(name, original, count_bytes=True)
                else:
                    wrapper = self._wrap(name, original)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(name: str, fn, count_events: bool = False,
              count_bytes: bool = False):
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = _state()
            stack = state.stack
            stack.append(0.0)
            before = args[0].event_count if count_events else 0
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = state.spans.get(name)
                if row is None:
                    row = state.spans[name] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - child
            if count_events:
                state.events += args[0].event_count - before
            if count_bytes:
                row[3] += len(result)
            return result

        return traced

    @classmethod
    def _wrap_schedule(cls, fn):
        """``Simulator.schedule_at`` with its callback counted per
        layer; the span covers the original call only."""
        inner = cls._wrap("sim.schedule_at", fn)

        @functools.wraps(fn)
        def traced(self, at, callback, priority=0, daemon=False):
            counted = _Counted((owner_layer(callback), bool(daemon)),
                               callback)
            return inner(self, at, counted, priority, daemon)

        return traced

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        """Aggregate every thread's spans into the per-layer metrics
        this tracer can compute on its own (``sim.host_us_per_event``,
        ``trace.overhead``, ``live.sim_lag_max_s`` and
        ``client.late_max_ms`` need the untraced run or the client and
        are filled in by the caller)."""
        spans: Dict[str, List[float]] = {}
        fired: Dict[Tuple[str, bool], int] = {}
        events = 0
        for state in list(self.states):
            for name, row in list(state.spans.items()):
                total = spans.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    total[i] += row[i]
            for key, count in list(state.fired.items()):
                fired[key] = fired.get(key, 0) + count
            events += state.events
        out: Dict[str, float] = {}
        for name in REPORTED_SPANS:
            row = spans.get(name, [0, 0.0, 0.0, 0])
            out[f"{name}.calls"] = row[0]
            out[f"{name}.self_s"] = row[2]

        def calls(name: str) -> int:
            return spans.get(name, [0])[0]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["sim.events"] = events
        counted = 0
        for layer in EVENT_LAYERS:
            count = fired.get((layer, False), 0) + fired.get((layer, True), 0)
            out[f"events.{layer}"] = count
            counted += count
        # Events already on a restored heap were scheduled before the
        # tracer saw them; they count as "other".
        out["events.other"] += max(0, events - counted)
        daemon = sum(n for (_, is_daemon), n in fired.items() if is_daemon)
        out["sim.daemon_event_share"] = ratio(daemon, events)
        out["cluster.paging.hit_ratio"] = (
            1.0 - ratio(calls("cluster.paging.assess_uncached"),
                        calls("cluster.paging.assess"))
            if calls("cluster.paging.assess") else 0.0)
        out["scheduling.migration_yield"] = ratio(
            calls("scheduling.migrate"), calls("scheduling.handle_overload"))
        out["core.reserve_yield"] = ratio(calls("core.reserve"),
                                          calls("core.on_blocking"))
        snapshot = spans.get("checkpoint.snapshot", [0, 0.0, 0.0, 0])
        out["checkpoint.bytes"] = ratio(snapshot[3], snapshot[0])
        dispatch = spans.get("sim.dispatch", [0, 0.0, 0.0, 0])
        out["trace.coverage"] = (1.0 - ratio(dispatch[2], dispatch[1])
                                 if dispatch[1] else 0.0)
        return out


def main(argv: Optional[List[str]] = None) -> int:
    """Run the runner CLI under the tracer; write the report as JSON."""
    import argparse

    parser = argparse.ArgumentParser(
        description="run repro.experiments.runner with layer tracing")
    parser.add_argument("--report-out", required=True)
    parser.add_argument("runner_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    runner_args = args.runner_args
    if runner_args[:1] == ["--"]:
        runner_args = runner_args[1:]
    tracer = LayerTracer().install()
    from repro.experiments import runner
    try:
        return runner.main(runner_args)
    finally:
        with open(args.report_out, "w", encoding="utf-8") as stream:
            json.dump({"layers": tracer.report(),
                       "missing": tracer.missing}, stream)


if __name__ == "__main__":
    sys.exit(main())
