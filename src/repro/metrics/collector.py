"""Periodic cluster sampling.

The paper collects the total idle memory volume and the number of
active jobs in each workstation every second (§4.1-4.2), and verifies
that the averages are insensitive to the sampling interval (we expose
the interval so the benchmark suite can repeat that check).

Each sample keeps only scalars, read from the cluster's columnar
:class:`~repro.cluster.state.ClusterState`.  The job-balance skew
comes from three exact integer moments of the running-job counts among
alive, non-reserved workstations, ``(n, Σc, Σc²)``, via
:func:`job_balance_skew`.  The state keeps those moments at its
write-through, so the skew is O(1) however many nodes there are; the
collector also re-reads the idle-memory column and reserved flags only
on ticks after some node changed (a clean tick reuses the previous
values: same inputs, same arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.state import FLAG_RESERVED


@dataclass(frozen=True)
class ClusterSample:
    """One sampling instant."""

    time: float
    total_idle_memory_mb: float
    #: Standard deviation of active jobs among alive, non-reserved
    #: nodes (see :func:`job_balance_skew`).
    job_balance_skew: float
    num_reserved: int
    pending_jobs: int


#: ``bytes.translate`` table over the packed flags column marking
#: reserved nodes: C-speed count of all N nodes at once.
_RESERVED_TABLE = bytes(1 if b & FLAG_RESERVED else 0 for b in range(256))


def job_balance_skew(n: int, total: int, total_sq: int) -> float:
    """Population standard deviation of ``n`` job counts whose sum is
    ``total`` and sum of squares ``total_sq``; 0.0 when ``n`` is 0.

    The variance ``(n·Σc² − (Σc)²) / n²`` is one correctly rounded int
    division, so the result is within one ulp of the exact value.
    """
    if n == 0:
        return 0.0
    return math.sqrt((n * total_sq - total * total) / (n * n))


class PolicyPendingProbe:
    """Picklable pending-queue probe: ``probe()`` returns the policy's
    current pending count.  Used instead of a lambda so a collector
    wired to a policy can cross a checkpoint boundary; forks repoint
    :attr:`policy` at the successor."""

    __slots__ = ("policy",)

    def __init__(self, policy):
        self.policy = policy

    def __call__(self) -> int:
        return self.policy.pending_count


class MetricsCollector:
    """Samples cluster state every ``sample_interval_s`` seconds."""

    def __init__(self, cluster: Cluster,
                 sample_interval_s: Optional[float] = None,
                 pending_probe=None):
        self.cluster = cluster
        self.sample_interval_s = (
            sample_interval_s if sample_interval_s is not None
            else cluster.config.sample_interval_s)
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        #: Optional callable returning the current pending-queue length.
        self.pending_probe = pending_probe
        self.samples: List[ClusterSample] = []
        self._state = cluster.state
        # Change-driven caching: any externally visible node change
        # flags the next tick for recomputation; clean ticks reuse the
        # previous components verbatim.  The pending-queue length is
        # NOT cached — enqueueing a pending job causes no node change,
        # so it is probed fresh every tick.
        self._dirty = True
        self._cached_idle = 0.0
        self._cached_skew = 0.0
        self._cached_reserved = 0
        for node in cluster.nodes:
            node.add_change_listener(self._mark_dirty)
        cluster.sim.every(self.sample_interval_s, self._tick, priority=4)

    def _tick(self) -> None:
        self.sample()

    def _mark_dirty(self, node) -> None:
        self._dirty = True

    def sample(self) -> ClusterSample:
        """Take one sample immediately (also used by tests).

        Components are recomputed from the state columns and balance
        moments only when a node changed since the last sample; a
        clean tick's reused components are what recomputation would
        produce (no node changed, so no input changed).
        """
        state = self._state
        if self._dirty:
            self._dirty = False
            self._cached_idle = sum(state.idle_memory_mb)
            self._cached_skew = job_balance_skew(*state.balance_moments())
            self._cached_reserved = state.flags.translate(
                _RESERVED_TABLE).count(1)
        pending = self.pending_probe() if self.pending_probe else 0
        sample = ClusterSample(
            time=self.cluster.sim.now,
            total_idle_memory_mb=self._cached_idle,
            job_balance_skew=self._cached_skew,
            num_reserved=self._cached_reserved,
            pending_jobs=pending,
        )
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    def average_idle_memory_mb(self, until: Optional[float] = None) -> float:
        """Time-averaged total idle memory over the workload lifetime."""
        total = 0.0
        count = 0
        for s in self.samples:
            if until is not None and s.time > until:
                break
            total += s.total_idle_memory_mb
            count += 1
        return total / count if count else 0.0

    def average_job_balance_skew(self, until: Optional[float] = None
                                 ) -> float:
        """Time-averaged balance skew among non-reserved workstations."""
        total = 0.0
        count = 0
        for s in self.samples:
            if until is not None and s.time > until:
                break
            total += s.job_balance_skew
            count += 1
        return total / count if count else 0.0

    def reserved_node_seconds(self) -> float:
        """Integral of the reserved-node count (reconfiguration cost).

        Integrates over the *actual* spacing between samples: each
        sample's count is held for the interval since the previous one
        (left-closed step function from t=0), so manual :meth:`sample`
        calls between periodic ticks refine the integral instead of
        each being billed a full ``sample_interval_s``.
        """
        total = 0.0
        last_time = 0.0
        for s in self.samples:
            total += s.num_reserved * (s.time - last_time)
            last_time = s.time
        return total
