"""Columnar (struct-of-arrays) cluster hot state.

At a few hundred nodes the simulation's wall time is no longer spent
in the event core but in everything that *reads* per-node state in
bulk: the 1 Hz metrics collector, the load-information exchange, the
obs sampler, and candidate filtering all walked N ``Workstation``
objects through Python properties.  :class:`ClusterState` stores the
published per-node quantities as contiguous columns — one
``array('d')``/``array('l')``/``bytearray`` per quantity — so batch
consumers read C-backed buffers instead of making ``O(N)`` attribute
calls per tick (the storage layout the obs sampler already proved).

Ownership contract:

* every :class:`~repro.cluster.workstation.Workstation` *writes
  through* to its row (``Workstation._sync_row``) whenever its
  externally visible state changes — the same instants it notifies its
  change listeners — so a column always equals what the corresponding
  property would return;
* batch readers (collector, sampler, load directory, cluster-wide
  queries) read columns directly and never touch node objects;
* per-object reads (``node.idle_memory_mb`` and friends) keep their
  existing row-local caches, so the object API costs exactly what it
  did before;
* the same write-through keeps the *balance moments* — exact ints
  ``(n, Σc, Σc²)`` of the running-job column over alive, unreserved
  nodes — by counting the row's old values out and its new values in
  (:meth:`move_balance`), so the collector's job-balance skew is O(1).

The obs sampler stores the low three flag bits (alive, reserved,
thrashing) per sample, copying a whole flag row with one
``bytes.translate``.

Every cluster builds one state; it is the only per-node state the
batch consumers read.  ``tests/test_balance_moments.py`` checks the
columns against the object API after every kind of mutation.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

#: Flag bits of one node's ``flags`` byte.  The obs sampler keeps the
#: low three (see module docstring).
FLAG_ALIVE = 1
FLAG_RESERVED = 2
FLAG_THRASHING = 4
FLAG_ACCEPTING = 8
FLAG_STARVING = 16

#: ``bytes.translate`` table projecting a flags byte onto the sampler
#: bits (alive | reserved | thrashing).
SAMPLER_FLAG_MASK = bytes((i & 7) for i in range(256))

#: Flag bits that decide whether a row counts in the balance moments:
#: it does exactly when ``bits & BALANCE_MASK == FLAG_ALIVE``.
BALANCE_MASK = FLAG_ALIVE | FLAG_RESERVED


class ClusterState:
    """Struct-of-arrays view of every node's published hot state.

    Columns are indexed by node id.  Float columns hold exactly the
    value the corresponding :class:`Workstation` property returns at
    the same instant (``idle_memory_mb`` includes the dead-node-is-0
    rule, for example), so summing a column left to right is
    bit-identical to summing the properties left to right.
    """

    __slots__ = ("num_nodes", "user_memory_mb", "total_demand_mb",
                 "idle_memory_mb", "fault_rate_per_s", "num_running",
                 "inbound_jobs", "flags", "balance_n", "balance_sum",
                 "balance_sumsq")

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        zeros = [0.0] * num_nodes
        #: Static user-space memory per node (written once per node).
        self.user_memory_mb = array("d", zeros)
        #: Sum of current per-job demands (``total_demand_mb``).
        self.total_demand_mb = array("d", zeros)
        #: ``idle_memory_mb`` property value (0.0 for a dead node).
        self.idle_memory_mb = array("d", zeros)
        #: Aggregate page faults per second (``fault_rate_per_s``).
        self.fault_rate_per_s = array("d", zeros)
        #: Running-job count per node.
        self.num_running = array("l", [0] * num_nodes)
        #: In-flight arrivals holding a slot (``inbound_jobs``).
        self.inbound_jobs = array("l", [0] * num_nodes)
        #: FLAG_* bits per node; nodes start alive.
        self.flags = bytearray([FLAG_ALIVE]) * num_nodes
        #: Balance moments: every node starts alive, unreserved, idle.
        self.balance_n = num_nodes
        self.balance_sum = 0
        self.balance_sumsq = 0

    def move_balance(self, old_bits: int, old_count: int, bits: int,
                     count: int) -> None:
        """Count one row's old (flags, running count) out of the
        balance moments and its new values in."""
        if old_bits & BALANCE_MASK == FLAG_ALIVE:
            self.balance_n -= 1
            self.balance_sum -= old_count
            self.balance_sumsq -= old_count * old_count
        if bits & BALANCE_MASK == FLAG_ALIVE:
            self.balance_n += 1
            self.balance_sum += count
            self.balance_sumsq += count * count

    # ------------------------------------------------------------------
    # batch views
    # ------------------------------------------------------------------
    def reserved_ids(self) -> List[int]:
        """Node ids with the reserved flag set, ascending."""
        return [node_id for node_id, bits in enumerate(self.flags)
                if bits & FLAG_RESERVED]

    def sampler_flags(self) -> bytes:
        """All flag bytes projected onto the obs-sampler bit packing."""
        return bytes(self.flags).translate(SAMPLER_FLAG_MASK)

    def balance_moments(self) -> Tuple[int, int, int]:
        """``(n, Σc, Σc²)`` of the running-job counts of alive,
        unreserved nodes."""
        return self.balance_n, self.balance_sum, self.balance_sumsq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ClusterState n={self.num_nodes}"
                f" balance={self.balance_moments()}>")
