"""The columnar write-through and the balance moments it keeps.

``ClusterState`` holds every node's published state as columns,
written by ``Workstation._sync_row``, plus ``(n, Σc, Σc²)`` of the
running-job column over alive, unreserved nodes, moved in O(1) by the
same write.  Hypothesis drives random interleavings of job arrivals,
completions, reservation flips, in-flight arrival counts, crashes and
recoveries on a tiny cluster.  After every step each row must equal
what the node's object API returns (the reference for the columns),
and the moments must equal a recount from the ``num_running`` and
``flags`` columns; a checkpoint round trip must carry both.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED
from repro.sim.checkpoint import restore_bytes, snapshot_bytes

from helpers import job, object_row, state_row, tiny_cluster

NUM_NODES = 3

node_ids = st.integers(min_value=0, max_value=NUM_NODES - 1)
operations = st.one_of(
    st.tuples(st.just("add"), node_ids,
              st.floats(min_value=1.0, max_value=30.0),
              st.floats(min_value=5.0, max_value=80.0)),
    st.tuples(st.just("run"), st.floats(min_value=0.5, max_value=20.0)),
    st.tuples(st.just("reserve"), node_ids, st.booleans()),
    st.tuples(st.just("inbound"), node_ids, st.integers(0, 2)),
    st.tuples(st.just("crash"), node_ids),
    st.tuples(st.just("recover"), node_ids),
)


def recount(state):
    counts = [count for count, bits in zip(state.num_running, state.flags)
              if bits & FLAG_ALIVE and not bits & FLAG_RESERVED]
    return len(counts), sum(counts), sum(c * c for c in counts)


def rows_and_nodes(cluster):
    """Each node's state row next to the same quantities read through
    the object API; equal pairs mean the write-through is current."""
    rows = [state_row(cluster.state, node.node_id) for node in cluster.nodes]
    return rows, [object_row(node) for node in cluster.nodes]


def apply(cluster, op):
    kind, *args = op
    if kind == "run":
        cluster.sim.run(until=cluster.sim.now + args[0])
        return
    node = cluster.nodes[args[0]]
    if kind == "add" and node.alive:
        node.add_job(job(work=args[1], demand=args[2]))
    elif kind == "reserve":
        node.reserved = args[1]
    elif kind == "inbound":
        node.inbound_jobs = args[1]
    elif kind == "crash" and node.alive:
        node.crash()
    elif kind == "recover" and not node.alive:
        node.recover()


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, min_size=1, max_size=40))
def test_moments_match_column_recount(ops):
    cluster = tiny_cluster(num_nodes=NUM_NODES)
    state = cluster.state
    assert state.balance_moments() == (NUM_NODES, 0, 0)
    for op in ops:
        apply(cluster, op)
        rows, nodes = rows_and_nodes(cluster)
        assert rows == nodes, op
        assert state.balance_moments() == recount(state), op
    data = snapshot_bytes(cluster=cluster,
                          policy=SimpleNamespace(name="none"),
                          collector=None, jobs=[], trace_name="moments")
    restored = restore_bytes(data, advance_counters=False).cluster
    rows, nodes = rows_and_nodes(restored)
    assert rows == nodes
    assert restored.state.balance_moments() == state.balance_moments()
    assert restored.state.balance_moments() == recount(restored.state)
