"""Shared test fixtures: tiny clusters and jobs with known behaviour."""

from repro.cluster import Cluster, ClusterConfig, WorkstationSpec
from repro.cluster.job import Job, MemoryProfile


def tiny_config(num_nodes=4, memory_mb=100.0, cpu_threshold=3,
                **kwargs) -> ClusterConfig:
    defaults = dict(
        num_nodes=num_nodes,
        spec=WorkstationSpec(memory_mb=memory_mb, swap_mb=memory_mb),
        kernel_reserved_mb=0.0,
        load_exchange_interval_s=0.0,   # fresh load info for determinism
        monitor_interval_s=0.5,
        cpu_threshold=cpu_threshold,
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def tiny_cluster(**kwargs) -> Cluster:
    return Cluster(tiny_config(**kwargs))


def job(work=50.0, demand=30.0, home=0, submit=0.0, **kwargs) -> Job:
    return Job(program=kwargs.pop("program", "t"), cpu_work_s=work,
               memory=MemoryProfile.constant(demand),
               home_node=home, submit_time=submit, **kwargs)


def drive(policy, jobs):
    """Schedule submissions for ``jobs`` through ``policy``."""
    sim = policy.cluster.sim
    for j in jobs:
        sim.schedule_at(j.submit_time, lambda j=j: policy.submit(j))


#: Flag bits of a state row, in the order :func:`object_row` reads the
#: matching ``Workstation`` properties.
ROW_FLAGS = ("alive", "reserved", "thrashing", "accepting",
             "has_starving_job")


def state_row(state, node_id):
    """One node's row of the cluster's columnar state, in the shape of
    :func:`object_row`."""
    from repro.cluster.state import (FLAG_ACCEPTING, FLAG_ALIVE,
                                     FLAG_RESERVED, FLAG_STARVING,
                                     FLAG_THRASHING)

    bits = state.flags[node_id]
    return (state.idle_memory_mb[node_id], state.total_demand_mb[node_id],
            state.fault_rate_per_s[node_id], state.num_running[node_id],
            state.inbound_jobs[node_id],
            [bool(bits & flag) for flag in (
                FLAG_ALIVE, FLAG_RESERVED, FLAG_THRASHING,
                FLAG_ACCEPTING, FLAG_STARVING)])


def object_row(node):
    """The quantities a state row holds, read through the node's
    object API (the reference the columns must equal)."""
    return (node.idle_memory_mb, node.total_demand_mb,
            node.fault_rate_per_s, node.num_running, node.inbound_jobs,
            [getattr(node, name) for name in ROW_FLAGS])
