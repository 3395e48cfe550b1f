"""MPI-style parallel substrate: simulated communicator, partitioning,
halo exchange and real multiprocessing scaling runs."""

from .comm import CommError, SimComm, run_ranks
from .partition import (
    element_adjacency,
    greedy_graph_partition,
    partition_quality,
    rcb_partition,
    sfc_partition,
)
from .halo import SubdomainPlan, build_plans, post_interface, reduce_interface
from .runner import (
    MultiprocessRunner,
    ScalingPoint,
    WorkerPolicy,
    assemble_partitioned,
)
from .shutdown import (
    SHM_PREFIX,
    create_shared_memory,
    install_shutdown_handler,
    live_segment_names,
    purge_shared_memory,
    release_shared_memory,
)
from .threads import (
    get_thread_pool,
    resolve_num_threads,
    shutdown_thread_pools,
)

__all__ = [
    "CommError", "SimComm", "run_ranks",
    "element_adjacency", "greedy_graph_partition", "partition_quality",
    "rcb_partition", "sfc_partition",
    "SubdomainPlan", "build_plans", "post_interface", "reduce_interface",
    "MultiprocessRunner", "ScalingPoint", "WorkerPolicy",
    "assemble_partitioned",
    "SHM_PREFIX", "create_shared_memory", "install_shutdown_handler",
    "live_segment_names", "purge_shared_memory", "release_shared_memory",
    "get_thread_pool", "resolve_num_threads", "shutdown_thread_pools",
]
