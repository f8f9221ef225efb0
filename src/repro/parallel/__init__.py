"""Work–depth cost model, union-find and the multicore worker pool.

The paper analyses all of its algorithms in the shared-memory work–depth
model: *work* is the total number of operations and *depth* the longest chain
of sequential dependencies; Brent's theorem turns a ``(W, D)`` pair into a
running-time bound ``W/p + D`` on ``p`` processors.

CPython's GIL prevents a faithful shared-memory implementation, so this
subpackage provides (see README, "Parallel execution"):

* :class:`~repro.parallel.scheduler.WorkDepthTracker` — algorithms report the
  work and depth they incur, and the tracker converts those into simulated
  running times for any processor count via Brent's bound.
* :class:`~repro.parallel.unionfind.UnionFind` — the array-backed disjoint-set
  forest behind every Kruskal batch and dendrogram construction, charging its
  finds and batched unions to the active tracker.

:mod:`~repro.parallel.pool` provides the *real* multicore execution engine: a
persistent :class:`~repro.parallel.pool.WorkerPool` of daemon threads (NumPy
releases the GIL inside its C kernels) that every batched hot path — BCCP
size-class tensors, k-NN blocks, WSPD predicate masks, the chunked Kruskal
merge sort — shards work onto with fixed, thread-count-independent chunk
boundaries, so threaded runs are byte-identical to single-threaded ones.  The
simulated Brent-bound curves and the measured wall-clock curves of
``benchmarks/bench_parallel_scaling.py`` are therefore directly comparable.
"""

from repro.parallel.scheduler import (
    WorkDepthTracker,
    current_tracker,
    use_tracker,
    simulated_time,
    simulated_speedups,
)
from repro.parallel.unionfind import UnionFind
from repro.parallel.pool import (
    WorkerPool,
    Workspace,
    current_workspace,
    get_pool,
    map_shards,
    parallel_map,
    shard_ranges,
    shutdown_pools,
)

__all__ = [
    "WorkDepthTracker",
    "current_tracker",
    "use_tracker",
    "simulated_time",
    "simulated_speedups",
    "UnionFind",
    "WorkerPool",
    "Workspace",
    "current_workspace",
    "get_pool",
    "map_shards",
    "parallel_map",
    "shard_ranges",
    "shutdown_pools",
]
