"""HDBSCAN*-GanTao and HDBSCAN*-MemoGFK: one engine, two separations (Section 3.2).

Both drivers compute core distances with ``minPts``-nearest-neighbour
queries, build a kd-tree, and run the MemoGFK engine
(:func:`repro.emst.memogfk.memogfk_mst`) with BCCP* (bichromatic closest
pair under the mutual reachability distance) edge weights.  As in the paper's
implementation, pairs are retrieved round by round rather than materialized,
so the two drivers differ only in the well-separation predicate — exactly the
comparison the paper's experiments isolate:

* **GanTao** (Section 3.2.1), the parallelized exact version of Gan & Tao's
  algorithm, uses the standard *geometric* well-separation;
* **MemoGFK** (Section 3.2.2), the paper's space-efficient algorithm, uses
  the new disjunctive notion — a pair is well-separated when it is
  *geometrically separated* **or** *mutually unreachable* — so the recursion
  terminates earlier and far fewer pairs are ever generated (Theorem 3.2
  proves the MST over the resulting BCCP* edges is still an MST of the full
  mutual reachability graph; Theorem 3.3 gives the O(n · minPts) space
  bound).

Every stage runs on the flat array engine: the window traversals evaluate
the separation and ρ-window tests over whole node frontiers at once, and each
round's surviving pairs are resolved by the batched BCCP* size-class kernel
and the vectorized Kruskal batch.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.emst.memogfk import memogfk_mst
from repro.emst.result import EMSTResult
from repro.hdbscan.core_distance import core_distances as compute_core_distances
from repro.mst.edges import EdgeList
from repro.spatial.kdtree import KDTree


def _hdbscan_mst(
    points,
    min_pts: int,
    *,
    method: str,
    separation: str,
    leaf_size: int,
    core_dists: Optional[np.ndarray],
    num_threads: Optional[int],
    metric: MetricLike,
    checkpoint=None,
) -> EMSTResult:
    """Core distances, kd-tree and one MemoGFK run under ``separation``."""
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, method)

    timings = {}
    start = time.perf_counter()
    if core_dists is None:
        core_dists = compute_core_distances(
            data, min(min_pts, n), num_threads=num_threads, metric=metric
        )
    timings["core-dist"] = time.perf_counter() - start

    start = time.perf_counter()
    tree = KDTree(data, leaf_size=leaf_size, metric=metric)
    timings["build-tree"] = time.perf_counter() - start

    start = time.perf_counter()
    edges, stats = memogfk_mst(
        tree,
        separation=separation,
        core_distances=core_dists,
        num_threads=num_threads,
        checkpoint=checkpoint,
    )
    timings["wspd+kruskal"] = time.perf_counter() - start

    stats.update({f"time_{name}": value for name, value in timings.items()})
    stats["min_pts"] = min_pts
    return EMSTResult(edges, n, method, stats=stats)


def hdbscan_mst_gantao(
    points,
    min_pts: int = 10,
    *,
    leaf_size: int = 1,
    core_dists: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """Exact MST of the mutual reachability graph, Gan & Tao style.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points.
    min_pts:
        HDBSCAN* ``minPts`` parameter.
    leaf_size:
        kd-tree leaf size for the WSPD.
    core_dists:
        Optional precomputed core distances (skips the k-NN step).
    num_threads:
        Worker threads for every batched stage — the core-distance k-NN
        blocks and the MemoGFK-engine traversal/BCCP*/Kruskal rounds all
        shard onto the persistent worker pool with deterministic chunking,
        so the MST is byte-identical at any thread count.
    metric:
        Distance metric the core distances and mutual reachability are taken
        under (name, Metric instance, or ``None`` for Euclidean).
    """
    return _hdbscan_mst(
        points,
        min_pts,
        method="hdbscan-gantao",
        separation="geometric",
        leaf_size=leaf_size,
        core_dists=core_dists,
        num_threads=num_threads,
        metric=metric,
    )


def hdbscan_mst_memogfk(
    points,
    min_pts: int = 10,
    *,
    leaf_size: int = 1,
    core_dists: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    checkpoint=None,
) -> EMSTResult:
    """Exact MST of the mutual reachability graph with the new well-separation.

    Parameters are identical to :func:`hdbscan_mst_gantao`, plus
    ``checkpoint``: a :class:`~repro.resilience.checkpoint.CheckpointManager`
    enabling the per-round state commits of
    :func:`repro.emst.memogfk.memogfk_mst` (the ``hdbscan()`` entry point
    wires this up from its ``checkpoint_dir=``).
    """
    return _hdbscan_mst(
        points,
        min_pts,
        method="hdbscan-memogfk",
        separation="hdbscan",
        leaf_size=leaf_size,
        core_dists=core_dists,
        num_threads=num_threads,
        metric=metric,
        checkpoint=checkpoint,
    )
