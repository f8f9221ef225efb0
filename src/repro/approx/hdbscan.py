"""Approximate HDBSCAN*: an ε-certified mutual-reachability MST.

The same pipeline as :mod:`repro.approx.emst` (one shared driver,
:func:`repro.approx.emst.approx_mst`), run under the mutual reachability
distance ``mr(u, v) = max(cd(u), cd(v), d(u, v))``: the
FIND_PAIR recursion splits a pair ``(A, B)`` until it is classically
well-separated **and** the mutual reachability of its representative edge is
certified within ``(1 + ε)`` of the pair's BCCP* against the per-pair lower
bound ``max(d(A, B), d(rep) − diam(A) − diam(B), cd_min(A), cd_min(B))`` —
the same bound the exact MemoGFK window pruning uses.  A node whose
representative has an unrepresentative core distance simply fails the
certificate and is split further, bottoming out at singleton pairs (whose
representative *is* their BCCP*).  With ``minPts = 1`` every core distance
is 0 and the result is the approximate EMST, edge for edge.

Unlike the Appendix C reproduction (:mod:`repro.hdbscan.optics_approx`) —
which scales distances by ``1/(1+ρ)`` to preserve OPTICS ordering semantics
and loops over pairs in Python — every candidate edge here carries its
*true* mutual reachability distance and the whole pipeline runs on the
array engine: the certificate is a vectorized frontier mask, weights come
from one sharded ``exact_edge_weights`` sweep, and the candidate MST runs
through the chunk-pruned Kruskal.  The kd-tree skeleton rides along for
structural connectivity, so the result is always a spanning tree of genuine
mutual reachability distances with total weight in
``[w_exact, (1 + ε) · w_exact]``.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.approx.emst import approx_mst
from repro.core.errors import InvalidParameterError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.emst.result import EMSTResult
from repro.hdbscan.core_distance import core_distances as compute_core_distances
from repro.hdbscan.memogfk import hdbscan_mst_memogfk
from repro.hdbscan.result import HDBSCANResult
from repro.mst.edges import EdgeList


def approx_hdbscan_mst(
    points,
    min_pts: int = 10,
    *,
    epsilon: float = 0.1,
    leaf_size: int = 1,
    core_dists: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """(1+ε)-approximate MST of the mutual reachability graph.

    Registered as HDBSCAN* method ``"wspd-approx"``.  The returned tree is a
    spanning tree of true mutual reachability distances with total weight in
    ``[w_exact, (1 + ε) · w_exact]``.  ``ε = 0`` delegates to the exact
    HDBSCAN*-MemoGFK engine; negative ε raises.

    Parameters mirror :func:`repro.hdbscan.memogfk.hdbscan_mst_memogfk` plus
    ``epsilon``; ``num_threads`` shards the k-NN blocks (when core distances
    are computed here), the certificate sweeps, the weight sweep and the
    Kruskal argsort onto the persistent pool, so the tree is byte-identical
    at any setting.
    """
    if epsilon < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    data = as_points(points, min_points=1)
    if epsilon == 0:
        return hdbscan_mst_memogfk(
            data,
            min_pts,
            leaf_size=leaf_size,
            core_dists=core_dists,
            num_threads=num_threads,
            metric=metric,
        )
    resolved_metric = resolve_metric(metric)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(
            EdgeList(), 1, "hdbscan-wspd-approx", stats={"epsilon": float(epsilon)}
        )

    start = time.perf_counter()
    if core_dists is None:
        core_dists = compute_core_distances(
            data, min(min_pts, n), num_threads=num_threads, metric=resolved_metric
        )
    else:
        core_dists = np.asarray(core_dists, dtype=np.float64)
    core_time = time.perf_counter() - start

    result = approx_mst(
        data,
        epsilon,
        "hdbscan-wspd-approx",
        core_distances=core_dists,
        leaf_size=leaf_size,
        num_threads=num_threads,
        metric=resolved_metric,
    )
    result.stats["min_pts"] = int(min_pts)
    result.stats["time_core-dist"] = core_time
    return result


def approx_hdbscan(
    points,
    min_pts: int = 10,
    epsilon: float = 0.1,
    *,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    **kwargs,
) -> HDBSCANResult:
    """Full approximate HDBSCAN* pipeline (core distances, (1+ε)-approximate
    mutual-reachability MST, ordered dendrogram).

    A thin convenience over ``hdbscan(..., method="wspd-approx")``.  Quality
    contract: the MST weight is within ``(1 + ε)`` of exact, and the derived
    flat clusterings track the exact pipeline's closely at small ε — the ARI
    curves against the exact labels on the registry datasets are measured by
    ``benchmarks/bench_approx_quality.py`` and summarized in the README's
    Approximation section.
    """
    from repro.hdbscan.api import hdbscan

    return hdbscan(
        points,
        min_pts=min_pts,
        method="wspd-approx",
        epsilon=epsilon,
        num_threads=num_threads,
        metric=metric,
        **kwargs,
    )
