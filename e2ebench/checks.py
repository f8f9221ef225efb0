"""Output checks against independent oracles.

Every check takes plain arrays and returns ``None`` when the output is
correct, or a one-line reason when it is not.  The oracles are scipy
(``cKDTree``, ``csgraph``) and a dense Prim sweep written here, never the
program's own code paths.  Floating-point results are compared with
tolerances rather than digests: a correct change to the core-distance kernel
may legitimately move last bits, and a digest would reject it.

Checks run outside every timed window.  ``selftest.py`` feeds each one a
corrupted output and expects a reason back.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

#: Relative tolerance for distances and MST weights.
RTOL = 1e-9
#: Absolute slack on squared distances, in units of the largest squared
#: point norm: a distance kernel built on |a|^2 + |b|^2 - 2 a.b is exact to
#: a few ulps of the norms, not of the (possibly tiny) distance.
NORM_ULPS = 64 * np.finfo(np.float64).eps


def oracle_core_distances(points: np.ndarray, min_pts: int) -> np.ndarray:
    """Distance to the ``min_pts``-th nearest neighbour, counting the point."""
    if min_pts == 1:
        return np.zeros(points.shape[0])
    distances, _ = cKDTree(points).query(points, k=min_pts)
    return distances[:, -1]


def dense_prim_weights(points: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Sorted mutual-reachability MST weights, by an O(n^2) Prim sweep.

    The edge weight is ``max(core[u], core[v], |u - v|)``.  The vertices not
    yet in the tree are kept packed at the front of the arrays
    (swap-with-last on removal), so each step touches only them.
    """
    n = points.shape[0]
    coords = np.ascontiguousarray(points.T, dtype=np.float64)
    cores = np.asarray(core, dtype=np.float64).copy()
    best = np.full(n, np.inf)
    weights = np.empty(max(n - 1, 0))
    live = n

    def remove(position: int) -> None:
        last = live - 1
        coords[:, [position, last]] = coords[:, [last, position]]
        best[[position, last]] = best[[last, position]]
        cores[[position, last]] = cores[[last, position]]

    remove(0)
    live -= 1
    for step in range(n - 1):
        added = coords[:, live].copy()
        diff = coords[:, :live] - added[:, None]
        reach = np.sqrt(np.einsum("ij,ij->j", diff, diff))
        np.maximum(reach, cores[:live], out=reach)
        np.maximum(reach, cores[live], out=reach)
        np.minimum(best[:live], reach, out=best[:live])
        nearest = int(np.argmin(best[:live]))
        weights[step] = best[nearest]
        remove(nearest)
        live -= 1
    return np.sort(weights)


def _close(got: np.ndarray, want: np.ndarray, points: np.ndarray) -> bool:
    """Distances agree, compared as squares with the kernel's error slack."""
    if got.shape != want.shape:
        return False
    slack = NORM_ULPS * 4.0 * float(np.max(np.einsum("ij,ij->i", points, points)))
    return bool(np.allclose(got * got, want * want, rtol=RTOL, atol=slack))


def check_core_distances(
    points: np.ndarray, core: np.ndarray, min_pts: int
) -> Optional[str]:
    want = oracle_core_distances(points, min_pts)
    if not _close(np.asarray(core), want, points):
        return "core distances differ from the cKDTree k-NN oracle"
    return None


def check_mst_weights(
    points: np.ndarray, weights: np.ndarray, core: np.ndarray
) -> Optional[str]:
    """The MST weight multiset equals the dense Prim oracle's."""
    want = dense_prim_weights(points, core)
    if not _close(np.sort(np.asarray(weights)), want, points):
        return "MST weight multiset differs from the dense Prim oracle"
    return None


def check_spanning_tree(n: int, u: np.ndarray, v: np.ndarray) -> Optional[str]:
    if u.size != n - 1:
        return f"MST has {u.size} edges, expected {n - 1}"
    graph = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    components, _ = connected_components(graph, directed=False)
    if components != 1:
        return f"MST edges leave {components} components"
    return None


def check_dendrogram_heights(
    heights: np.ndarray, weights: np.ndarray
) -> Optional[str]:
    """Each internal node's height is one MST weight, and all are used."""
    if not np.array_equal(np.sort(heights), np.sort(weights)):
        return "dendrogram heights are not the sorted MST weights"
    return None


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by first occurrence, keeping noise at ``-1``."""
    labels = np.asarray(labels)
    out = np.full(labels.shape, -1, dtype=np.int64)
    clustered = labels >= 0
    _, first, inverse = np.unique(
        labels[clustered], return_index=True, return_inverse=True
    )
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    out[clustered] = rank[inverse]
    return out


def oracle_epsilon_labels(
    points: np.ndarray, core: np.ndarray, epsilon: float, min_cluster_size: int
) -> np.ndarray:
    """DBSCAN* from its definition, without the MST.

    Core points are those with core distance at most ``epsilon``; two core
    points are linked when they lie within ``epsilon`` of each other.
    Clusters are the csgraph components of that graph; components with
    fewer than ``min_cluster_size`` points, and all non-core points, are
    noise.
    """
    n = points.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    members = np.flatnonzero(core <= epsilon)
    if members.size == 0:
        return labels
    pairs = cKDTree(points[members]).query_pairs(epsilon, output_type="ndarray")
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(members.size, members.size),
    )
    _, component = connected_components(graph, directed=False)
    sizes = np.bincount(component)
    large = sizes[component] >= min_cluster_size
    labels[members[large]] = component[large]
    return canonical_labels(labels)


def check_epsilon_cut(
    points: np.ndarray,
    core: np.ndarray,
    epsilon: float,
    min_cluster_size: int,
    labels: np.ndarray,
) -> Optional[str]:
    want = oracle_epsilon_labels(points, core, epsilon, min_cluster_size)
    if not np.array_equal(canonical_labels(labels), want):
        return f"epsilon={epsilon:.6g} cut differs from the csgraph oracle"
    return None


def check_training_predict(
    predicted: np.ndarray, fitted: np.ndarray
) -> Optional[str]:
    """Predicting the training points reproduces the fitted labels."""
    if not np.array_equal(np.asarray(predicted), np.asarray(fitted)):
        return "predict on the training points differs from the fitted labels"
    return None


def check_same_state(
    updated: Dict[str, np.ndarray], cold: Dict[str, np.ndarray]
) -> Optional[str]:
    """Every array of the churned state is byte-identical to a cold fit's."""
    if set(updated) != set(cold):
        return "churned state and cold refit hold different arrays"
    for name in sorted(cold):
        got, want = np.asarray(updated[name]), np.asarray(cold[name])
        if (
            got.dtype != want.dtype
            or got.shape != want.shape
            or got.tobytes() != want.tobytes()
        ):
            return f"churned state array {name!r} differs from the cold refit"
    return None
