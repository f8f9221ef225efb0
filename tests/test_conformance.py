"""The cross-method conformance matrix.

One parametrized grid — method × metric × num_threads × dtype — asserting
that every *exact* EMST method returns the identical spanning tree (total
weight and edge set) on a generic-position dataset, that the exact HDBSCAN*
methods agree on the mutual-reachability MST weight, and that the
*approximate* methods honour their ``(1 + ε)`` weight contract instead.
This replaces the per-PR ad-hoc cross-check loops; the helpers live in
``tests/conformance.py`` and new methods/metrics join the matrix by being
registered (see that module's docstring).
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance import (
    APPROX_EMST_METHODS,
    CONFORMANCE_BACKEND_THREAD_COUNTS,
    CONFORMANCE_BACKENDS,
    CONFORMANCE_DTYPES,
    CONFORMANCE_EPSILONS,
    CONFORMANCE_MEMORY_BUDGETS,
    CONFORMANCE_METRICS,
    CONFORMANCE_THREAD_COUNTS,
    EXACT_EMST_METHODS,
    EXACT_HDBSCAN_METHODS,
    assert_bounded_agreement,
    assert_byte_identical,
    assert_same_tree,
    assert_weight_bound,
    backend_is_exact,
    canonical_edges,
    skip_unless_backend_available,
    skip_unless_supported,
)
from repro.approx import approx_emst, approx_hdbscan_mst
from repro.emst.api import emst
from repro.hdbscan.api import hdbscan
from repro.hdbscan.core_distance import core_distances

#: Conformance dataset shape: 2D so the Delaunay method participates, large
#: enough that the engines take their batched paths, small enough that the
#: O(n^2) bruteforce reference stays cheap.
N_POINTS = 150
DIMENSIONS = 2
MIN_PTS = 5


@pytest.fixture(scope="module")
def dataset():
    """Generic-position points per input dtype.

    The float32 input is a *different* dataset than the float64 one (its
    values round); each dtype cell is compared against the reference
    computed from the same input, which checks that coercion at the boundary
    is value-exact and shared by every method.
    """
    base = np.random.default_rng(421).random((N_POINTS, DIMENSIONS))
    return {
        "float64": base,
        "float32": base.astype(np.float32),
    }


@pytest.fixture(scope="module")
def emst_references(dataset):
    """Bruteforce EMST per (metric, dtype) — the matrix's ground truth."""
    cache = {}
    for metric in CONFORMANCE_METRICS:
        for dtype in CONFORMANCE_DTYPES:
            cache[(metric, dtype)] = emst(
                dataset[dtype], method="bruteforce", metric=metric
            )
    return cache


@pytest.fixture(scope="module")
def hdbscan_references(dataset):
    """Bruteforce mutual-reachability MST weight per (metric, dtype)."""
    cache = {}
    for metric in CONFORMANCE_METRICS:
        for dtype in CONFORMANCE_DTYPES:
            result = hdbscan(
                dataset[dtype],
                min_pts=MIN_PTS,
                method="bruteforce",
                metric=metric,
                compute_dendrogram=False,
            )
            cache[(metric, dtype)] = result.mst.total_weight
    return cache


class TestExactEMSTConformance:
    @pytest.mark.parametrize("method", EXACT_EMST_METHODS)
    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("num_threads", CONFORMANCE_THREAD_COUNTS)
    @pytest.mark.parametrize("dtype", CONFORMANCE_DTYPES)
    def test_same_tree(
        self, method, metric, num_threads, dtype, dataset, emst_references
    ):
        skip_unless_supported(method, metric, DIMENSIONS)
        result = emst(
            dataset[dtype], method=method, metric=metric, num_threads=num_threads
        )
        assert_same_tree(result, emst_references[(metric, dtype)])

    def test_canonical_edges_ignore_order_and_direction(self, dataset):
        result = emst(dataset["float64"], method="naive")
        edges = canonical_edges(result)
        assert np.all(edges[:, 0] < edges[:, 1])
        assert edges.shape == (N_POINTS - 1, 2)


class TestApproxEMSTConformance:
    @pytest.mark.parametrize("method", APPROX_EMST_METHODS)
    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("num_threads", CONFORMANCE_THREAD_COUNTS)
    @pytest.mark.parametrize("epsilon", CONFORMANCE_EPSILONS)
    def test_weight_bound(
        self, method, metric, num_threads, epsilon, dataset, emst_references
    ):
        result = emst(
            dataset["float64"],
            method=method,
            metric=metric,
            num_threads=num_threads,
            epsilon=epsilon,
        )
        assert_weight_bound(
            result,
            emst_references[(metric, "float64")].total_weight,
            epsilon,
            num_points=N_POINTS,
        )

    # "sample": the representative edges of the ε-certified decomposition,
    # called through approx_emst directly rather than the emst() registry.
    @pytest.mark.parametrize("representative", ("sample",))
    @pytest.mark.parametrize("epsilon", CONFORMANCE_EPSILONS)
    def test_representative_strategies(
        self, representative, epsilon, dataset, emst_references
    ):
        result = approx_emst(dataset["float64"], epsilon)
        assert_weight_bound(
            result,
            emst_references[("euclidean", "float64")].total_weight,
            epsilon,
            num_points=N_POINTS,
        )

    def test_epsilon_zero_is_exact(self, dataset, emst_references):
        result = emst(dataset["float64"], method="wspd-approx", epsilon=0.0)
        assert_same_tree(result, emst_references[("euclidean", "float64")])


class TestExactHDBSCANConformance:
    # Mutual reachability distances tie heavily (many pairs share a core
    # distance), so exact methods must agree on total weight but may pick
    # different (equally minimal) edge sets.
    @pytest.mark.parametrize("method", EXACT_HDBSCAN_METHODS)
    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("num_threads", CONFORMANCE_THREAD_COUNTS)
    @pytest.mark.parametrize("dtype", CONFORMANCE_DTYPES)
    def test_same_weight(
        self, method, metric, num_threads, dtype, dataset, hdbscan_references
    ):
        kwargs = {} if method == "bruteforce" else {"num_threads": num_threads}
        result = hdbscan(
            dataset[dtype],
            min_pts=MIN_PTS,
            method=method,
            metric=metric,
            compute_dendrogram=False,
            **kwargs,
        )
        assert result.mst.is_spanning_tree()
        assert result.mst.total_weight == pytest.approx(
            hdbscan_references[(metric, dtype)], rel=1e-9
        )


class TestBackendConformance:
    """The kernel-backend axis: backend × metric × num_threads.

    Exact (float64-scoring) backends must reproduce the default engine's
    tree **byte for byte** at every thread count; lowered (float32-scoring)
    backends are held to bounded weight/edge agreement — the same contract
    split the backend registry documents.
    """

    @pytest.fixture(scope="class")
    def emst_numpy_baseline(self, dataset):
        """Default-backend MemoGFK tree per metric (the byte-identity anchor)."""
        return {
            metric: emst(
                dataset["float64"], method="memogfk", metric=metric, backend="numpy"
            )
            for metric in CONFORMANCE_METRICS
        }

    @pytest.mark.parametrize("backend", CONFORMANCE_BACKENDS)
    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("num_threads", CONFORMANCE_BACKEND_THREAD_COUNTS)
    def test_emst_backend(
        self,
        backend,
        metric,
        num_threads,
        dataset,
        emst_references,
        emst_numpy_baseline,
    ):
        skip_unless_backend_available(backend)
        result = emst(
            dataset["float64"],
            method="memogfk",
            metric=metric,
            backend=backend,
            num_threads=num_threads,
        )
        if backend_is_exact(backend):
            assert_byte_identical(result, emst_numpy_baseline[metric])
        else:
            assert_bounded_agreement(result, emst_references[(metric, "float64")])

    @pytest.mark.parametrize("backend", CONFORMANCE_BACKENDS)
    @pytest.mark.parametrize("num_threads", CONFORMANCE_BACKEND_THREAD_COUNTS)
    def test_hdbscan_backend(
        self, backend, num_threads, dataset, hdbscan_references
    ):
        skip_unless_backend_available(backend)
        result = hdbscan(
            dataset["float64"],
            min_pts=MIN_PTS,
            method="memogfk",
            backend=backend,
            num_threads=num_threads,
            compute_dendrogram=False,
        )
        assert result.mst.is_spanning_tree()
        # Mutual-reachability weights tie heavily, so even exact backends are
        # compared on total weight (like the method matrix above); the lowered
        # backend gets the same bounded tolerance as its EMST contract.
        rel = 1e-9 if backend_is_exact(backend) else 1e-5
        assert result.mst.total_weight == pytest.approx(
            hdbscan_references[("euclidean", "float64")], rel=rel
        )

    @pytest.mark.parametrize("backend", CONFORMANCE_BACKENDS)
    @pytest.mark.parametrize("knn_method", ("bruteforce", "kdtree"))
    def test_core_distances_backend(self, backend, knn_method, dataset):
        skip_unless_backend_available(backend)
        reference = core_distances(
            dataset["float64"], MIN_PTS, method=knn_method, backend="numpy"
        )
        cds = core_distances(
            dataset["float64"], MIN_PTS, method=knn_method, backend=backend
        )
        assert cds.dtype == np.float64
        if backend == "numpy":
            assert np.array_equal(cds, reference)
        elif backend_is_exact(backend):
            # The compiled kernel accumulates squared differences directly
            # instead of the BLAS expansion, so raw k-NN distances may differ
            # in the last ulp even though the selected neighbour sets (and
            # every re-evaluated MST edge weight) agree.
            np.testing.assert_allclose(cds, reference, rtol=1e-12, atol=0.0)
        else:
            np.testing.assert_allclose(cds, reference, rtol=1e-5, atol=1e-7)


class TestMemoryBudgetConformance:
    """The memory-budget axis: budget × method × num_threads.

    A bounded :class:`~repro.core.budget.MemoryBudget` may change only tile
    and chunk sizes, so every cell is held to **byte-identity** against the
    unbudgeted run of the same method — including the one-byte budget, where
    every kernel clamps at its minimum tile.
    """

    @pytest.mark.parametrize("method", EXACT_EMST_METHODS)
    @pytest.mark.parametrize("memory_budget", CONFORMANCE_MEMORY_BUDGETS)
    def test_emst_budget(self, method, memory_budget, dataset):
        skip_unless_supported(method, "euclidean", DIMENSIONS)
        reference = emst(dataset["float64"], method=method)
        result = emst(
            dataset["float64"], method=method, memory_budget=memory_budget
        )
        assert_byte_identical(result, reference)

    @pytest.mark.parametrize("memory_budget", CONFORMANCE_MEMORY_BUDGETS)
    @pytest.mark.parametrize("num_threads", CONFORMANCE_THREAD_COUNTS)
    def test_hdbscan_budget(self, memory_budget, num_threads, dataset):
        reference = hdbscan(
            dataset["float64"], min_pts=MIN_PTS, num_threads=num_threads
        )
        result = hdbscan(
            dataset["float64"],
            min_pts=MIN_PTS,
            num_threads=num_threads,
            memory_budget=memory_budget,
        )
        assert_byte_identical(result.mst, reference.mst)
        assert np.array_equal(result.core_distances, reference.core_distances)
        assert np.array_equal(result.eom_labels(), reference.eom_labels())

    @pytest.mark.parametrize("knn_method", ("bruteforce", "kdtree"))
    @pytest.mark.parametrize("memory_budget", CONFORMANCE_MEMORY_BUDGETS)
    def test_core_distances_budget(self, knn_method, memory_budget, dataset):
        reference = core_distances(dataset["float64"], MIN_PTS, method=knn_method)
        cds = core_distances(
            dataset["float64"],
            MIN_PTS,
            method=knn_method,
            memory_budget=memory_budget,
        )
        assert np.array_equal(cds, reference)


class TestApproxHDBSCANConformance:
    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("epsilon", CONFORMANCE_EPSILONS)
    def test_weight_bound(self, metric, epsilon, dataset, hdbscan_references):
        result = approx_hdbscan_mst(
            dataset["float64"], MIN_PTS, epsilon=epsilon, metric=metric
        )
        assert_weight_bound(
            result,
            hdbscan_references[(metric, "float64")],
            epsilon,
            num_points=N_POINTS,
        )
