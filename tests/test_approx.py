"""Unit tests for the approximation subsystem's building blocks.

The end-to-end (1+ε) contracts are exercised by the conformance matrix
(``tests/test_conformance.py``) and the property suite; these tests pin the
individual mechanisms: the ε-certified separation predicate, the
center-nearest representatives, the skeleton's structural connectivity, the
chunk-pruned Kruskal's equality with the plain batch, and the knob plumbing
through ``emst()`` / ``hdbscan()`` / the estimators.  The approximate trees
themselves are pinned byte for byte against ``tests/data/approx_refs.npz``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.approx import approx_emst, approx_hdbscan_mst
from repro.approx.emst import candidate_mst, skeleton_edges
from repro.core.errors import InvalidParameterError
from repro.emst import emst
from repro.estimators import EMST, HDBSCAN
from repro.hdbscan import adjusted_rand_index, hdbscan
from repro.mst.edges import EdgeList
from repro.mst.kruskal import kruskal, kruskal_filtered_arrays
from repro.parallel.unionfind import UnionFind
from repro.spatial.kdtree import KDTree
from repro.hdbscan.core_distance import core_distances
from repro.wspd.separation import (
    bccp_lower_bounds,
    box_gaps,
    epsilon_certified_mask,
    node_representatives,
    representative_certificate,
)
from repro.wspd.wspd import compute_wspd_ids, separation_mask


REFS_PATH = Path(__file__).parent / "data" / "approx_refs.npz"
REF_EPSILONS = (0.05, 0.5)
REF_METRICS = ("euclidean", "manhattan")
REF_MIN_PTS = 5


def reference_points() -> np.ndarray:
    """The seeded input the approximate outputs are pinned on: 260 uniform
    2-d points with 40 of them repeated exactly (duplicate points exercise
    the zero-radius nodes and the tie-breaking of the candidate Kruskal)."""
    base = np.random.default_rng(1414).random((260, 2))
    return np.concatenate([base, base[::7][:40]])


def reference_outputs() -> dict:
    """``approx_emst`` and ``approx_hdbscan_mst`` edge arrays, keyed
    ``<pipeline>-<metric>-<epsilon>-<u|v|w>``.

    ``tests/data/approx_refs.npz`` is this dict saved with ``np.savez``.
    """
    points = reference_points()
    arrays = {}
    for metric in REF_METRICS:
        for epsilon in REF_EPSILONS:
            results = {
                "emst": approx_emst(points, epsilon, metric=metric),
                "hdbscan": approx_hdbscan_mst(
                    points, REF_MIN_PTS, epsilon=epsilon, metric=metric
                ),
            }
            for pipeline, result in results.items():
                for name, array in zip("uvw", result.edges.as_arrays()):
                    arrays[f"{pipeline}-{metric}-{epsilon}-{name}"] = array
    return arrays


@pytest.fixture(scope="module")
def tree():
    points = np.random.default_rng(77).random((120, 3))
    return KDTree(points, leaf_size=1)


class TestCertifiedSeparation:
    def test_lower_bounds_never_exceed_true_bccp(self, tree):
        flat = tree.flat
        pair_a, pair_b = compute_wspd_ids(tree)
        reps = node_representatives(flat)
        rep = flat.metric.exact_edge_weights(
            flat.points, reps[pair_a], reps[pair_b]
        )
        lower = bccp_lower_bounds(flat, pair_a, pair_b, rep)
        points = flat.points
        for a, b, bound in zip(
            pair_a[:200].tolist(), pair_b[:200].tolist(), lower[:200].tolist()
        ):
            members_a = flat.perm[flat.node_start[a] : flat.node_end[a]]
            members_b = flat.perm[flat.node_start[b] : flat.node_end[b]]
            cross = np.linalg.norm(
                points[members_a][:, None, :] - points[members_b][None, :, :],
                axis=2,
            )
            assert bound <= cross.min() + 1e-12

    def test_box_gaps_lower_bound_center_gaps(self, tree):
        flat = tree.flat
        pair_a, pair_b = compute_wspd_ids(tree)
        gaps = box_gaps(flat, pair_a, pair_b)
        reps = node_representatives(flat)
        rep = flat.metric.exact_edge_weights(
            flat.points, reps[pair_a], reps[pair_b]
        )
        assert np.all(gaps >= 0.0)
        assert np.all(gaps <= rep + 1e-12)

    def test_singleton_pairs_always_certify(self, tree):
        # Under the plain distance and under mutual reachability alike.
        points = tree.flat.points
        annotated = KDTree(points, leaf_size=1)
        cds = core_distances(points, 4)
        annotated.annotate_core_distances(cds)
        for flat, core in ((tree.flat, None), (annotated.flat, cds)):
            # Neighbouring leaves: close pairs, where core distances exceed
            # the point distance and only the cd_min join certifies them.
            leaves = flat.leaf_ids()
            a, b = leaves[:-1], leaves[1:]
            reps = node_representatives(flat)
            rep_a, rep_b = reps[a], reps[b]
            rep = flat.metric.exact_edge_weights(flat.points, rep_a, rep_b)
            # The certificate itself can never reject a singleton pair
            # (rep == BCCP(*)), so they are separated iff classically so.
            _, certified = representative_certificate(
                flat, a, b, rep_a, rep_b, rep, 1e-12, core
            )
            assert certified.all()
            mask = epsilon_certified_mask(flat, a, b, 2.0, 1e-12, reps, core)
            geometric = separation_mask(flat, "geometric", 2.0)(a, b)
            assert np.array_equal(mask, geometric)

    def test_smaller_epsilon_gives_no_fewer_pairs(self, tree):
        flat = tree.flat
        reps = node_representatives(flat)
        sizes = {}
        for epsilon in (0.01, 0.1, 0.5, 1.0):
            pair_a, _ = compute_wspd_ids(
                tree,
                predicate=lambda a, b: epsilon_certified_mask(
                    flat, a, b, 2.0, epsilon, reps
                ),
            )
            sizes[epsilon] = pair_a.size
        assert sizes[0.01] >= sizes[0.1] >= sizes[0.5] >= sizes[1.0]

    def test_unknown_separation_rejected(self, tree):
        with pytest.raises(InvalidParameterError):
            separation_mask(tree.flat, "no-such-notion", 2.0)


class TestPinnedOutputs:
    def test_byte_identical_to_captured_references(self):
        with np.load(REFS_PATH) as refs:
            expected = {key: refs[key] for key in refs.files}
        actual = reference_outputs()
        assert sorted(actual) == sorted(expected)
        for key, array in actual.items():
            assert array.dtype == expected[key].dtype, key
            assert np.array_equal(array, expected[key]), key

    @pytest.mark.parametrize("metric", REF_METRICS)
    @pytest.mark.parametrize("epsilon", (0.05, 0.5, 2.0))
    def test_min_pts_one_hdbscan_equals_emst(self, metric, epsilon):
        # With minPts = 1 every core distance is 0, so mutual reachability
        # is the plain distance and the two pipelines must agree exactly.
        points = reference_points()
        emst_edges = approx_emst(points, epsilon, metric=metric).edges
        hdbscan_edges = approx_hdbscan_mst(
            points, 1, epsilon=epsilon, metric=metric
        ).edges
        for left, right in zip(emst_edges.as_arrays(), hdbscan_edges.as_arrays()):
            assert np.array_equal(left, right)


class TestRepresentatives:
    def test_center_nearest_is_member_and_minimizes(self, tree):
        flat = tree.flat
        reps = node_representatives(flat)
        points = flat.points
        for node in range(0, flat.num_nodes, 7):
            members = flat.perm[flat.node_start[node] : flat.node_end[node]]
            assert reps[node] in members
            distances = np.linalg.norm(
                points[members] - flat.node_center[node], axis=1
            )
            best = np.linalg.norm(points[reps[node]] - flat.node_center[node])
            assert best <= distances.min() + 1e-12


class TestSkeleton:
    def test_skeleton_spans_every_point(self, tree):
        flat = tree.flat
        u, v = skeleton_edges(flat)
        assert u.size == flat.size - 1
        union_find = UnionFind(flat.size)
        for a, b in zip(u.tolist(), v.tolist()):
            union_find.union(a, b)
        assert union_find.num_components == 1


class TestFilteredKruskal:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("chunk_size", [7, 64, 100_000])
    def test_equals_plain_kruskal(self, seed, chunk_size):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        m = int(rng.integers(1, 500))
        u = rng.integers(0, n, m).astype(np.int64)
        v = rng.integers(0, n, m).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        w = np.round(rng.random(u.size), 2)  # deliberate weight ties
        reference = kruskal((u, v, w), n)
        output = EdgeList()
        kruskal_filtered_arrays(
            u, v, w, output, UnionFind(n), chunk_size=chunk_size
        )
        ru, rv, rw = reference.as_arrays()
        ou, ov, ow = output.as_arrays()
        canonical = lambda a, b, c: sorted(
            zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist(), c.tolist())
        )
        assert canonical(ru, rv, rw) == canonical(ou, ov, ow)

    def test_candidate_mst_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        result = candidate_mst(empty, empty, np.empty(0), 5)
        assert len(result) == 0


class TestKnobPlumbing:
    def test_negative_epsilon_rejected_everywhere(self):
        points = np.random.default_rng(0).random((20, 2))
        with pytest.raises(InvalidParameterError):
            approx_emst(points, -0.1)
        with pytest.raises(InvalidParameterError):
            approx_hdbscan_mst(points, 3, epsilon=-0.1)
        with pytest.raises(InvalidParameterError):
            EMST(epsilon=-0.1).fit(points)
        with pytest.raises(InvalidParameterError):
            HDBSCAN(approx_epsilon=-0.1).fit(points)

    def test_estimator_epsilon_conflicts_with_exact_method(self):
        points = np.random.default_rng(0).random((20, 2))
        with pytest.raises(InvalidParameterError):
            EMST(method="gfk", epsilon=0.5).fit(points)
        with pytest.raises(InvalidParameterError):
            HDBSCAN(method="gantao", approx_epsilon=0.5).fit(points)

    def test_epsilon_zero_delegates_to_exact(self):
        points = np.random.default_rng(1).random((60, 2))
        assert approx_emst(points, 0.0).method == "memogfk"
        assert emst(points, method="wspd-approx", epsilon=0.0).method == "memogfk"
        assert (
            approx_hdbscan_mst(points, 5, epsilon=0.0).method == "hdbscan-memogfk"
        )

    def test_hdbscan_api_forwards_epsilon(self):
        points = np.random.default_rng(2).random((80, 2))
        result = hdbscan(points, min_pts=5, method="wspd-approx", epsilon=0.5)
        assert result.mst.method == "hdbscan-wspd-approx"
        assert result.mst.stats["epsilon"] == 0.5
        assert result.mst.is_spanning_tree()

    def test_num_threads_byte_identical(self):
        points = np.random.default_rng(3).random((300, 3))
        reference = approx_emst(points, 0.5, num_threads=1)
        threaded = approx_emst(points, 0.5, num_threads=4)
        for left, right in zip(
            reference.edges.as_arrays(), threaded.edges.as_arrays()
        ):
            assert np.array_equal(left, right)


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
        renamed = np.array([5, 5, 3, 3, -1, -1])
        assert adjusted_rand_index(labels, renamed) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, 3000)
        b = rng.integers(0, 5, 3000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_known_value(self):
        # Classic textbook example.
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 2, 2]
        assert adjusted_rand_index(a, b) == pytest.approx(0.24242424, abs=1e-6)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidParameterError):
            adjusted_rand_index([0, 1], [0, 1, 2])
