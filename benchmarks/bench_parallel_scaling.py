"""Measured thread-scaling curves for EMST and HDBSCAN* (paper Fig. 6/7 shape).

Unlike the ``bench_fig6`` / ``bench_fig7`` drivers — whose multi-thread
points are *simulated* with Brent's bound from work–depth instrumentation —
this driver measures **real wall-clock** self-relative speedups: each
algorithm is re-run with ``num_threads`` in {1, 2, 4, 8}, sharding its
batched kernels (WSPD traversal sweeps, BCCP size-class tensors, k-NN
blocks, Kruskal merge sorts) across the persistent worker pool of
:mod:`repro.parallel.pool`.

Because the sharding uses fixed chunk boundaries and stable reduction order,
every run must be *byte-identical* to the single-thread run; the tests
assert that for the full MST edge arrays and the dendrogram linkage matrix
at every thread count, and the assertion fails the CI job at any scale.
(Smoke-scale frontiers sit below some sharding thresholds, so the
tier-1 suite additionally forces the sharded branches at small scale —
``tests/test_thread_determinism.py::TestShardedPathsEngage``; the full-scale
run here exercises them naturally.)

The measured speedup gate (>= 1.8x at 4 threads for both pipelines at the
headline n=20k) is enforced only at full scale on machines that actually
expose >= 4 usable cores; smoke runs and starved CI containers still check
identity and still emit the JSON artifact (``REPRO_BENCH_JSON``, default
``BENCH_parallel_scaling.json``).

For honest scaling numbers, pin the BLAS thread pools to one thread
(``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1``) so the
worker pool is the only source of parallelism being measured.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.bench.harness import measured_scaling_curve, memory_snapshot
from repro.dendrogram.topdown import dendrogram_topdown
from repro.emst import emst_memogfk
from repro.hdbscan import hdbscan
from repro.parallel.pool import shutdown_pools

from _common import FULL_SCALE, scaled

#: Headline scale of the acceptance criterion.
HEADLINE_N = 20_000

#: Thread counts of the measured curve (the machine-sized prefix of the
#: paper's 1..48h figures).
THREAD_COUNTS = (1, 2, 4, 8)

#: Required measured speedup at 4 threads (full scale, >= 4 cores only).
SPEEDUP_GATE_THREADS = 4
SPEEDUP_GATE = 1.8

_RESULTS: dict = {}


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _speedup_gate_active() -> bool:
    return FULL_SCALE and _available_cores() >= SPEEDUP_GATE_THREADS


def _record(name: str, payload: dict) -> None:
    _RESULTS[name] = payload
    _RESULTS["machine"] = {
        "available_cores": _available_cores(),
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        **memory_snapshot(),
    }
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_parallel_scaling.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _edge_triplet(edges):
    u, v, w = edges.as_arrays()
    return u, v, w


def _assert_identical_edges(reference, candidate, context: str) -> None:
    for left, right in zip(_edge_triplet(reference), _edge_triplet(candidate)):
        assert np.array_equal(left, right), (
            f"{context}: threaded run diverged from the single-thread edge list"
        )


def _report(name: str, n: int, curve: dict) -> None:
    times = ", ".join(
        f"{p}t={t:.3f}s" for p, t in zip(curve["thread_counts"], curve["times"])
    )
    speedups = ", ".join(
        f"{p}t={s:.2f}x" for p, s in zip(curve["thread_counts"], curve["speedups"])
    )
    print(f"\n[parallel-scaling] {name} n={n}: {times}")
    print(f"[parallel-scaling] {name} speedups: {speedups}")
    _record(
        name,
        {
            "n": n,
            "metric": curve.get("metric", "euclidean"),
            "thread_counts": list(curve["thread_counts"]),
            "times": curve["times"],
            "speedups": curve["speedups"],
            "identical_across_threads": True,
        },
    )


def _gate(curve: dict, name: str) -> None:
    if not _speedup_gate_active():
        return
    index = curve["thread_counts"].index(SPEEDUP_GATE_THREADS)
    speedup = curve["speedups"][index]
    assert speedup >= SPEEDUP_GATE, (
        f"{name}: measured {SPEEDUP_GATE_THREADS}-thread speedup {speedup:.2f}x "
        f"below the {SPEEDUP_GATE}x gate"
    )


def test_emst_memogfk_thread_scaling(benchmark):
    """EMST (MemoGFK) wall-clock scaling; byte-identical MSTs at 1/2/4/8 threads."""
    n = scaled(HEADLINE_N)
    points = np.random.default_rng(0).random((n, 2))

    def measure():
        shutdown_pools()
        return measured_scaling_curve(
            emst_memogfk, points, thread_counts=THREAD_COUNTS
        )

    curve = benchmark.pedantic(measure, rounds=1, iterations=1)

    reference = curve["results"][0]
    for threads, result in zip(curve["thread_counts"], curve["results"]):
        _assert_identical_edges(
            reference.edges, result.edges, f"emst-memogfk num_threads={threads}"
        )
    _report("emst_memogfk", n, curve)
    _gate(curve, "emst_memogfk")


def test_hdbscan_thread_scaling(benchmark):
    """HDBSCAN* (MemoGFK) scaling; byte-identical MSTs and dendrograms."""
    n = scaled(HEADLINE_N)
    points = np.random.default_rng(1).random((n, 2))

    def run(num_threads=None):
        return hdbscan(points, min_pts=10, method="memogfk", num_threads=num_threads)

    def measure():
        shutdown_pools()
        return measured_scaling_curve(run, thread_counts=THREAD_COUNTS)

    curve = benchmark.pedantic(measure, rounds=1, iterations=1)

    reference = curve["results"][0]
    ref_linkage = reference.dendrogram.to_linkage_matrix()
    for threads, result in zip(curve["thread_counts"], curve["results"]):
        context = f"hdbscan-memogfk num_threads={threads}"
        _assert_identical_edges(reference.mst.edges, result.mst.edges, context)
        assert np.array_equal(
            result.dendrogram.to_linkage_matrix(), ref_linkage
        ), f"{context}: threaded dendrogram diverged"
        assert np.array_equal(
            result.core_distances, reference.core_distances
        ), f"{context}: threaded core distances diverged"
    _report("hdbscan_memogfk", n, curve)
    _gate(curve, "hdbscan_memogfk")


def test_dendrogram_identity_across_thread_counts(benchmark):
    """Single-linkage dendrogram over the threaded EMST is thread-invariant."""
    n = scaled(HEADLINE_N) // 4
    points = np.random.default_rng(2).random((n, 2))

    def measure():
        shutdown_pools()
        curve = measured_scaling_curve(
            emst_memogfk, points, thread_counts=(1, 2)
        )
        return [
            dendrogram_topdown(result.edges, n) for result in curve["results"]
        ]

    dendrograms = benchmark.pedantic(measure, rounds=1, iterations=1)
    reference = dendrograms[0].to_linkage_matrix()
    for dendrogram in dendrograms[1:]:
        assert np.array_equal(dendrogram.to_linkage_matrix(), reference)
    print(f"\n[parallel-scaling] top-down dendrogram identical at 1/2 threads (n={n})")
    _record("dendrogram_identity", {"n": n, "identical_across_threads": True})
