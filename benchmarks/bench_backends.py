"""Per-backend kernel timings with identity / bound / speedup gates.

The backend registry (:mod:`repro.core.backend`) makes the hot kernels
pluggable — numpy vs numba-compiled, float64 vs float32-lowered scoring.
This driver measures what each backend actually buys and gates the contracts:

* **Identity gate** (every scale) — the exact backends must return
  byte-identical BCCP winners and edge weights: ``numba`` against ``numpy``
  (when numba is installed; otherwise the fallback resolves to numpy and the
  gate degenerates to a self-check), and the whole EMST pipeline must return
  byte-identical trees across exact backends.
* **Lowered bound gate** (every scale) — ``numpy-f32`` winners, re-evaluated
  in exact float64, must be within relative ``1e-5`` of the exact winners
  and never below them (the exact winner is the minimum).
* **Speedup gate** (full scale, numba installed) — the compiled backend must
  run the BCCP phase at the headline ``n = 10^5`` at least ``3x`` faster
  than the numpy backend.  At smoke scale (``REPRO_BENCH_SCALE < 1``) or
  without numba the timings are recorded but the ratio is not asserted.

Every record in the JSON artifact (``REPRO_BENCH_JSON``, default
``BENCH_backends.json``) carries the backend name that *actually executed*
(after any fallback) and its effective scoring dtype.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bench.harness import memory_snapshot
from repro.core.backend import BACKENDS, HAVE_NUMBA, resolve_backend
from repro.emst.api import emst
from repro.spatial.kdtree import KDTree
from repro.spatial.knn import knn_bruteforce
from repro.wspd.bccp import bccp_batch

from _common import FULL_SCALE, scaled

#: Headline scale of the BCCP-phase records (the ISSUE's n = 10^5 target).
HEADLINE_N = 100_000

#: Smaller scale for the end-to-end EMST and k-NN records.
PIPELINE_N = 20_000

#: Backends timed by this driver (requested names; records report the
#: effective backend after fallback).
BACKEND_AXIS = ("numpy", "numba", "numpy-f32", "numba-f32")

#: The compiled backend must beat numpy by this factor on the BCCP phase at
#: full scale.
SPEEDUP_GATE = 3.0


_RESULTS: dict = {}


def _record(name: str, payload: dict) -> None:
    _RESULTS[name] = payload
    _RESULTS.setdefault("machine", {})["scale"] = float(
        os.environ.get("REPRO_BENCH_SCALE", "1.0")
    )
    _RESULTS["machine"]["have_numba"] = HAVE_NUMBA
    _RESULTS["machine"].update(memory_snapshot())
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_backends.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _backend_meta(requested: str) -> dict:
    """Metadata of the backend that actually executes a requested name."""
    backend = resolve_backend(requested)
    return {
        "requested": requested,
        "backend": backend.name,
        "dtype": backend.scoring_dtype.name,
        "fallback": backend.name != requested,
    }


def _bccp_workload(points: np.ndarray, backend: str):
    """A tree plus a frontier of leaf-pair ids approximating one GFK round."""
    tree = KDTree(points, leaf_size=32, backend=backend)
    leaves = tree.flat.leaf_ids()
    # Pair every leaf with a handful of others, deterministically; sizes vary
    # with the spatial-median splits, so the batch exercises the size-class
    # grouping exactly like a WSPD frontier does.
    rng = np.random.default_rng(123)
    a_ids = np.repeat(leaves, 4)
    b_ids = rng.permutation(a_ids)
    keep = a_ids != b_ids
    return tree, a_ids[keep], b_ids[keep]


def test_bccp_phase_backends(benchmark):
    """BCCP-phase wall clock per backend at the headline n = 10^5 scale."""
    n = scaled(HEADLINE_N)
    points = np.random.default_rng(0).random((n, 2))
    times: dict = {}
    outputs: dict = {}

    def run_all():
        for name in BACKEND_AXIS:
            backend = resolve_backend(name)
            if hasattr(backend, "warmup") and backend.available():
                backend.warmup()  # JIT cost out of the timed region
            tree, a_ids, b_ids = _bccp_workload(points, name)
            start = time.perf_counter()
            pa, pb, w = bccp_batch(tree.flat, a_ids, b_ids)
            times[name] = time.perf_counter() - start
            outputs[name] = (pa, pb, w)
        return times

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Identity gate: exact backends agree byte for byte (numba == numpy; a
    # fallback run compares numpy against itself, which keeps the gate alive
    # as a smoke check everywhere).
    pa_np, pb_np, w_np = outputs["numpy"]
    pa_nb, pb_nb, w_nb = outputs["numba"]
    assert np.array_equal(pa_np, pa_nb), "exact BCCP winners diverged"
    assert np.array_equal(pb_np, pb_nb), "exact BCCP winners diverged"
    assert np.array_equal(w_np, w_nb), "exact BCCP weights diverged"

    # Lowered bound gate: float32 scoring may pick near-tied pairs, but its
    # exactly re-evaluated weights can never beat the true minimum and must
    # stay within float32-selection resolution of it.
    w_f32 = outputs["numpy-f32"][2]
    slack = 1e-9 * np.maximum(w_np, 1.0)
    assert np.all(w_f32 >= w_np - slack), "lowered weight below the exact minimum"
    np.testing.assert_allclose(w_f32, w_np, rtol=1e-5, atol=1e-7)

    for name in BACKEND_AXIS:
        print(f"[backends] bccp n={n} backend={name}: {times[name]:.3f}s")
    speedup = times["numpy"] / max(times["numba"], 1e-12)
    _record(
        "bccp_phase",
        {
            "n": n,
            "num_pairs": int(outputs["numpy"][0].size),
            "backends": {
                name: {"seconds": times[name], **_backend_meta(name)}
                for name in BACKEND_AXIS
            },
            "numba_speedup": speedup,
            "speedup_gate": SPEEDUP_GATE,
            "gate_active": bool(HAVE_NUMBA and FULL_SCALE),
        },
    )
    if HAVE_NUMBA and FULL_SCALE:
        assert speedup >= SPEEDUP_GATE, (
            f"numba BCCP speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate"
        )


def test_emst_backends(benchmark):
    """End-to-end EMST per backend, gated on tree identity / weight bounds."""
    n = scaled(PIPELINE_N)
    points = np.random.default_rng(1).random((n, 2))
    times: dict = {}
    results: dict = {}

    def run_all():
        for name in BACKEND_AXIS:
            backend = resolve_backend(name)
            if hasattr(backend, "warmup") and backend.available():
                backend.warmup()
            start = time.perf_counter()
            results[name] = emst(points, method="memogfk", backend=name)
            times[name] = time.perf_counter() - start
            assert results[name].is_spanning_tree()
        return times

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    ref = results["numpy"].edges.as_arrays()
    exact = results["numba"].edges.as_arrays()
    for left, right in zip(ref, exact):
        assert np.array_equal(left, right), "exact backends returned different trees"
    lowered_w = np.sort(results["numpy-f32"].edges.as_arrays()[2])
    np.testing.assert_allclose(lowered_w, np.sort(ref[2]), rtol=1e-5, atol=1e-7)

    for name in BACKEND_AXIS:
        print(
            f"[backends] emst n={n} backend={name}: {times[name]:.3f}s "
            f"(weight {results[name].total_weight:.6g})"
        )
    _record(
        "emst_memogfk",
        {
            "n": n,
            "backends": {
                name: {
                    "seconds": times[name],
                    "total_weight": results[name].total_weight,
                    **_backend_meta(name),
                }
                for name in BACKEND_AXIS
            },
        },
    )


def test_knn_backends(benchmark):
    """Brute-force k-NN per backend (the core-distance kernel shape)."""
    n = scaled(PIPELINE_N)
    k = 10
    points = np.random.default_rng(2).random((n, 4))
    times: dict = {}
    outputs: dict = {}

    def run_all():
        for name in BACKEND_AXIS:
            backend = resolve_backend(name)
            if hasattr(backend, "warmup") and backend.available():
                backend.warmup()
            start = time.perf_counter()
            outputs[name] = knn_bruteforce(points, k, backend=name)
            times[name] = time.perf_counter() - start
        return times

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The minPts-th distance is what HDBSCAN* consumes; exact backends must
    # agree to the last ulp of their (differently accumulated) kernels, and
    # the lowered backend to float32-selection resolution.
    cd_np = outputs["numpy"][1][:, -1]
    np.testing.assert_allclose(outputs["numba"][1][:, -1], cd_np, rtol=1e-12)
    np.testing.assert_allclose(
        outputs["numpy-f32"][1][:, -1], cd_np, rtol=1e-5, atol=1e-7
    )

    for name in BACKEND_AXIS:
        print(f"[backends] knn n={n} k={k} backend={name}: {times[name]:.3f}s")
    _record(
        "knn_bruteforce",
        {
            "n": n,
            "k": k,
            "backends": {
                name: {"seconds": times[name], **_backend_meta(name)}
                for name in BACKEND_AXIS
            },
        },
    )


def test_backend_registry_snapshot(benchmark):
    """Record which backends this machine can actually run."""

    def snapshot():
        return {
            name: {
                "available": BACKENDS[name].available(),
                "dtype": BACKENDS[name].scoring_dtype.name,
                "lowered": BACKENDS[name].lowered,
            }
            for name in BACKENDS
        }

    registry = benchmark.pedantic(snapshot, rounds=1, iterations=1)
    print(f"[backends] registry: {registry}")
    _record("registry", registry)
