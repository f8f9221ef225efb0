"""Self-test of the oracle checks: each must pass a correct output and
reject a corrupted one.

Run from the repository root (a few seconds)::

    python3 e2ebench/selftest.py

Inputs are small versions of the benchmark's workloads.  Corruptions of
distances are larger than the checks' tolerance, because a last-bit change
must pass by design; the churned-state check is byte-exact and rejects a
one-ulp change.  Exits 1 if any check accepts a corrupted output or rejects
a correct one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402

MIN_PTS = 10


def cases():
    """Yield ``(name, check, correct args, corrupted args)``."""
    import repro
    from repro.datasets import load_dataset
    from repro.dynamic import delete_batch, fit_dynamic, insert_batch
    from repro.serve import approximate_predict

    points = load_dataset("2D-SS-varden", n=2_000, seed=5)
    fit = repro.hdbscan(points, min_pts=MIN_PTS, num_threads=2)
    u, v, w = fit.mst.edges.as_arrays()
    core = checks.oracle_core_distances(points, MIN_PTS)

    bad_core = fit.core_distances.copy()
    bad_core[7] *= 1.001
    yield (
        "core distances vs cKDTree",
        checks.check_core_distances,
        (points, fit.core_distances, MIN_PTS),
        (points, bad_core, MIN_PTS),
    )

    bad_w = w.copy()
    bad_w[np.argmax(bad_w)] *= 1.01
    yield (
        "MST weights vs dense Prim",
        checks.check_mst_weights,
        (points, w, core),
        (points, bad_w, core),
    )

    bad_v = v.copy()
    bad_v[0] = u[0]
    yield (
        "MST spans the points",
        checks.check_spanning_tree,
        (points.shape[0], u, v),
        (points.shape[0], u, bad_v),
    )

    heights = fit.dendrogram.heights()
    bad_heights = heights.copy()
    bad_heights[np.argmin(bad_heights)] = bad_heights.max()
    yield (
        "dendrogram heights are the MST weights",
        checks.check_dendrogram_heights,
        (heights, w),
        (bad_heights, w),
    )

    state = fit_dynamic(points, min_pts=MIN_PTS, num_threads=2)
    epsilon = float(np.quantile(state.mst_w, 0.7))
    labels = state.recut(epsilon=epsilon).labels
    merged = labels.copy()
    merged[merged == 1] = 0
    yield (
        "epsilon recut vs csgraph components",
        checks.check_epsilon_cut,
        (points, core, epsilon, state.min_cluster_size, labels),
        (points, core, epsilon, state.min_cluster_size, merged),
    )

    fitted = state.recut().labels
    predicted, _ = approximate_predict(state, state.points)
    wrong = predicted.copy()
    wrong[np.flatnonzero(wrong >= 0)[0]] = -1
    yield (
        "predict on training points",
        checks.check_training_predict,
        (predicted, fitted),
        (wrong, fitted),
    )

    extra = load_dataset("2D-SS-varden", n=2_008, seed=6)[-8:]
    churned = insert_batch(state, extra, num_threads=2)
    churned = delete_batch(churned, np.arange(0, 40, 5), num_threads=2)
    survivors = np.delete(np.concatenate([points, extra]), np.arange(0, 40, 5), axis=0)
    cold = fit_dynamic(survivors, min_pts=MIN_PTS, num_threads=2).state_arrays()
    stale = dict(cold)
    stale["core_distances"] = cold["core_distances"].copy()
    stale["core_distances"][3] = np.nextafter(stale["core_distances"][3], np.inf)
    yield (
        "churned state vs cold refit",
        checks.check_same_state,
        (churned.state_arrays(), cold),
        (stale, cold),
    )


def main() -> int:
    failures = 0
    for name, check, good, bad in cases():
        accepts = check(*good) is None
        rejection = check(*bad)
        ok = accepts and rejection is not None
        failures += not ok
        print(
            f"{'ok  ' if ok else 'FAIL'} {name}: correct input "
            f"{'accepted' if accepts else 'REJECTED'}; corrupted input "
            f"{'rejected (' + rejection + ')' if rejection else 'ACCEPTED'}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
