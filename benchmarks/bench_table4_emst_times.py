"""Table 4 — EMST running times per dataset and method.

The paper's Table 4 reports, for every dataset, the running time of
EMST-Naive, EMST-GFK, EMST-MemoGFK and EMST-Delaunay on 1 thread and on 48
cores.  This driver measures the single-thread time of each method directly
and derives the 48-core time from the instrumented work/depth via Brent's
bound (README, "Parallel execution").  The expected *shape* is the paper's:
MemoGFK is the fastest WSPD-based method, Naive beats GFK (which pays for
materializing pair state), and Delaunay is competitive but 2D-only.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, run_with_tracker
from repro.emst import emst_delaunay, emst_gfk, emst_memogfk, emst_naive
from repro.parallel.scheduler import simulated_time

from _common import TABLE_DATASETS, dataset

METHODS = {
    "EMST-Naive": emst_naive,
    "EMST-GFK": emst_gfk,
    "EMST-MemoGFK": emst_memogfk,
    "EMST-Delaunay": emst_delaunay,
}


def _time_method(function, points):
    result, tracker, elapsed = run_with_tracker(function, points)
    work = max(tracker.work, 1.0)
    depth = max(tracker.depth, 1.0)
    seconds_per_op = elapsed / (work + depth)
    t48 = simulated_time(work, depth, 48, seconds_per_op=seconds_per_op)
    return result, elapsed, t48


def test_table4_emst_running_times(benchmark):
    """Regenerate Table 4 (1-thread measured, 48-core modelled)."""
    rows = []
    stats = {}
    for name, size in TABLE_DATASETS.items():
        points = dataset(name, size)
        row = [f"{name}-{points.shape[0]}"]
        for method_name, function in METHODS.items():
            if method_name == "EMST-Delaunay" and points.shape[1] != 2:
                row.extend(["-", "-"])
                continue
            result, t1, t48 = _time_method(function, points)
            assert result.is_spanning_tree()
            row.extend([f"{t1:.3f}", f"{t48:.3f}"])
            stats.setdefault(name, {})[method_name] = result.stats
        rows.append(row)

    headers = ["dataset"]
    for method_name in METHODS:
        headers.extend([f"{method_name} T1", f"{method_name} T48*"])
    print()
    print(format_table(headers, rows, title="Table 4: EMST running times (seconds; T48* modelled)"))

    # The mechanism behind the paper's Table 4 ordering (MemoGFK fastest)
    # is that MemoGFK materializes far fewer pairs and GFK skips BCCPs that
    # Naive computes; at reproduction scale wall clocks are dominated by
    # Python constant factors, so the mechanism counters are what we check.
    for name, per_method in stats.items():
        naive_stats = per_method["EMST-Naive"]
        memogfk_stats = per_method["EMST-MemoGFK"]
        gfk_stats = per_method["EMST-GFK"]
        assert memogfk_stats["max_pairs_materialized"] < naive_stats["pairs_materialized"]
        assert gfk_stats["bccp_calls"] <= naive_stats["bccp_calls"]
        assert memogfk_stats["bccp_calls"] <= naive_stats["bccp_calls"]

    # pytest-benchmark timing of the paper's fastest method on one dataset.
    points = dataset("2D-SS-varden", TABLE_DATASETS["2D-SS-varden"])
    benchmark.pedantic(emst_memogfk, args=(points,), rounds=1, iterations=1)
