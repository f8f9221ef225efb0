"""Inspect the work-depth instrumentation and the modelled scaling curves.

The paper evaluates on a 48-core machine; this reproduction models
multi-threaded running times from the measured work and depth of each
algorithm via Brent's bound (see README, "Parallel execution").  This
example shows the raw ingredients: the work/depth an algorithm reports, its
per-phase breakdown, and the speedup curve the model predicts.

Run with::

    python examples/parallel_scaling_model.py
"""

from repro import emst, hdbscan
from repro.bench import THREAD_COUNTS, format_scaling_series, run_with_tracker, scaling_curve
from repro.datasets import uniform_fill


def main() -> None:
    points = uniform_fill(1500, 3, seed=5)
    print(f"data: {points.shape[0]} uniform points in 3-d\n")

    # Work and depth of one EMST run.
    result, tracker, elapsed = run_with_tracker(emst, points)
    print(f"EMST-MemoGFK: {elapsed:.3f}s measured on one thread")
    print(f"  instrumented work  = {tracker.work:,.0f} operations")
    print(f"  instrumented depth = {tracker.depth:,.0f} operations")
    print(f"  work / depth       = {tracker.work / tracker.depth:,.0f} (available parallelism)")
    print("  work per phase:")
    for phase, work in sorted(tracker.phase_work.items(), key=lambda kv: -kv[1]):
        print(f"    {phase:12s} {work:14,.0f}")

    # Modelled speedup curve (Brent's bound calibrated to the measured time).
    curve = scaling_curve(emst, points, thread_counts=THREAD_COUNTS)
    print()
    print(format_scaling_series("EMST-MemoGFK modelled speedups", curve["thread_counts"], curve["speedups"]))

    curve = scaling_curve(hdbscan, points, 10, thread_counts=THREAD_COUNTS)
    print()
    print(
        format_scaling_series(
            "HDBSCAN* (minPts=10) modelled speedups", curve["thread_counts"], curve["speedups"]
        )
    )


if __name__ == "__main__":
    main()
