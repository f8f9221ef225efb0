"""Fault-tolerance overhead and kill/resume identity gates.

Checkpointing exists to make long fits survivable, but it must not tax the
fits that never crash.  This driver records and gates both halves:

* **Overhead gate** — one EMST and one HDBSCAN* fit, each timed bare,
  with a cold checkpoint directory (paying every phase commit), and with a
  *finished* checkpoint (pure reload).  The artifact records the three
  wall-clock times per pipeline; the reload must return byte-identical
  results, and at full scale it must beat the bare fit (the whole point of
  resuming).
* **Kill/resume gate** — every fit is killed at a seeded phase boundary via
  the deterministic ``crash-after-phase`` fault and resumed; the resumed
  result must be byte-identical to the uninterrupted reference, and the
  artifact records how much of the bare wall-clock the resume saved.

JSON artifact: ``REPRO_BENCH_JSON`` (default ``BENCH_resilience.json``),
scaled by ``REPRO_BENCH_SCALE`` like every other driver.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bench.harness import memory_snapshot
from repro.emst.api import emst
from repro.hdbscan.api import hdbscan
from repro.resilience import InjectedCrashError, inject_faults

from _common import FULL_SCALE, scaled

#: Points in the benchmark fits (HDBSCAN*'s chunked brute-force core
#: distances keep this moderate, as in the memory-budget driver).
BENCH_N = 3_000

#: Phase boundary each pipeline is killed after in the kill/resume gate
#: (late boundaries, so the resume actually has work to skip).
KILL_FAULTS = {
    "emst": "crash-after-phase:phase=mst",
    "hdbscan": "crash-after-phase:phase=mst",
}


_RESULTS: dict = {}


def _record(name: str, payload: dict) -> None:
    _RESULTS[name] = payload
    machine = _RESULTS.setdefault("machine", {})
    machine["scale"] = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    machine.update(memory_snapshot())
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_resilience.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _fit(pipeline: str, points, **kwargs):
    if pipeline == "emst":
        return emst(points, method="memogfk", **kwargs)
    return hdbscan(points, min_pts=10, method="memogfk", **kwargs)


def _result_bytes(pipeline: str, result) -> tuple:
    if pipeline == "emst":
        return tuple(array.tobytes() for array in result.edges.as_arrays())
    parts = [result.core_distances.tobytes()]
    parts.extend(array.tobytes() for array in result.mst.edges.as_arrays())
    parts.append(result.dbscan_labels(0.5).tobytes())
    return tuple(parts)


def test_checkpoint_overhead(benchmark, tmp_path):
    """Bare vs checkpointed vs resumed-from-finished wall-clock per pipeline."""
    n = scaled(BENCH_N)
    points = np.random.default_rng(11).random((n, 3))
    report: dict = {}

    def run_all():
        for pipeline in ("emst", "hdbscan"):
            directory = tmp_path / f"overhead-{pipeline}"
            start = time.perf_counter()
            bare = _fit(pipeline, points)
            bare_seconds = time.perf_counter() - start
            start = time.perf_counter()
            checkpointed = _fit(pipeline, points, checkpoint_dir=directory)
            checkpointed_seconds = time.perf_counter() - start
            start = time.perf_counter()
            reloaded = _fit(pipeline, points, checkpoint_dir=directory)
            reload_seconds = time.perf_counter() - start
            assert _result_bytes(pipeline, checkpointed) == _result_bytes(
                pipeline, bare
            ), f"{pipeline}: checkpointing changed the result bytes"
            assert _result_bytes(pipeline, reloaded) == _result_bytes(
                pipeline, bare
            ), f"{pipeline}: reloading a finished checkpoint changed bytes"
            report[pipeline] = {
                "n": n,
                "bare_seconds": bare_seconds,
                "checkpointed_seconds": checkpointed_seconds,
                "reload_seconds": reload_seconds,
                "overhead_ratio": checkpointed_seconds / bare_seconds,
            }
        return report

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    for pipeline, row in report.items():
        print(
            f"[resilience] overhead {pipeline} n={n}: "
            f"bare={row['bare_seconds']:.3f}s "
            f"checkpointed={row['checkpointed_seconds']:.3f}s "
            f"(x{row['overhead_ratio']:.2f}) "
            f"reload={row['reload_seconds']:.3f}s"
        )
        if FULL_SCALE:
            assert row["reload_seconds"] < row["bare_seconds"], (
                f"{pipeline}: reloading a finished checkpoint "
                f"({row['reload_seconds']:.3f}s) should beat recomputing "
                f"({row['bare_seconds']:.3f}s)"
            )
    _record("overhead", report)


def test_kill_and_resume_identity(benchmark, tmp_path):
    """A fit killed at a phase boundary resumes byte-identically."""
    n = scaled(BENCH_N)
    points = np.random.default_rng(13).random((n, 3))
    report: dict = {}

    def run_all():
        for pipeline, fault in KILL_FAULTS.items():
            directory = tmp_path / f"kill-{pipeline}"
            start = time.perf_counter()
            reference = _fit(pipeline, points)
            bare_seconds = time.perf_counter() - start
            crashed = False
            start = time.perf_counter()
            try:
                with inject_faults(fault):
                    _fit(pipeline, points, checkpoint_dir=directory)
            except InjectedCrashError:
                crashed = True
            killed_seconds = time.perf_counter() - start
            assert crashed, f"{pipeline}: the {fault} fault never fired"
            start = time.perf_counter()
            resumed = _fit(pipeline, points, checkpoint_dir=directory)
            resume_seconds = time.perf_counter() - start
            assert _result_bytes(pipeline, resumed) == _result_bytes(
                pipeline, reference
            ), f"{pipeline}: resume after {fault} diverged from the reference"
            report[pipeline] = {
                "n": n,
                "fault": fault,
                "bare_seconds": bare_seconds,
                "killed_run_seconds": killed_seconds,
                "resume_seconds": resume_seconds,
                "resume_saved_fraction": 1.0 - resume_seconds / bare_seconds,
                "byte_identical": True,
            }
        return report

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    for pipeline, row in report.items():
        print(
            f"[resilience] kill/resume {pipeline} n={n}: "
            f"bare={row['bare_seconds']:.3f}s "
            f"resume={row['resume_seconds']:.3f}s "
            f"(saved {100 * row['resume_saved_fraction']:.0f}%)"
        )
    _record("kill_resume", report)
