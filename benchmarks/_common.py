"""Shared fixtures and helpers for the benchmark drivers.

Each module under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation section (see README, "Benchmarks").  The drivers run at
"reproduction scale": the dataset sizes are set so the whole directory
finishes in minutes of pure-Python time rather than the hours of C++/48-core
time the paper uses.  Set the environment variable ``REPRO_BENCH_SCALE`` to a
float (default 1.0) to grow or shrink every dataset proportionally.

Printed tables appear with ``pytest benchmarks/ --benchmark-only -s``; without
``-s`` they are captured but the pytest-benchmark timing tables are still
reported.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro.datasets import load_dataset

#: Datasets used by the table benchmarks (name -> reproduction-scale size).
TABLE_DATASETS: Dict[str, int] = {
    "2D-UniformFill": 1200,
    "5D-UniformFill": 700,
    "2D-SS-varden": 1200,
    "5D-SS-varden": 700,
    "3D-GeoLife": 1000,
    "7D-Household": 600,
    "10D-HT": 500,
    "16D-CHEM": 400,
}

#: Smaller selection used by the figure (scaling-curve) benchmarks.
FIGURE_DATASETS: Dict[str, int] = {
    "2D-UniformFill": 1000,
    "3D-SS-varden": 800,
    "3D-GeoLife": 800,
    "7D-Household": 500,
}


#: Whether ``REPRO_BENCH_SCALE`` leaves the drivers at (or above) full
#: reproduction scale.  Speedup and resource gates that only hold at full
#: dataset sizes are enforced when this is true; smaller (smoke) scales still
#: run every identity check.
FULL_SCALE: bool = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0


def scaled(n: int) -> int:
    """Apply the REPRO_BENCH_SCALE environment scaling factor."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return max(64, int(n * scale))


_CACHE: Dict[str, np.ndarray] = {}


def dataset(name: str, n: int) -> np.ndarray:
    """Load (and cache) one registered dataset at the requested size."""
    key = f"{name}:{scaled(n)}"
    if key not in _CACHE:
        _CACHE[key] = load_dataset(name, n=scaled(n), seed=0)
    return _CACHE[key]
