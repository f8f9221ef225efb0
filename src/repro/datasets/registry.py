"""Dataset registry shared by the benchmarks.

Each entry mirrors one of the paper's evaluation data sets, downscaled to a
size pure Python can process in seconds.  The
names follow the paper's ``<dim>D-<family>-<size>`` convention so benchmark
output reads like the paper's tables.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.datasets.real_proxies import (
    chem_proxy,
    geolife_proxy,
    household_proxy,
    ht_proxy,
)
from repro.datasets.synthetic import seed_spreader, uniform_fill

# Default reproduction-scale sizes (the paper uses 10M / 24.9M / 2.05M / 0.93M
# / 4.2M points; the proxies keep the same relative ordering of sizes).
_DEFAULT_SIZES = {
    "uniform": 4000,
    "varden": 4000,
    "geolife": 5000,
    "household": 3000,
    "ht": 2000,
    "chem": 2500,
}


def _make_uniform(dimensions: int) -> Callable[[int, Optional[int]], np.ndarray]:
    def build(n: int, seed: Optional[int]) -> np.ndarray:
        return uniform_fill(n, dimensions, seed=seed)

    return build


def _make_varden(dimensions: int) -> Callable[[int, Optional[int]], np.ndarray]:
    def build(n: int, seed: Optional[int]) -> np.ndarray:
        return seed_spreader(n, dimensions, seed=seed)

    return build


DATASETS: Dict[str, Dict] = {
    "2D-UniformFill": {"builder": _make_uniform(2), "default_n": _DEFAULT_SIZES["uniform"]},
    "3D-UniformFill": {"builder": _make_uniform(3), "default_n": _DEFAULT_SIZES["uniform"]},
    "5D-UniformFill": {"builder": _make_uniform(5), "default_n": _DEFAULT_SIZES["uniform"]},
    "7D-UniformFill": {"builder": _make_uniform(7), "default_n": _DEFAULT_SIZES["uniform"]},
    "2D-SS-varden": {"builder": _make_varden(2), "default_n": _DEFAULT_SIZES["varden"]},
    "3D-SS-varden": {"builder": _make_varden(3), "default_n": _DEFAULT_SIZES["varden"]},
    "5D-SS-varden": {"builder": _make_varden(5), "default_n": _DEFAULT_SIZES["varden"]},
    "7D-SS-varden": {"builder": _make_varden(7), "default_n": _DEFAULT_SIZES["varden"]},
    "3D-GeoLife": {
        "builder": lambda n, seed: geolife_proxy(n, seed=seed),
        "default_n": _DEFAULT_SIZES["geolife"],
    },
    "7D-Household": {
        "builder": lambda n, seed: household_proxy(n, seed=seed),
        "default_n": _DEFAULT_SIZES["household"],
    },
    "10D-HT": {
        "builder": lambda n, seed: ht_proxy(n, seed=seed),
        "default_n": _DEFAULT_SIZES["ht"],
    },
    "16D-CHEM": {
        "builder": lambda n, seed: chem_proxy(n, seed=seed),
        "default_n": _DEFAULT_SIZES["chem"],
    },
}


def load_dataset(name: str, *, n: Optional[int] = None, seed: int = 0) -> np.ndarray:
    """Generate one registered dataset by name.

    Parameters
    ----------
    name:
        One of the keys of :data:`DATASETS` (e.g. ``"3D-GeoLife"``).
    n:
        Number of points (defaults to the registry's reproduction-scale size).
    seed:
        Random seed, so benchmarks are repeatable.
    """
    try:
        entry = DATASETS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}"
        ) from None
    size = n if n is not None else entry["default_n"]
    return entry["builder"](size, seed)


def benchmark_suite(*, small: bool = False, seed: int = 0) -> Dict[str, np.ndarray]:
    """The full suite of datasets used by the table/figure benchmarks.

    ``small=True`` shrinks every dataset (used by smoke tests and CI-style
    runs of the benchmark harness).
    """
    suite = {}
    for name, entry in DATASETS.items():
        size = entry["default_n"] // 8 if small else entry["default_n"]
        suite[name] = entry["builder"](max(size, 64), seed)
    return suite
