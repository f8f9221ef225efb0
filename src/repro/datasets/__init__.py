"""Dataset generators used by the examples, tests and benchmarks.

The paper evaluates on two synthetic families (UniformFill and the
seed-spreader "SS-varden" data) plus four real data sets (GeoLife, Household,
HT, CHEM).  The synthetic families are regenerated here with the same
processes; the real data sets are not redistributable, so
:mod:`repro.datasets.real_proxies` provides synthetic proxies that match their
dimensionality and spatial character.
"""

from repro.datasets.synthetic import (
    uniform_fill,
    seed_spreader,
    gaussian_blobs,
    paper_example_points,
)
from repro.datasets.real_proxies import (
    geolife_proxy,
    household_proxy,
    ht_proxy,
    chem_proxy,
)
from repro.datasets.registry import DATASETS, load_dataset, benchmark_suite

__all__ = [
    "uniform_fill",
    "seed_spreader",
    "gaussian_blobs",
    "paper_example_points",
    "geolife_proxy",
    "household_proxy",
    "ht_proxy",
    "chem_proxy",
    "DATASETS",
    "load_dataset",
    "benchmark_suite",
]
