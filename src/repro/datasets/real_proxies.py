"""Synthetic proxies for the paper's real-world data sets.

The real data sets (GeoLife GPS traces, UCI Household power consumption, UCI
gas-sensor HT and CHEM) are not redistributable and are far larger than a
pure-Python reproduction can process, so each proxy below generates points
with the same dimensionality and the qualitative spatial structure the paper
highlights — most importantly GeoLife's extreme skew (dense urban clusters
plus sparse long-range travel) and the correlated, low-effective-dimension
structure of the sensor data sets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.errors import InvalidParameterError


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidParameterError("n must be positive")


def geolife_proxy(n: int = 5000, *, seed: Optional[int] = None) -> np.ndarray:
    """3-d GPS-like data: heavily skewed clusters plus sparse trajectories.

    Mimics GeoLife's structure: most points concentrate in a handful of dense
    "city" clusters (longitude/latitude scale), a small fraction lies along
    long "trajectory" segments between cities, and the third coordinate
    (altitude) has a much smaller, noisy range.
    """
    _check_n(n)
    rng = np.random.default_rng(seed)
    num_cities = 8
    city_centers = rng.uniform(0.0, 100.0, size=(num_cities, 2))
    city_weights = rng.dirichlet(np.full(num_cities, 0.35))

    num_travel = max(1, n // 20)
    num_city_points = n - num_travel

    assignments = rng.choice(num_cities, size=num_city_points, p=city_weights)
    spreads = rng.uniform(0.05, 1.5, size=num_cities)
    xy = city_centers[assignments] + rng.normal(
        0.0, 1.0, size=(num_city_points, 2)
    ) * spreads[assignments][:, None]

    # Travel segments: linear interpolation between two random cities.
    origins = city_centers[rng.integers(0, num_cities, size=num_travel)]
    destinations = city_centers[rng.integers(0, num_cities, size=num_travel)]
    t = rng.random(num_travel)[:, None]
    travel_xy = origins + t * (destinations - origins) + rng.normal(0, 0.2, (num_travel, 2))

    xy_all = np.vstack([xy, travel_xy])
    altitude = np.abs(rng.normal(0.0, 0.3, size=(n, 1))) + 0.01 * xy_all[:, :1]
    return np.hstack([xy_all, altitude])


def household_proxy(n: int = 4000, *, seed: Optional[int] = None) -> np.ndarray:
    """7-d electricity-consumption-like data: correlated features, few modes."""
    _check_n(n)
    rng = np.random.default_rng(seed)
    num_modes = 6  # appliance usage regimes
    mode_centers = rng.uniform(0.0, 5.0, size=(num_modes, 7))
    assignments = rng.integers(0, num_modes, size=n)
    base = mode_centers[assignments]
    # Strongly correlated noise: a low-rank factor model.
    factors = rng.normal(0.0, 1.0, size=(n, 2))
    loading = rng.normal(0.0, 0.4, size=(2, 7))
    noise = rng.normal(0.0, 0.05, size=(n, 7))
    return base + factors @ loading + noise


def ht_proxy(n: int = 2000, *, seed: Optional[int] = None) -> np.ndarray:
    """10-d home-sensor-like data: slowly drifting time series snapshots."""
    _check_n(n)
    rng = np.random.default_rng(seed)
    drift = np.cumsum(rng.normal(0.0, 0.05, size=(n, 3)), axis=0)
    loading = rng.normal(0.0, 0.6, size=(3, 10))
    seasonal = np.sin(np.linspace(0.0, 40.0, n))[:, None] * rng.normal(0.5, 0.1, size=(1, 10))
    noise = rng.normal(0.0, 0.1, size=(n, 10))
    return drift @ loading + seasonal + noise


def chem_proxy(n: int = 3000, *, seed: Optional[int] = None) -> np.ndarray:
    """16-d chemical-sensor-like data: plateaus at discrete gas mixtures."""
    _check_n(n)
    rng = np.random.default_rng(seed)
    num_mixtures = 10
    mixture_response = rng.uniform(0.0, 10.0, size=(num_mixtures, 16))
    assignments = rng.integers(0, num_mixtures, size=n)
    response = mixture_response[assignments]
    sensor_drift = np.cumsum(rng.normal(0.0, 0.01, size=(n, 16)), axis=0)
    noise = rng.normal(0.0, 0.2, size=(n, 16))
    return response + sensor_drift + noise
