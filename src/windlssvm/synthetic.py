"""Seeded synthetic wind-speed-like series of a fixed shape: ``MEAN`` plus
sinusoids + AR(1) + white noise, shifted upward if needed to a minimum of
``FLOOR``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pipeline import TimeSeries

MEAN = 8.0
SINUSOIDS = ((2.0, 72.0), (0.8, 36.0))  # (amplitude, period in samples): a day and half a day at 20 min
AR_COEFF = 0.9
AR_STD = 0.4
NOISE_STD = 0.5
FLOOR = 0.5
CADENCE_MINUTES = 20


@dataclass(frozen=True)
class SyntheticSpec:
    """The settings of the fixed-shape series: length and seed."""

    n: int = 4393
    seed: int = 7

    def __post_init__(self):
        if self.n < 500:
            raise ValueError(f"n must be at least 500, got {self.n}")


def generate_synthetic(spec: SyntheticSpec) -> TimeSeries:
    """The fixed-shape series for ``spec``, deterministic per seed; draw order
    is the AR innovation vector, then the white-noise vector."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.n, dtype=float)
    x = np.full(spec.n, MEAN)
    for amp, period in SINUSOIDS:
        x += amp * np.sin(2.0 * np.pi * t / period)

    # The recurrence runs on Python floats: numpy's float64 scalars give the
    # same bits at about twice the cost.
    ar = []
    prev = 0.0
    for e in rng.normal(0.0, AR_STD, spec.n).tolist():
        prev = AR_COEFF * prev + e
        ar.append(prev)
    x += np.array(ar)

    x += rng.normal(0.0, NOISE_STD, spec.n)

    shift = FLOOR - x.min()
    if shift > 0:
        x += shift
    return TimeSeries(x, cadence_minutes=CADENCE_MINUTES)
