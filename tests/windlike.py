"""A seeded wind-like series and a CSV writer that injects defects at known rows.

The marginal is Weibull with shape ``SHAPE`` (2) and mean ``MEAN`` (8 m/s);
the samples follow a Gaussian AR(1) copula with coefficient ``PHI`` (0.97;
Brown, Katz & Murphy 1984): a unit-variance Gaussian AR(1) process is
mapped to uniforms by the normal CDF, taken from ``math.erf``, and then to
speeds by the closed-form Weibull quantile. numpy only; no data file is
kept, each test writes its own.
"""

from __future__ import annotations

import math

import numpy as np

SHAPE = 2.0
MEAN = 8.0
PHI = 0.97
# The Weibull scale whose mean is MEAN.
SCALE = MEAN / math.gamma(1 + 1 / SHAPE)

# Where write_windlike_csv puts each defect, as 0-based cadence slots: a
# blank value cell, the two slots that a three-cadence step skips, and a
# one-sample spike of SPIKE_SPEED m/s.
BLANK_SLOT = 100
GAP_SLOTS = (200, 201)
SPIKE_SLOT = 300
SPIKE_SPEED = 40.0


def windlike_values(n: int, seed: int = 0) -> np.ndarray:
    """``n`` wind speeds in m/s: Weibull(SHAPE, mean MEAN) through a Gaussian
    AR(1) copula with coefficient PHI, drawn from ``seed``."""
    noise = np.random.default_rng(seed).standard_normal(n)
    z = np.empty(n)
    z[0] = noise[0]
    innovation = math.sqrt(1 - PHI * PHI)
    for i in range(1, n):
        z[i] = PHI * z[i - 1] + innovation * noise[i]
    u = np.array([0.5 * (1 + math.erf(v / math.sqrt(2))) for v in z])
    return SCALE * (-np.log1p(-u)) ** (1 / SHAPE)


def write_windlike_csv(path, n: int, seed: int = 0) -> np.ndarray:
    """Write ``n`` cadence slots of ``windlike_values(n, seed)`` as a series
    CSV with a header, stamped every 20 minutes from 2015-04-01T00:00, with
    a blank cell at BLANK_SLOT, no rows at GAP_SLOTS and SPIKE_SPEED at
    SPIKE_SLOT. Returns the slot values that the file holds, NaN where a
    sample is missing."""
    values = windlike_values(n, seed)
    values[SPIKE_SLOT] = SPIKE_SPEED
    values[[BLANK_SLOT, *GAP_SLOTS]] = np.nan
    start = np.datetime64("2015-04-01T00:00")
    rows = ["timestamp,value"]
    for i, v in enumerate(values.tolist()):
        if i in GAP_SLOTS:
            continue
        stamp = start + np.timedelta64(20 * i, "m")
        rows.append(f"{stamp}," if i == BLANK_SLOT else f"{stamp},{v!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return values
