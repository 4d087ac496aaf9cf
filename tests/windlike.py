"""A seeded wind-like series and a CSV writer that injects defects at known rows.

The marginal is Weibull with shape ``SHAPE`` (2) and mean ``MEAN`` (8 m/s);
the samples follow a Gaussian AR(1) copula with coefficient ``PHI`` (0.97;
Brown, Katz & Murphy 1984): a unit-variance Gaussian AR(1) process is
mapped to uniforms by the normal CDF, taken from ``math.erf``, and then to
speeds by the closed-form Weibull quantile. The writer injects the defects
that real anemometer files have at known slots. numpy only; no data file is
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

START = np.datetime64("2015-04-01T00:00")
CADENCE_MINUTES = 20

# Where write_windlike_csv puts each defect, as 0-based cadence slots. Every
# file has a blank value cell, the two slots that a three-cadence step
# skips, and a one-sample spike of SPIKE_SPEED m/s.
BLANK_SLOT = 100
GAP_SLOTS = (200, 201)
SPIKE_SLOT = 300
SPIKE_SPEED = 40.0
# The defects named in ``defects``, all past slot 1728, so inside the test
# block of a 2160-slot file at 8 lags and the default split. Values:
# "storm", a 12-hour half-sine rising to STORM_PEAK m/s, taken where it is
# above the series; "calm", 6 hours at 0 m/s; "spikes", one-sample spikes
# of SPIKES_SPEED m/s. Stamps, each a data error at its line: "duplicate",
# DUPLICATE_SLOT's row written twice; "junk", JUNK_STAMP in place of
# JUNK_SLOT's stamp; "cadence", rows after CADENCE_SLOT stamped
# CHANGED_CADENCE_MINUTES apart.
STORM_SLOTS = tuple(range(1760, 1796))
STORM_PEAK = 28.0
CALM_SLOTS = tuple(range(1860, 1878))
SPIKES_SLOTS = (1950, 2000, 2050, 2100)
SPIKES_SPEED = 25.0
DUPLICATE_SLOT = 1900
JUNK_SLOT = 1920
JUNK_STAMP = "n/a"
CADENCE_SLOT = 2000
CHANGED_CADENCE_MINUTES = 60


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


def stamp(slot: int, changed: bool = False) -> str:
    """The stamp of a slot's row as the writer prints it; ``changed`` for a
    file with the "cadence" defect."""
    minutes = CADENCE_MINUTES * slot
    if changed and slot > CADENCE_SLOT:
        minutes += (CHANGED_CADENCE_MINUTES - CADENCE_MINUTES) * (slot - CADENCE_SLOT)
    return str(START + np.timedelta64(minutes, "m"))


def line_of(slot: int) -> int:
    """The 1-based CSV line of a slot's row, below the header and before any
    stamp defect."""
    return slot + 2 - sum(gap < slot for gap in GAP_SLOTS)


def write_windlike_csv(path, n: int, seed: int = 0, defects=()) -> np.ndarray:
    """Write ``n`` cadence slots of ``windlike_values(n, seed)`` as a series
    CSV with a header, stamped every CADENCE_MINUTES from START, with a
    blank cell at BLANK_SLOT, no rows at GAP_SLOTS, SPIKE_SPEED at
    SPIKE_SLOT and each of the named ``defects``. Returns the slot values
    that the file holds, NaN where a sample is missing."""
    values = windlike_values(n, seed)
    values[SPIKE_SLOT] = SPIKE_SPEED
    values[[BLANK_SLOT, *GAP_SLOTS]] = np.nan
    if "storm" in defects:
        rise = STORM_PEAK * np.sin(np.pi * (np.arange(len(STORM_SLOTS)) + 0.5) / len(STORM_SLOTS))
        values[list(STORM_SLOTS)] = np.maximum(values[list(STORM_SLOTS)], rise)
    if "calm" in defects:
        values[list(CALM_SLOTS)] = 0.0
    if "spikes" in defects:
        values[list(SPIKES_SLOTS)] = SPIKES_SPEED
    rows = ["timestamp,value"]
    for i, v in enumerate(values.tolist()):
        if i in GAP_SLOTS:
            continue
        at = JUNK_STAMP if "junk" in defects and i == JUNK_SLOT else stamp(i, "cadence" in defects)
        rows.append(f"{at}," if i == BLANK_SLOT else f"{at},{v!r}")
        if "duplicate" in defects and i == DUPLICATE_SLOT:
            rows.append(rows[-1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return values
