"""Series cleaning, lagged feature construction, MI-based lag selection, splits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Cleaning replaces values until the flag set is empty; the cap only guards
# against pathological oscillation.
_MAX_CLEAN_PASSES = 100


@dataclass
class TimeSeries:
    """Ordered scalar samples on a fixed cadence; missing entries are masked.
    ``start`` is the first sample's time stamp when the series was read from
    a file, ``None`` for generated series."""

    values: np.ndarray
    cadence_minutes: int = 20
    missing_mask: np.ndarray | None = None
    start: datetime | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.cadence_minutes <= 0:
            raise ValueError("cadence_minutes must be positive")
        if self.missing_mask is None:
            self.missing_mask = np.zeros(self.values.size, dtype=bool)
        else:
            self.missing_mask = np.asarray(self.missing_mask, dtype=bool).ravel()
            if self.missing_mask.size != self.values.size:
                raise ValueError("missing_mask length != values length")

    def __len__(self) -> int:
        return self.values.size


@dataclass
class LaggedDataset:
    """Lagged feature matrix with aligned targets.

    Column j of ``features`` holds the series value ``lag_indices[j]`` steps
    before the row's target.
    """

    features: np.ndarray
    targets: np.ndarray
    lag_indices: tuple[int, ...]

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        self.lag_indices = tuple(int(k) for k in self.lag_indices)
        if self.features.shape[0] != self.targets.size:
            raise ValueError("feature row count != target count")
        if self.features.shape[1] != len(self.lag_indices):
            raise ValueError("feature column count != number of lag indices")

    @property
    def n_rows(self) -> int:
        return self.targets.size

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test fractions; must sum to 1."""

    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        # Written so that NaN fails both checks.
        if not all(f > 0 for f in fracs):
            raise ValueError(f"all split fractions must be positive, got {fracs}")
        if not abs(sum(fracs) - 1.0) <= 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)!r}")


def clean(series: TimeSeries, z_threshold: float = 4.0) -> tuple[TimeSeries, int]:
    """Replace missing samples and outliers with the mean of the valid samples.

    A sample is invalid when it is masked or non-finite, negative, or when it
    deviates from the mean of the other samples by more than ``z_threshold``
    leave-one-out standard deviations. (Leaving the candidate out keeps a
    single gross spike from inflating the gate that should catch it.)
    Replacement repeats until no sample is flagged, which makes the operation
    idempotent. Returns the cleaned series and the number of replaced samples.
    """
    if not 0 < z_threshold < math.inf:
        raise ValueError(f"z_threshold must be a finite positive real, got {z_threshold!r}")
    values = series.values.astype(float).copy()
    missing = series.missing_mask | ~np.isfinite(values)
    if missing.all():
        raise ValueError("every sample is missing; nothing to clean against")

    replaced = np.zeros(values.size, dtype=bool)

    # First pass works on the non-missing subset; later passes see a full
    # vector because all gaps have been filled.
    present = ~missing
    flags = _flag_invalid(values[present], z_threshold)
    invalid = missing.copy()
    invalid[np.flatnonzero(present)[flags]] = True
    for _ in range(_MAX_CLEAN_PASSES):
        if not invalid.any():
            break
        valid = ~invalid
        if not valid.any():
            raise ValueError("no valid samples survive the outlier gate")
        values[invalid] = values[valid].mean()
        replaced |= invalid
        invalid = _flag_invalid(values, z_threshold)

    cleaned = TimeSeries(values, series.cadence_minutes, start=series.start)
    return cleaned, int(replaced.sum())


def _flag_invalid(v: np.ndarray, z: float) -> np.ndarray:
    """Negative values, plus leave-one-out z-score outliers when n >= 3.

    Uses the centered identities |x_i - loo_mean_i| = |d_i| * n/(n-1) and
    loo_var_i = (SS - d_i^2 * n/(n-1)) / (n-1) with d = v - mean(v), plus an
    absolute guard so rounding noise on near-constant data never flags.
    """
    flags = v < 0
    n = v.size
    if n >= 3:
        d = v - v.mean()
        ss = (d * d).sum()
        scale = n / (n - 1)
        loo_dev = np.abs(d) * scale
        loo_var = np.maximum((ss - d * d * scale) / (n - 1), 0.0)
        guard = 1e-9 * max(1.0, float(np.abs(v).max()))
        flags = flags | (loo_dev > z * np.sqrt(loo_var) + guard)
    return flags


def make_lagged_dataset(series: TimeSeries, n_lags: int) -> LaggedDataset:
    """Build rows of the n_lags most recent values (lag 1 first) per target."""
    if n_lags < 1:
        raise ValueError("n_lags must be positive")
    if series.missing_mask.any():
        raise ValueError("series has missing samples; clean it first")
    v = series.values
    if v.size <= n_lags:
        raise ValueError(f"series length {v.size} must exceed n_lags {n_lags}")
    r = v.size - n_lags
    windows = sliding_window_view(v, n_lags)[:r]
    features = windows[:, ::-1].copy()
    targets = v[n_lags:].copy()
    return LaggedDataset(features, targets, tuple(range(1, n_lags + 1)))


def autocorrelation(series: TimeSeries, max_lag: int) -> np.ndarray:
    """Pearson correlation of the series with its k-lagged copy, k = 1..max_lag."""
    if max_lag < 1:
        raise ValueError("max_lag must be positive")
    v = series.values
    if v.size <= max_lag + 1:
        raise ValueError(f"series length {v.size} must exceed max_lag + 1 = {max_lag + 1}")
    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        a = v[k:]
        b = v[:-k]
        sa = a.std()
        sb = b.std()
        if sa == 0.0 or sb == 0.0:
            raise ValueError(f"correlation undefined at lag {k}: constant segment")
        out[k - 1] = ((a - a.mean()) * (b - b.mean())).mean() / (sa * sb)
    return out


def mutual_information(feature: np.ndarray, target: np.ndarray, bins: int = 16) -> float:
    """Plug-in mutual information (nats) over a bins x bins equal-width histogram.

    Computed as H(X) + H(Y) - H(X, Y) with each entropy summed over sorted
    probabilities, so the estimate is exactly symmetric in its arguments.
    """
    feature = np.asarray(feature, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    if feature.size != target.size:
        raise ValueError(f"length mismatch: {feature.size} vs {target.size}")
    if bins < 1:
        raise ValueError("bins must be positive")
    if feature.size < 2 * bins:
        raise ValueError(f"need at least 2*bins = {2 * bins} samples, got {feature.size}")
    joint, _, _ = np.histogram2d(feature, target, bins=bins)
    n = feature.size
    h_x = _entropy(joint.sum(axis=1), n)
    h_y = _entropy(joint.sum(axis=0), n)
    h_xy = _entropy(joint.ravel(), n)
    return max(h_x + h_y - h_xy, 0.0)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    p = np.sort(p)
    return float(-(p * np.log(p)).sum())


def mi_ranking(ds: LaggedDataset, bins: int = 16) -> list[tuple[int, float]]:
    """(lag, MI against targets) pairs, sorted by descending MI then smaller lag."""
    scores = [
        (ds.lag_indices[j], mutual_information(ds.features[:, j], ds.targets, bins))
        for j in range(ds.n_features)
    ]
    return sorted(scores, key=lambda pair: (-pair[1], pair[0]))


def take_lags(ds: LaggedDataset, lags) -> LaggedDataset:
    """Restrict a dataset to the given lags, in the given order."""
    positions = {lag: j for j, lag in enumerate(ds.lag_indices)}
    try:
        cols = [positions[int(lag)] for lag in lags]
    except KeyError as exc:
        raise ValueError(f"lag {exc.args[0]} not present in dataset") from None
    return LaggedDataset(ds.features[:, cols].copy(), ds.targets.copy(), tuple(int(k) for k in lags))


def top_lags(ranked: list[tuple[int, float]], fraction: float) -> tuple[int, ...]:
    """The ceil(fraction * n) best lags of an ``mi_ranking``, best first."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    return tuple(lag for lag, _ in ranked[: math.ceil(fraction * len(ranked))])


def split(ds: LaggedDataset, spec: SplitSpec) -> tuple[LaggedDataset, LaggedDataset, LaggedDataset]:
    """Contiguous chronological split: floor-sized train and validation blocks,
    remainder to test. No shuffling."""
    r = ds.n_rows
    if r < 5:
        raise ValueError(f"need at least 5 rows to split, got {r}")
    n_train = int(spec.train_frac * r)
    n_val = int(spec.val_frac * r)
    blocks = []
    for lo, hi in ((0, n_train), (n_train, n_train + n_val), (n_train + n_val, r)):
        blocks.append(
            LaggedDataset(ds.features[lo:hi].copy(), ds.targets[lo:hi].copy(), ds.lag_indices)
        )
    return tuple(blocks)
