"""Series cleaning, lagged feature construction, MI-based lag selection, splits.

A sample is missing when ``TimeSeries.missing_mask`` says so, and the mask
holds every non-finite value: ``clean`` fills exactly those samples,
``make_lagged_dataset`` and ``mi_ranking`` refuse a series that has any,
and ``data_io.write_series_csv`` writes them as blank fields.

Mutual information is a plug-in estimate over an equal-width ``MI_BINS`` x
``MI_BINS`` (16 x 16) histogram. Each variable is binned by numpy's 2-D
histogram rule, without calling it: edges ``np.linspace(min, max, 17)``, a
constant variable widened by 0.5 each way, a value in the bin whose left
edge is the last edge at or below it (``searchsorted`` side "right"), and a
value on the top edge in the last bin. ``mi_ranking`` ranks the lags
straight from the series, without building a lag matrix: lag k's column is
a window of the series and the targets are lag 0's, windows with one (min,
max) range share their edges, so the span that the windows cover is binned
once per distinct range and each window's bins are a slice of it. A
block's joint histograms, ``_MI_BLOCK`` (8) lags at a time, are counted
with one ``np.bincount``, so no temporary of a 2575-row block exceeds
165 KB.

Every count that a fraction sets, the split's blocks and the lags kept,
takes one rounding rule (``_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Cleaning replaces values until the flag set is empty; a series that still
# has flags after this many passes is refused.
_MAX_CLEAN_PASSES = 100


@dataclass
class TimeSeries:
    """Ordered scalar samples on a fixed cadence. ``missing_mask`` is the one
    record of which samples are missing: the given mask, if any, or'ed with
    the non-finite values, in a new array (the caller's mask is not
    changed). ``start`` is the first sample's time stamp when the series was
    read from a file, ``None`` for generated series."""

    values: np.ndarray
    cadence_minutes: int = 20
    missing_mask: np.ndarray | None = None
    start: datetime | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.cadence_minutes <= 0:
            raise ValueError("cadence_minutes must be positive")
        missing = ~np.isfinite(self.values)
        if self.missing_mask is not None:
            mask = np.asarray(self.missing_mask, dtype=bool).ravel()
            if mask.size != self.values.size:
                raise ValueError("missing_mask length != values length")
            missing = mask | missing
        self.missing_mask = missing

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


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train and validation fractions, each positive, that sum
    to less than 1; the test block takes the rows that remain."""

    train_frac: float = 0.6
    val_frac: float = 0.2

    def __post_init__(self):
        t, v = self.train_frac, self.val_frac
        # Written so that NaN fails. A float sum below 1 keeps the exact sum
        # of the two decimal forms that ``_count`` reads below 1 too, so the
        # test block, r - floor(t r) - floor(v r) rows, is never empty.
        if not (t > 0 and v > 0 and t + v < 1):
            raise ValueError(f"split fractions must be positive and sum to less than 1, "
                             f"got train_frac {t!r} and val_frac {v!r}")


def check_z_threshold(z, name: str = "z_threshold"):
    """The outlier gate's rule: ``clean``'s ``z_threshold`` is a finite
    positive real. Raises ValueError naming the value as ``name``."""
    if not 0 < z < math.inf:
        raise ValueError(f"{name} must be a finite positive real, got {z!r}")


def clean(series: TimeSeries, z_threshold: float = 4.0) -> tuple[TimeSeries, int]:
    """Replace missing samples and outliers with the mean of the valid samples.

    A sample is invalid when it is missing (``series.missing_mask``, which
    holds every non-finite value), negative, or when it deviates from the
    mean of the other samples by more than ``z_threshold`` leave-one-out
    standard deviations. (Leaving the candidate out keeps a single gross
    spike from inflating the gate that should catch it.) Replacement repeats
    until no sample is flagged, which makes the operation idempotent; a
    series still flagged after ``_MAX_CLEAN_PASSES`` passes is a ValueError.
    Returns the cleaned series and the number of replaced samples.
    """
    check_z_threshold(z_threshold)
    values = series.values.astype(float)
    missing = series.missing_mask
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
    if invalid.any():
        raise ValueError(f"the outlier gate still flags {int(invalid.sum())} samples "
                         f"after {_MAX_CLEAN_PASSES} replacement passes")

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


def _lagging_values(series: TimeSeries, n_lags: int) -> np.ndarray:
    """The values of a series that n_lags lags can be read from: one with no
    missing sample and more than n_lags of them. Raises ValueError."""
    if n_lags < 1:
        raise ValueError("n_lags must be positive")
    if series.missing_mask.any():
        raise ValueError("series has missing samples; clean it first")
    v = series.values
    if v.size <= n_lags:
        raise ValueError(f"series length {v.size} must exceed n_lags {n_lags}")
    return v


def make_lagged_dataset(series: TimeSeries, n_lags: int, lags=None) -> LaggedDataset:
    """One row per target, the series' samples from index n_lags on, holding
    the values ``lags`` steps before it (default 1..n_lags, lag 1 first). Only
    the given lags are built; each must lie in 1..n_lags."""
    v = _lagging_values(series, n_lags)
    lags = tuple(range(1, n_lags + 1)) if lags is None else tuple(int(k) for k in lags)
    for k in lags:
        if not 1 <= k <= n_lags:
            raise ValueError(f"lag {k} lies outside 1..{n_lags}")
    # Row i of the windows is v[i : i + n_lags], so lag k is column n_lags - k.
    windows = sliding_window_view(v, n_lags)[: v.size - n_lags]
    features = windows[:, n_lags - np.array(lags, dtype=np.intp)]
    return LaggedDataset(features, v[n_lags:].copy(), lags)


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


# Equal-width bins per variable of the MI histograms.
MI_BINS = 16

# Lags whose joint histograms mi_ranking counts together. Whole-matrix
# temporaries (2 MB at 2575 x 100) cost more time and leave glibc's heap
# grown.
_MI_BLOCK = 8


def mi_ranking(series: TimeSeries, n_lags: int, spec: SplitSpec) -> list[tuple[int, float]]:
    """(lag, MI against targets) pairs for lags 1..n_lags on the train block
    of ``split(make_lagged_dataset(series, n_lags), spec)``, sorted by
    descending MI then smaller lag. Raises ValueError where those two
    would, on fewer than 2 * ``MI_BINS`` train rows, and on a range too wide
    to bin.

    Read from the series itself: with n_train train rows, lag k's column is
    the window v[n_lags - k : n_lags - k + n_train], and the targets are
    lag 0's window. The bins depend only on a window's (min, max), so the
    span v[0 : n_lags + n_train] is binned once for each distinct range and
    every window's bins, the targets' included, are a slice of its range's
    binned span (one range on both synthetic profiles; a trend, whose every
    window has its own, holds n_lags + 1 binned spans). H(Y) is summed once;
    one ``np.bincount`` counts ``_MI_BLOCK`` (8) lags' joint histograms.
    """
    v = _lagging_values(series, n_lags)
    n_train = _block_bounds(v.size - n_lags, spec)[1]
    if n_train < 2 * MI_BINS:
        raise ValueError(f"need at least 2*MI_BINS = {2 * MI_BINS} train rows, got {n_train}")
    span = v[:n_lags + n_train]
    # Row k is lag k's window; row 0 holds the targets.
    windows = sliding_window_view(span, n_train)[::-1]
    lag_ranges = list(zip(windows.min(axis=1).tolist(), windows.max(axis=1).tolist()))
    ranges = list(dict.fromkeys(lag_ranges))
    lo, hi = np.array(ranges).T
    # Each span sample's bin, by range.
    binned = dict(zip(ranges, (np.searchsorted(inner, span, side="right")
                               for inner in _inner_edges(lo, hi))))
    y_bin = binned[lag_ranges[0]][n_lags:]
    (h_y,) = _entropies(np.bincount(y_bin, minlength=MI_BINS)[None, :], n_train)
    offsets = y_bin * MI_BINS + (np.arange(_MI_BLOCK) * MI_BINS * MI_BINS)[:, None]
    scores = []
    for k0 in range(1, n_lags + 1, _MI_BLOCK):
        lags = range(k0, min(k0 + _MI_BLOCK, n_lags + 1))
        cells = np.stack([binned[lag_ranges[k]][n_lags - k:n_lags - k + n_train] for k in lags])
        cells += offsets[:len(lags)]
        scores += zip(lags, _mi_rows(cells, h_y))
    return sorted(scores, key=lambda pair: (-pair[1], pair[0]))


def _mi_rows(cells: np.ndarray, h_y: float) -> list[float]:
    """The MI of each row of ``cells`` against the targets, whose entropy is
    ``h_y``. Entry i of row k is the cell (k * MI_BINS + y) * MI_BINS + x of
    sample i, y its target's bin and x its bin in the row's variable."""
    width, n = cells.shape
    joint = np.bincount(cells.ravel(), minlength=width * MI_BINS * MI_BINS).reshape(width, -1)
    h_x = _entropies(joint.reshape(width, MI_BINS, MI_BINS).sum(axis=1), n)
    h_xy = _entropies(joint, n)
    return [max(hx + h_y - hxy, 0.0) for hx, hxy in zip(h_x, h_xy)]


def _inner_edges(lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
    """The MI_BINS - 1 inner edges of each range (lo[i], hi[i]) by numpy's
    2-D histogram rule: ``np.linspace(lo, hi, MI_BINS + 1)``, a constant
    range widened by 0.5 each way. A value's bin, 0..MI_BINS-1, is the
    number of inner edges at or below it (``searchsorted`` side "right"),
    which puts a value on the top edge in the last bin. Raises ValueError,
    as numpy's histogram does, on a non-finite range or one too wide to
    subtract."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(hi - lo).all():
            raise ValueError("cannot bin values whose range is not finite")
    constant = lo == hi
    lo = np.where(constant, lo - 0.5, lo)
    hi = np.where(constant, hi + 0.5, hi)
    return [np.linspace(a, b, MI_BINS + 1)[1:-1] for a, b in zip(lo, hi)]


def _entropies(counts: np.ndarray, n: int) -> list[float]:
    """The entropy (nats) of each row of ``counts``, n samples a row, summed
    over the row's nonzero probabilities in ascending order."""
    p = np.sort(counts, axis=1) / n
    zeros = (counts == 0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p)
    return [float(-terms[i, z:].sum()) for i, z in enumerate(zeros)]


def take_lags(ds: LaggedDataset, lags) -> LaggedDataset:
    """Restrict a dataset to the given lags, in the given order."""
    positions = {lag: j for j, lag in enumerate(ds.lag_indices)}
    try:
        cols = [positions[int(lag)] for lag in lags]
    except KeyError as exc:
        raise ValueError(f"lag {exc.args[0]} not present in dataset") from None
    return LaggedDataset(ds.features[:, cols], ds.targets.copy(), tuple(int(k) for k in lags))


def top_lags(ranked: list[tuple[int, float]], fraction: float) -> tuple[int, ...]:
    """The ceil(fraction * n) best lags of an ``mi_ranking``, best first,
    rounded by ``_count``."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    return tuple(lag for lag, _ in ranked[:_count(fraction, len(ranked), up=True)])


def _count(fraction: float, n: int, up: bool = False) -> int:
    """fraction * n rounded down, or up, in exact arithmetic on the
    fraction's shortest decimal form (its ``repr``): 0.07 of 100 is 7, where
    the float product 7.000000000000001 would round up to 8, and 0.7 of 90
    is 63, where 62.99999999999999 would round down to 62."""
    exact = Fraction(repr(float(fraction))) * n
    return math.ceil(exact) if up else math.floor(exact)


def _block_bounds(r: int, spec: SplitSpec) -> tuple[int, int, int, int]:
    """The row bounds (0, train end, validation end, r) of ``split`` of r
    rows: floor-sized train and validation blocks, by ``_count``, the
    remainder to test, which holds at least one row (``SplitSpec``). Raises
    ValueError if the train or validation block would be empty."""
    if r < 5:
        raise ValueError(f"need at least 5 rows to split, got {r}")
    n_train = _count(spec.train_frac, r)
    bounds = (0, n_train, n_train + _count(spec.val_frac, r), r)
    fracs = (spec.train_frac, spec.val_frac)
    for name, frac, lo, hi in zip(("train", "validation"), fracs, bounds, bounds[1:]):
        if hi <= lo:
            raise ValueError(f"the {name} block is empty: a fraction of {frac!r} "
                             f"of {r} rows holds no row")
    return bounds


def split(ds: LaggedDataset, spec: SplitSpec) -> tuple[LaggedDataset, LaggedDataset, LaggedDataset]:
    """Contiguous chronological split into the blocks of ``_block_bounds``.
    No shuffling."""
    bounds = _block_bounds(ds.n_rows, spec)
    return tuple(
        LaggedDataset(ds.features[lo:hi].copy(), ds.targets[lo:hi].copy(), ds.lag_indices)
        for lo, hi in zip(bounds, bounds[1:])
    )
