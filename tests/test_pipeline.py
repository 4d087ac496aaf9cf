import math
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, strategies as st

from windlssvm.data_io import load_csv, write_series_csv
from windlssvm.experiment import ExperimentConfig, load_series
from windlssvm.pipeline import (
    LaggedDataset,
    SplitSpec,
    TimeSeries,
    _count,
    _inner_edges,
    autocorrelation,
    clean,
    make_lagged_dataset,
    mi_ranking,
    split,
    take_lags,
    top_lags,
)
from windlssvm.synthetic import SyntheticSpec


def entropy_oracle(x):
    """Direct binned entropy in nats via np.histogram at 16 bins."""
    counts, _ = np.histogram(x, bins=16)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def histogram2d_mi(feature, target):
    """MI as computed per lag with np.histogram2d at 16 bins: the oracle for
    the binning. Its entropies are summed over sorted probabilities, so it
    is exactly symmetric in its arguments."""
    joint, _, _ = np.histogram2d(feature, target, bins=16)
    n = feature.size

    def entropy(counts):
        p = np.sort(counts[counts > 0] / n)
        return float(-(p * np.log(p)).sum())

    return max(entropy(joint.sum(axis=1)) + entropy(joint.sum(axis=0)) - entropy(joint.ravel()), 0.0)


def histogram2d_ranking(ds):
    """The lag columns of ``ds`` ranked by ``histogram2d_mi`` in
    ``mi_ranking``'s order."""
    scores = [(lag, histogram2d_mi(ds.features[:, j], ds.targets))
              for j, lag in enumerate(ds.lag_indices)]
    return sorted(scores, key=lambda pair: (-pair[1], pair[0]))


def train_block(series, n_lags, spec=SplitSpec()):
    """The block that mi_ranking ranks on, built as a lag matrix and split."""
    return split(make_lagged_dataset(series, n_lags), spec)[0]


def column_ranges(ds):
    """The distinct (min, max) ranges of the lag columns of ``ds``."""
    return set(zip(ds.features.min(axis=0).tolist(), ds.features.max(axis=0).tolist()))


def several_ranges_series(kind, seed):
    """Series whose lag windows (n_lags 20, default split) do not share one
    range. "calm and gust" has three: a 0 m/s calm among the first 20
    samples is in the windows of lags 16-20 only, and a gust at the end of
    the train span in lag 1's only. "constant start": lag 20's window is
    constant, so its range is widened by 0.5 each way, while the span holds
    values outside it. ``seed`` draws the values around them.
    """
    v = 4.0 + 8.0 * np.random.default_rng(seed).random(600)
    n_train = 348  # 0.6 of the 580 rows
    if kind == "calm and gust":
        v[4] = 0.0
        v[20 - 1 + n_train - 1] = 19.0
    else:
        v[:n_train] = 7.5
    return TimeSeries(v)


def adversarial_columns(n, rng):
    """Columns whose values sit on bin edges at 16 bins, or whose edges round
    together."""
    ints = rng.integers(0, 17, n).astype(float)
    ints[:2] = (0.0, 16.0)  # range [0, 16]: at 16 bins every value is an edge
    at_max = rng.random(n)
    at_max[rng.random(n) < 0.2] = at_max.max()
    signed_zero = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    signed_zero[:3] = (-0.0, 0.0, 1.0)
    tiny = 5e-324 * rng.integers(0, 20, n)
    tiny[:2] = (0.0, 5e-324 * 19)
    return np.column_stack([
        np.full(n, 3.25),                     # constant: widened by 0.5 each way
        np.full(n, 1e16),                     # constant whose widening rounds away
        ints,
        ints / 16.0,                          # edges at exact binary fractions
        at_max,
        signed_zero,                          # both zeros and one 1.0: range [0, 1]
        np.where(rng.random(n) < 0.5, 0.0, -0.0),  # constant zeros of both signs
        -1.0 - 4.0 * rng.random(n),           # negative range
        -ints,
        tiny,                                 # subnormal range: linspace's zero-step branch
        1e16 + rng.integers(0, 8, n),         # edges collapse onto a few doubles
        1e16 + rng.integers(0, 40, n),
        1e300 * rng.standard_normal(n),       # wide but finite span
        np.resize(np.linspace(-1.3, 2.9, 17), n),  # every value an edge
        rng.standard_normal(n),
    ])


class TestHistogramBinning:
    """mi_ranking bins as np.histogram2d does, at 16 bins."""

    @staticmethod
    def _columns(seed, target, n=300):
        rng = np.random.default_rng(seed)
        y = {"normal": rng.standard_normal(n),
             "integers": rng.integers(-3, 4, n).astype(float),
             "constant": np.full(n, -2.0),
             "collapsed": 1e16 + rng.integers(0, 5, n)}[target]
        return adversarial_columns(n, rng), y

    @staticmethod
    def _bins(values):
        """Each value's bin by mi_ranking's rule: the inner edges of the
        values' range, searched from the right."""
        (inner,) = _inner_edges(np.array([values.min()]), np.array([values.max()]))
        return np.searchsorted(inner, values, side="right")

    @pytest.mark.parametrize("seed", [1, 2, 7, 16])
    @pytest.mark.parametrize("target", ["normal", "integers", "constant", "collapsed"])
    def test_joint_counts_equal_histogram2d(self, seed, target):
        X, y = self._columns(seed, target)
        y_bin = self._bins(y)
        for j in range(X.shape[1]):
            joint = np.bincount(self._bins(X[:, j]) * 16 + y_bin, minlength=16 * 16)
            expected, _, _ = np.histogram2d(X[:, j], y, bins=16)
            np.testing.assert_array_equal(joint.reshape(16, 16), expected)

    @pytest.mark.parametrize("seed", [1, 2, 7, 16])
    @pytest.mark.parametrize("target", ["normal", "integers", "constant", "collapsed"])
    def test_mi_equals_histogram2d(self, seed, target):
        # A series that holds an adversarial column, then n values of the
        # target kind: with n lags and n train rows, the column is lag n's
        # window and the targets are those values; the windows of lags
        # 1..n-1 hold some of each.
        n = 48
        X, y = self._columns(seed, target, n)
        for j in range(X.shape[1]):
            series = TimeSeries(np.concatenate([X[:, j], y, np.zeros(n * 5 // 3 - n)]))
            train = train_block(series, n)
            assert train.n_rows == n and train.targets.tolist() == y.tolist()
            assert train.features[:, -1].tolist() == X[:, j].tolist()
            assert mi_ranking(series, n, SplitSpec()) == histogram2d_ranking(train)

    @pytest.mark.parametrize("seed", [1, 2, 7, 16])
    def test_column_as_series(self, seed):
        X, _ = self._columns(seed, "normal")
        for j in range(X.shape[1]):
            series = TimeSeries(X[:, j])
            assert mi_ranking(series, 8, SplitSpec()) == histogram2d_ranking(train_block(series, 8))

    @pytest.mark.parametrize("synth_n,n_lags", [(1000, 20), (4393, 100)])
    def test_profile_training_blocks(self, synth_n, n_lags):
        # the reduced and full profiles' MI input, as prepare_data ranks it;
        # every lag window of these series shares one range
        cfg = ExperimentConfig(synthetic=SyntheticSpec(n=synth_n, seed=7), n_lags=n_lags)
        cleaned, _ = clean(load_series(cfg), cfg.z_threshold)
        train = train_block(cleaned, n_lags, cfg.split)
        assert mi_ranking(cleaned, n_lags, cfg.split) == histogram2d_ranking(train)

    @pytest.mark.parametrize("seed", [2, 7, 16])
    @pytest.mark.parametrize("kind", ["calm and gust", "constant start"])
    def test_windows_of_several_ranges(self, kind, seed):
        series = several_ranges_series(kind, seed)
        train = train_block(series, 20)
        assert train.n_rows == 348
        assert len(column_ranges(train)) >= 2
        assert mi_ranking(series, 20, SplitSpec()) == histogram2d_ranking(train)

    def test_trend_every_window_its_own_range(self):
        series = TimeSeries(np.cumsum(np.random.default_rng(9).random(800)))
        train = train_block(series, 30)
        assert len(column_ranges(train)) == 30
        assert mi_ranking(series, 30, SplitSpec()) == histogram2d_ranking(train)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        f = np.arange(40.0)
        f[5] = bad
        with pytest.raises(ValueError):
            np.histogram2d(f, np.arange(40.0), bins=16)
        series = np.arange(100.0)
        series[5] = bad
        with pytest.raises(ValueError, match="clean it first"):
            mi_ranking(TimeSeries(series), 2, SplitSpec())

    def test_span_too_wide_refused(self):
        # max - min overflows, so histogram2d's edges hold NaN and it raises
        f = np.zeros(40)
        f[:2] = (-1e308, 1e308)
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            np.histogram2d(f, np.arange(40.0), bins=16)
        # lag 2's window holds both values; the targets are all zero
        v = np.zeros(100)
        v[:2] = (-1e308, 1e308)
        with pytest.raises(ValueError, match="range is not finite"):
            mi_ranking(TimeSeries(v), 2, SplitSpec())

    def test_peak_allocation_bounded(self):
        # 2575 train rows of 100 lags, the full profile's; its lag matrix
        # would take 2 MB, and whole-matrix temporaries 2 MB each
        series = TimeSeries(np.random.default_rng(0).random(4393))
        tracemalloc.start()
        try:
            mi_ranking(series, 100, SplitSpec())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestClean:
    def test_untouched_when_clean(self):
        s = TimeSeries([3.0, 4.0, 5.0, 4.5])
        out, n = clean(s)
        np.testing.assert_array_equal(out.values, s.values)
        assert n == 0

    def test_missing_replaced_by_mean(self):
        s = TimeSeries([1.0, 2.0, np.nan, 3.0], missing_mask=[False, False, True, False])
        out, n = clean(s)
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 2.0, 3.0])
        assert n == 1
        assert not out.missing_mask.any()

    def test_spike_excluded_from_replacement_mean(self):
        out, n = clean(TimeSeries([5.0, 5.0, 5.0, 5.0, 500.0]), z_threshold=4.0)
        np.testing.assert_array_equal(out.values, [5.0, 5.0, 5.0, 5.0, 5.0])
        assert n == 1

    def test_negative_speed_replaced(self):
        out, n = clean(TimeSeries([4.0, -2.0, 6.0, 5.0]))
        assert n == 1
        assert out.values[1] == pytest.approx((4.0 + 6.0 + 5.0) / 3)

    def test_nan_without_mask_treated_missing(self):
        out, n = clean(TimeSeries([1.0, np.nan, 3.0]))
        assert n == 1
        assert np.isfinite(out.values).all()

    def test_nan_without_mask_refused_by_lagging(self):
        with pytest.raises(ValueError, match="clean it first"):
            make_lagged_dataset(TimeSeries([1.0, 2.0, np.nan, 4.0, 5.0]), 2)

    def test_nan_without_mask_round_trips_through_csv(self, tmp_path):
        path = str(tmp_path / "s.csv")
        write_series_csv(TimeSeries([1.0, np.nan, 3.0, np.inf]), path)
        assert load_csv(path).missing_mask.tolist() == [False, True, False, True]

    def test_callers_mask_not_mutated(self):
        mask = np.array([False, False, True])
        series = TimeSeries([1.0, np.nan, 3.0], missing_mask=mask)
        assert mask.tolist() == [False, False, True]
        assert series.missing_mask.tolist() == [False, True, True]

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError):
            clean(TimeSeries([np.nan, np.nan], missing_mask=[True, True]))
        # Every sample negative: none is valid to replace them with.
        with pytest.raises(ValueError, match="^no valid samples survive the outlier gate$"):
            clean(TimeSeries([-1.0, -2.0, -3.0]))

    def test_start_kept(self):
        start = datetime(2020, 1, 1, 6, 40)
        out, _ = clean(TimeSeries([1.0, np.nan, 3.0], start=start))
        assert out.start == start
        assert clean(TimeSeries([1.0, 2.0, 3.0]))[0].start is None

    def test_idempotent_on_examples(self):
        for vals, mask in [
            ([5.0, 5.0, 5.0, 5.0, 500.0], None),
            ([1.0, 2.0, np.nan, 3.0], [False, False, True, False]),
            ([0.0, 100.0, np.nan], [False, False, True]),
        ]:
            once, _ = clean(TimeSeries(vals, missing_mask=mask))
            twice, n2 = clean(once)
            np.testing.assert_array_equal(twice.values, once.values)
            assert n2 == 0

    def test_still_flagged_after_pass_cap_refused(self):
        # An exponential tail keeps flagging its next-largest samples; each
        # pass replaces a few, and 100 passes leave 63 flagged.
        values = np.concatenate([np.zeros(1000), 1.5 ** np.arange(400)])
        with pytest.raises(ValueError, match="^the outlier gate still flags 63 samples after 100"):
            clean(TimeSeries(values))

    @given(
        st.lists(st.floats(0.0, 30.0), min_size=3, max_size=60),
        st.data(),
    )
    def test_idempotent_property(self, base, data):
        # wind-like values plus occasional spikes and missing entries
        vals = np.array(base)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base))))
        spike_at = data.draw(st.integers(0, len(base) - 1))
        if data.draw(st.booleans()):
            vals[spike_at] = data.draw(st.floats(100.0, 1e4))
        if mask.all():
            mask[0] = False
        once, _ = clean(TimeSeries(vals, missing_mask=mask))
        twice, n2 = clean(once)
        np.testing.assert_array_equal(twice.values, once.values)
        assert n2 == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            clean(TimeSeries([1.0, 2.0]), z_threshold=0.0)

    @pytest.mark.parametrize("z", [np.nan, np.inf])
    def test_non_finite_threshold(self, z):
        with pytest.raises(ValueError, match="z_threshold"):
            clean(TimeSeries([1.0, 2.0]), z_threshold=z)


class TestLaggedDataset:
    def test_hand_construction(self):
        ds = make_lagged_dataset(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(ds.features, [[2.0, 1.0], [3.0, 2.0]])
        np.testing.assert_array_equal(ds.targets, [3.0, 4.0])
        assert ds.lag_indices == (1, 2)

    def test_row_count(self):
        series = TimeSeries(np.arange(103, dtype=float))
        assert make_lagged_dataset(series, 100).n_rows == 3

    def test_single_row_boundary(self):
        ds = make_lagged_dataset(TimeSeries(np.arange(7, dtype=float)), 6)
        assert ds.n_rows == 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            make_lagged_dataset(TimeSeries([1.0, 2.0]), 2)
        with pytest.raises(ValueError, match="^n_lags must be positive$"):
            make_lagged_dataset(TimeSeries([1.0, 2.0]), 0)

    @pytest.mark.parametrize("features, targets, complaint", [
        ([[1.0], [2.0]], [3.0], "feature row count != target count"),
        ([[1.0, 2.0]], [3.0], "feature column count != number of lag indices"),
    ])
    def test_shape_mismatch_refused(self, features, targets, complaint):
        with pytest.raises(ValueError, match=f"^{complaint}$"):
            LaggedDataset(features, targets, (1,))

    def test_missing_rejected(self):
        with pytest.raises(ValueError):
            make_lagged_dataset(TimeSeries([1.0, np.nan, 2.0], missing_mask=[False, True, False]), 1)

    def test_alignment_exact(self):
        rng = np.random.default_rng(10)
        v = rng.random(60)
        n_lags = 7
        ds = make_lagged_dataset(TimeSeries(v), n_lags)
        for r in range(ds.n_rows):
            target_idx = r + n_lags
            assert ds.targets[r] == v[target_idx]
            for j, lag in enumerate(ds.lag_indices):
                assert ds.features[r, j] == v[target_idx - lag]


class TestAutocorrelation:
    def test_periodic_series_at_period(self):
        period = 12
        v = np.sin(2 * np.pi * np.arange(600) / period)
        corr = autocorrelation(TimeSeries(v), period)
        assert corr[period - 1] == pytest.approx(1.0, abs=1e-9)

    def test_ramp_lag1(self):
        corr = autocorrelation(TimeSeries(np.arange(1000, dtype=float)), 1)
        assert corr[0] > 0.99

    def test_iid_noise_uncorrelated(self):
        rng = np.random.default_rng(42)
        corr = autocorrelation(TimeSeries(rng.normal(size=10_000)), 20)
        assert np.abs(corr).max() < 0.05

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(TimeSeries(np.full(50, 3.0)), 2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            autocorrelation(TimeSeries([1.0, 2.0, 3.0]), 2)
        with pytest.raises(ValueError, match="^max_lag must be positive$"):
            autocorrelation(TimeSeries([1.0, 2.0, 3.0]), 0)

    def test_range(self):
        rng = np.random.default_rng(3)
        corr = autocorrelation(TimeSeries(rng.random(500)), 10)
        assert np.all(corr >= -1.0) and np.all(corr <= 1.0)


def mi_by_lag(series, n_lags):
    return dict(mi_ranking(series, n_lags, SplitSpec()))


class TestMutualInformation:
    """The estimate's own properties, read through mi_ranking."""

    def test_symmetry_exact(self):
        # each MI equals the oracle's with the lag and the targets swapped
        series = random_series(400)
        train = train_block(series, 6)
        swapped = {lag: histogram2d_mi(train.targets, train.features[:, j])
                   for j, lag in enumerate(train.lag_indices)}
        assert mi_by_lag(series, 6) == swapped

    def test_independent_near_zero(self):
        # 10,000 train rows of i.i.d. values
        series = random_series(16_675, seed=1)
        assert train_block(series, 8).n_rows == 10_000
        assert max(mi_by_lag(series, 8).values()) < 0.02

    def test_identity_equals_binned_entropy(self):
        # lag 40's window is a copy of the targets
        series = periodic_series()
        targets = train_block(series, 50).targets
        assert mi_by_lag(series, 50)[40] == pytest.approx(entropy_oracle(targets), abs=1e-9)

    def test_non_negative(self):
        for seed in range(20):
            assert min(mi_by_lag(random_series(64, seed), 4).values()) >= 0.0

    def test_too_few_samples(self):
        # 0.6 of 52 rows is 31 train rows; of 54, 32
        with pytest.raises(ValueError, match=r"^need at least 2\*MI_BINS = 32 train rows, got 31$"):
            mi_ranking(random_series(56), 4, SplitSpec())
        mi_ranking(random_series(58), 4, SplitSpec())

    def test_monotone_bin_relabeling_invariance(self):
        # increasing affine maps keep every sample in the same bin; negation
        # reverses the bin order; both only permute histogram cells
        v = random_series(800, seed=12).values
        base = mi_by_lag(TimeSeries(v), 6)
        for mapped in (3.0 * v + 7.0, -v):
            assert mi_by_lag(TimeSeries(mapped), 6) == pytest.approx(base, abs=1e-12)


def select(series, n_lags, fraction):
    """MI lag selection as the experiment does it: rank, keep, lag."""
    return make_lagged_dataset(
        series, n_lags, top_lags(mi_ranking(series, n_lags, SplitSpec()), fraction))


def random_series(n, seed=0):
    return TimeSeries(np.random.default_rng(seed).normal(size=n))


def periodic_series(period=40, n=400, seed=5):
    """Random values repeating every ``period`` samples: lag ``period``'s
    window is a copy of the targets, and lags k and k + period have the
    same window."""
    return TimeSeries(np.resize(np.random.default_rng(seed).random(period), n))


class TestSelectFeatures:
    def _dataset(self, n_rows=300, n_cols=6, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_rows, n_cols))
        y = rng.normal(size=n_rows)
        return LaggedDataset(X, y, tuple(range(1, n_cols + 1))), rng

    def test_full_fraction_keeps_all_reordered(self):
        out = select(random_series(300), 6, 1.0)
        assert sorted(out.lag_indices) == [1, 2, 3, 4, 5, 6]
        assert out.features.shape[1] == 6

    def test_ten_of_hundred(self):
        assert select(random_series(500, seed=4), 100, 0.1).features.shape[1] == 10

    @pytest.mark.parametrize("fraction, n, kept", [
        (0.07, 100, 7), (0.14, 100, 14), (0.55, 100, 55), (0.1, 100, 10), (0.25, 8, 2)])
    def test_kept_count_exact(self, fraction, n, kept):
        # the float products 7.000000000000001, 14.000000000000002 and
        # 55.00000000000001 would keep one lag more
        ranked = [(lag, 1.0 / lag) for lag in range(1, n + 1)]
        assert top_lags(ranked, fraction) == tuple(range(1, kept + 1))

    def test_target_copy_ranks_first(self):
        ranked = mi_ranking(periodic_series(), 50, SplitSpec())
        assert ranked[0][0] == 40
        assert select(periodic_series(), 50, 0.1).lag_indices[0] == 40

    def test_cell_values_preserved(self):
        series = random_series(300, seed=6)
        out = select(series, 6, 0.5)
        full = make_lagged_dataset(series, 6)
        for j, lag in enumerate(out.lag_indices):
            np.testing.assert_array_equal(out.features[:, j], full.features[:, lag - 1])
        np.testing.assert_array_equal(out.targets, full.targets)
        taken = take_lags(full, out.lag_indices)
        assert taken.features.tobytes() == out.features.tobytes()

    def test_tie_break_smaller_lag_first(self):
        ranked = mi_ranking(periodic_series(), 50, SplitSpec())
        lags = [lag for lag, _ in ranked]
        mi = dict(ranked)
        for k in range(1, 11):  # lags k and k + 40 have the same window
            assert mi[k] == mi[k + 40]
            assert lags.index(k) < lags.index(k + 40)

    def test_invalid_fraction(self):
        ranked = mi_ranking(random_series(300), 6, SplitSpec())
        with pytest.raises(ValueError):
            top_lags(ranked, 0.0)
        with pytest.raises(ValueError):
            top_lags(ranked, 1.5)

    def test_take_lags_unknown_lag(self):
        ds, _ = self._dataset()
        with pytest.raises(ValueError):
            take_lags(ds, [99])

    @pytest.mark.parametrize("lag", [0, 7])
    def test_lag_outside_window_refused(self, lag):
        with pytest.raises(ValueError, match=f"lag {lag} lies outside 1..6"):
            make_lagged_dataset(random_series(50), 6, [1, lag])

    def test_ranking_refuses_as_the_split_does(self):
        with pytest.raises(ValueError, match="need at least 5 rows to split, got 4"):
            mi_ranking(random_series(10), 6, SplitSpec())
        with pytest.raises(ValueError, match="the train block is empty"):
            mi_ranking(random_series(600), 8, SplitSpec(0.001, 0.5))
        with pytest.raises(ValueError, match="series length 6 must exceed n_lags 6"):
            mi_ranking(random_series(6), 6, SplitSpec())


class TestSplit:
    def _dataset(self, r):
        return LaggedDataset(np.arange(r * 2, dtype=float).reshape(r, 2),
                             np.arange(r, dtype=float), (1, 2))

    @pytest.mark.parametrize("r,expected", [(100, (60, 20, 20)), (10, (6, 2, 2)), (101, (60, 20, 21))])
    def test_block_sizes(self, r, expected):
        train, val, test = split(self._dataset(r), SplitSpec())
        assert (train.n_rows, val.n_rows, test.n_rows) == expected

    def test_blocks_disjoint_ordered_complete(self):
        ds = self._dataset(37)
        train, val, test = split(ds, SplitSpec())
        glued = np.concatenate([train.targets, val.targets, test.targets])
        np.testing.assert_array_equal(glued, ds.targets)
        glued_f = np.vstack([train.features, val.features, test.features])
        np.testing.assert_array_equal(glued_f, ds.features)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(self._dataset(4), SplitSpec())
        # A fraction too small for the row count leaves its block empty.
        for r, spec, block, frac in [
            (592, SplitSpec(0.998, 0.001), "validation", "0.001"),
            (592, SplitSpec(0.001, 0.5), "train", "0.001"),
        ]:
            with pytest.raises(ValueError, match=f"the {block} block is empty: "
                                                 f"a fraction of {frac} of {r} rows"):
                split(self._dataset(r), spec)

    def test_exact_decimal_fraction(self):
        # 0.7 * 90 is 62.99999999999999 as a float
        train, val, test = split(self._dataset(90), SplitSpec(0.7, 0.15))
        assert (train.n_rows, val.n_rows, test.n_rows) == (63, 13, 14)

    def test_default_sizes_are_the_float_products(self):
        # the default fractions' counts are those of int(fraction * r)
        for frac in (0.6, 0.2):
            assert all(_count(frac, r) == int(frac * r) for r in range(60000))

    @pytest.mark.parametrize("r", [5, 10, 37, 100, 101, 592, 2575])
    def test_test_block_takes_the_rest(self, r):
        train, val, test = split(self._dataset(r), SplitSpec(0.5, 0.3))
        assert (train.n_rows, val.n_rows) == (math.floor(0.5 * r), math.floor(0.3 * r))
        assert test.n_rows == r - train.n_rows - val.n_rows
        assert test.targets.tolist() == list(range(r - test.n_rows, r))

    def test_test_block_never_empty(self):
        # Fractions whose float sum lies just below 1 still leave the test
        # block a row: the counts floor the exact decimals, which sum below 1.
        rng = np.random.default_rng(4)
        for t in rng.uniform(0.01, 0.98, 200).tolist():
            v = float(np.nextafter(1.0 - t, 0.0))
            while t + v >= 1.0:
                v = float(np.nextafter(v, 0.0))
            SplitSpec(t, v)
            for r in (97, 592, 10007):
                assert _count(t, r) + _count(v, r) < r

    def test_bad_fractions(self):
        # A zero, a negative, an infinite fraction or a sum of 1 or more.
        for fracs in [(0.5, 0.5), (0.7, 0.4), (0.1, 0.9), (0.0, 0.5), (0.5, 0.0), (-0.1, 0.5),
                      (0.5, -0.1), (float("inf"), 0.2), (0.6, float("inf"))]:
            with pytest.raises(ValueError, match="split fractions must be positive and sum "
                                                 "to less than 1"):
                SplitSpec(*fracs)

    def test_nan_fraction(self):
        for fracs in ((np.nan, 0.2), (0.6, np.nan)):
            with pytest.raises(ValueError):
                SplitSpec(*fracs)

    def test_defaults(self):
        spec = SplitSpec()
        assert (spec.train_frac, spec.val_frac) == (0.6, 0.2)


class TestTimeSeries:
    def test_mask_defaults_to_all_present(self):
        s = TimeSeries([1.0, 2.0])
        assert not s.missing_mask.any()
        assert len(s) == 2

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], missing_mask=[True])

    def test_bad_cadence(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], cadence_minutes=0)
