from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, strategies as st

from windlssvm.pipeline import (
    LaggedDataset,
    SplitSpec,
    TimeSeries,
    autocorrelation,
    clean,
    make_lagged_dataset,
    mi_ranking,
    mutual_information,
    split,
    take_lags,
    top_lags,
)


def entropy_oracle(x, bins):
    """Direct binned entropy in nats via np.histogram."""
    counts, _ = np.histogram(x, bins=bins)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


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

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError):
            clean(TimeSeries([np.nan, np.nan], missing_mask=[True, True]))

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

    def test_range(self):
        rng = np.random.default_rng(3)
        corr = autocorrelation(TimeSeries(rng.random(500)), 10)
        assert np.all(corr >= -1.0) and np.all(corr <= 1.0)


class TestMutualInformation:
    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=400)
        t = f + rng.normal(size=400)
        assert mutual_information(f, t, 16) == mutual_information(t, f, 16)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=10_000)
        t = rng.normal(size=10_000)
        assert mutual_information(f, t, 16) < 0.02

    def test_identity_equals_binned_entropy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=2_000)
        assert mutual_information(x, x, 16) == pytest.approx(entropy_oracle(x, 16), abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.normal(size=64)
            t = rng.normal(size=64)
            assert mutual_information(f, t, 8) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(np.ones(40), np.ones(41), 4)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            mutual_information(np.ones(10), np.ones(10), 16)

    def test_monotone_bin_relabeling_invariance(self):
        # increasing affine maps keep every sample in the same bin; negation
        # reverses the bin order; both only permute histogram cells
        rng = np.random.default_rng(12)
        f = rng.normal(size=800)
        t = f + rng.normal(size=800)
        base = mutual_information(f, t, 16)
        assert mutual_information(f, 3.0 * t + 7.0, 16) == pytest.approx(base, abs=1e-12)
        assert mutual_information(f, -t, 16) == pytest.approx(base, abs=1e-12)


def select(ds, fraction, bins=16):
    """MI lag selection as the experiment does it: rank, keep, restrict."""
    return take_lags(ds, top_lags(mi_ranking(ds, bins), fraction))


class TestSelectFeatures:
    def _dataset(self, n_rows=300, n_cols=6, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_rows, n_cols))
        y = rng.normal(size=n_rows)
        return LaggedDataset(X, y, tuple(range(1, n_cols + 1))), rng

    def test_full_fraction_keeps_all_reordered(self):
        ds, _ = self._dataset()
        out = select(ds, 1.0, bins=8)
        assert sorted(out.lag_indices) == list(ds.lag_indices)
        assert out.n_features == ds.n_features

    def test_ten_of_hundred(self):
        rng = np.random.default_rng(4)
        ds = LaggedDataset(rng.normal(size=(250, 100)), rng.normal(size=250), tuple(range(1, 101)))
        assert select(ds, 0.1, bins=8).n_features == 10

    def test_target_copy_ranks_first(self):
        ds, rng = self._dataset(seed=5)
        X = ds.features.copy()
        X[:, 2] = ds.targets  # lag 3 IS the target
        ds = LaggedDataset(X, ds.targets, ds.lag_indices)
        out = select(ds, 0.5, bins=8)
        assert out.lag_indices[0] == 3

    def test_cell_values_preserved(self):
        ds, _ = self._dataset(seed=6)
        out = select(ds, 0.5, bins=8)
        for j, lag in enumerate(out.lag_indices):
            orig_col = ds.lag_indices.index(lag)
            np.testing.assert_array_equal(out.features[:, j], ds.features[:, orig_col])
        np.testing.assert_array_equal(out.targets, ds.targets)

    def test_tie_break_smaller_lag_first(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=200)
        X = np.column_stack([col, rng.normal(size=200), col])  # lags 1 and 3 identical
        ds = LaggedDataset(X, rng.normal(size=200), (1, 2, 3))
        ranked = mi_ranking(ds, bins=8)
        lags = [lag for lag, _ in ranked]
        assert lags.index(1) < lags.index(3)

    def test_invalid_fraction(self):
        ds, _ = self._dataset()
        ranked = mi_ranking(ds)
        with pytest.raises(ValueError):
            top_lags(ranked, 0.0)
        with pytest.raises(ValueError):
            top_lags(ranked, 1.5)

    def test_take_lags_unknown_lag(self):
        ds, _ = self._dataset()
        with pytest.raises(ValueError):
            take_lags(ds, [99])


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

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5, 0.5)

    def test_nan_fraction(self):
        with pytest.raises(ValueError):
            SplitSpec(np.nan, 0.2, 0.2)

    def test_defaults(self):
        spec = SplitSpec()
        assert (spec.train_frac, spec.val_frac, spec.test_frac) == (0.6, 0.2, 0.2)


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
