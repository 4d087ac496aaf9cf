import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from windlssvm import lssvm
from windlssvm.metrics import (
    HYPERPARAM_SPACE,
    LssvmFitness,
    MetricReport,
    mae,
    mape,
    metric_report,
    rmse,
)
from windlssvm.pipeline import LaggedDataset

from test_lssvm import kkt_oracle

finite_pairs = st.lists(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40
)


class TestMae:
    def test_identical(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert mae([2.0, 4.0], [1.0, 6.0]) == pytest.approx(1.5, abs=1e-12)

    def test_single_element(self):
        assert mae([5.0], [3.0]) == 2.0

    def test_errors(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mae([], [])


class TestRmse:
    def test_identical(self):
        assert rmse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_hand_value(self):
        assert rmse([2.0, 4.0], [1.0, 6.0]) == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_constant_error(self):
        assert rmse([1.0, 2.0, 3.0], [0.5, 1.5, 2.5]) == pytest.approx(0.5, abs=1e-12)


class TestMape:
    def test_identical(self):
        assert mape([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert mape([2.0, 4.0], [1.0, 6.0]) == pytest.approx(50.0, abs=1e-12)

    def test_zero_target_names_index(self):
        with pytest.raises(ValueError, match=r"y\[2\]"):
            mape([1.0, 2.0, 0.0], [1.0, 2.0, 3.0])

    def test_floor_configurable(self):
        assert mape([1e-3], [2e-3]) == pytest.approx(100.0)


class TestProperties:
    @given(finite_pairs)
    def test_rmse_dominates_mae(self, pairs):
        y = [p[0] for p in pairs]
        yhat = [p[1] for p in pairs]
        assert rmse(y, yhat) >= mae(y, yhat) - 1e-12

    @given(finite_pairs, st.floats(-100, 100))
    def test_translation_invariance(self, pairs, c):
        y = np.array([p[0] for p in pairs])
        yhat = np.array([p[1] for p in pairs])
        assert mae(y + c, yhat + c) == pytest.approx(mae(y, yhat), rel=1e-9, abs=1e-9)
        assert rmse(y + c, yhat + c) == pytest.approx(rmse(y, yhat), rel=1e-9, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(1, 10, 50)
        yhat = rng.uniform(1, 10, 50)
        perm = rng.permutation(50)
        for fn in (mae, rmse, mape):
            assert fn(y[perm], yhat[perm]) == pytest.approx(fn(y, yhat), rel=1e-12)

    def test_report_orders_metrics(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(1, 10, 30)
        yhat = y + rng.normal(0, 0.5, 30)
        rep = metric_report(y, yhat)
        assert isinstance(rep, MetricReport)
        assert rep.rmse >= rep.mae >= 0.0
        assert rep.mape >= 0.0

    def test_report_leaves_mape_undefined_on_calm_spell(self):
        y, yhat = [4.0, 0.0, 2.0], [3.5, 0.5, 2.0]
        rep = metric_report(y, yhat)
        assert rep.mape is None
        assert rep.mae == mae(y, yhat)
        assert rep.rmse == rmse(y, yhat)


def _dataset(X, y, lags=(1,)):
    return LaggedDataset(np.asarray(X, dtype=float), np.asarray(y, dtype=float), lags)


def _solves(fit):
    counts = fit.training_set.counts
    return counts["fast"] + counts["dense"]


class TestLssvmFitness:
    def test_pure(self):
        rng = np.random.default_rng(2)
        tr = _dataset(rng.uniform(0, 5, (20, 2)), rng.uniform(0, 5, 20), (1, 2))
        va = _dataset(rng.uniform(0, 5, (8, 2)), rng.uniform(0, 5, 8), (1, 2))
        fit = LssvmFitness(tr, va)
        pos = np.array([1.0, 0.5])
        first = fit(pos)
        fit(np.array([3.0, 1.2]))
        fit.forget()
        assert fit(pos) == first
        assert _solves(fit) == 3

    def test_interpolation_limit_on_train_as_val(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 5, (10, 2))
        y = rng.uniform(-2, 2, 10)
        ds = _dataset(X, y, (1, 2))
        fit = LssvmFitness(ds, ds)
        assert fit(np.array([10.0, 0.0])) < 1e-4  # gamma=1e10, sigma2=1

    def test_two_point_dataset_matches_oracle(self):
        X, y = [[0.0], [2.0]], [1.0, 2.0]
        ds = _dataset(X, y)
        fit = LssvmFitness(ds, ds)
        got = fit(np.array([math.log10(1.0), math.log10(2.0)]))
        a_ref, b_ref, K = kkt_oracle(X, y, 1.0, 2.0)
        pred_ref = K @ a_ref + b_ref
        expected = math.sqrt(np.mean((np.asarray(y) - pred_ref) ** 2))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_numeric_failure_counted_as_inf(self):
        # duplicated rows + huge gamma: the KKT system is singular
        tr = _dataset([[1.0], [1.0]], [0.0, 1.0])
        fit = LssvmFitness(tr, tr)
        assert fit(np.array([16.0, 0.0])) == np.inf

    def test_stored_inf_stays_inf(self):
        tr = _dataset([[1.0], [1.0]], [0.0, 1.0])
        fit = LssvmFitness(tr, tr)
        pos = np.array([16.0, 0.0])
        assert fit(pos) == np.inf
        assert fit(pos) == np.inf
        assert _solves(fit) == 1

    def test_scratch_buffers_carry_no_state(self):
        # rows 0 and 1 coincide, so gamma=1e16 makes the KKT system singular
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 5, (30, 2))
        X[1] = X[0]
        tr = _dataset(X, rng.uniform(0, 5, 30), (1, 2))
        va = _dataset(rng.uniform(0, 5, (9, 2)), rng.uniform(0, 5, 9), (1, 2))
        p1, p2 = np.array([1.0, 0.5]), np.array([3.0, 1.2])
        fails = [np.array([16.0, 0.0]), np.array([11.5, 29.5])]
        fit = LssvmFitness(tr, va)
        got = [fit(p1)] + [fit(p) for p in fails] + [fit(p2)]
        fit.forget()
        got.append(fit(p1))
        assert _solves(fit) == 5
        assert got[1:3] == [np.inf, np.inf]
        expected = [LssvmFitness(tr, va)(p) for p in (p1, p2, p1)]
        assert [got[0], got[3], got[4]] == expected
        assert all(np.isfinite(expected))

    def test_warm_call_allocates_no_square_matrix(self):
        rng = np.random.default_rng(8)
        n = 400
        tr = _dataset(rng.uniform(0, 20, (n, 3)), rng.uniform(0, 20, n), (1, 2, 3))
        va = _dataset(rng.uniform(0, 20, (100, 3)), rng.uniform(0, 20, 100), (1, 2, 3))
        fit = LssvmFitness(tr, va)
        pos = np.array([2.0, 1.5])
        first = fit(pos)
        fit.forget()
        tracemalloc.start()
        try:
            again = fit(pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _solves(fit) == 2
        assert again == first and np.isfinite(first)
        assert peak < 0.5 * n * n * 8

    def test_warm_call_allocates_no_validation_kernel(self):
        # The validation kernel lives in a buffer, and dgemv gets its
        # Fortran-ordered transpose, so f2py makes no copy of it either.
        rng = np.random.default_rng(8)
        n, n_val = 400, 100
        tr = _dataset(rng.uniform(0, 20, (n, 3)), rng.uniform(0, 20, n), (1, 2, 3))
        va = _dataset(rng.uniform(0, 20, (n_val, 3)), rng.uniform(0, 20, n_val), (1, 2, 3))
        fit = LssvmFitness(tr, va)
        pos = np.array([2.0, 1.5])
        first = fit(pos)
        fit.forget()
        tracemalloc.start()
        try:
            again = fit(pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _solves(fit) == 2
        assert again == first and np.isfinite(first)
        assert peak < 0.5 * n_val * n * 8

    def test_equals_rmse_of_predict_on_model(self):
        # Validation and predict share one kernel-vector product.
        rng = np.random.default_rng(14)
        tr = _dataset(rng.uniform(0, 20, (150, 4)), rng.uniform(0, 20, 150), (1, 2, 3, 4))
        va = _dataset(rng.uniform(0, 20, (140, 4)), rng.uniform(0, 20, 140), (1, 2, 3, 4))
        fit = LssvmFitness(tr, va)
        for p in ([2.0, 1.5], [-1.0, 3.0], [4.5, 2.2], [0.3, 4.6]):
            p = np.array(p)
            got = fit(p)
            assert np.isfinite(got)
            assert got == rmse(va.targets, lssvm.predict(fit.model(p), va.features))

    def test_holds_no_validation_kernel(self):
        rng = np.random.default_rng(9)
        n, n_val = 300, 1200
        tr = _dataset(rng.uniform(0, 20, (n, 3)), rng.uniform(0, 20, n), (1, 2, 3))
        va = _dataset(rng.uniform(0, 20, (n_val, 3)), rng.uniform(0, 20, n_val), (1, 2, 3))
        tracemalloc.start()
        try:
            fit = LssvmFitness(tr, va)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.isfinite(fit(np.array([2.0, 1.5])))
        assert retained < 2 * n * n * 8 + 0.5 * n_val * n * 8

    def test_model_matches_fresh_train(self):
        # Same rows as test_scratch_buffers_carry_no_state: the failing
        # positions leave the shared buffer in a factorized state.
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 5, (30, 2))
        X[1] = X[0]
        tr = _dataset(X, rng.uniform(0, 5, 30), (1, 2))
        va = _dataset(rng.uniform(0, 5, (9, 2)), rng.uniform(0, 5, 9), (1, 2))
        fit = LssvmFitness(tr, va)
        fails = [np.array([16.0, 0.0]), np.array([11.5, 29.5])]
        for p in (np.array([1.0, 0.5]), np.array([3.0, 1.2]), np.array([-2.0, 2.0])):
            fit.forget()
            fit(p)
            assert all(fit(f) == np.inf for f in fails)
            got = fit.model(p)
            want = lssvm.train(tr.features, tr.targets, fit.decode(p))
            np.testing.assert_array_equal(got.dual_coeffs, want.dual_coeffs)
            np.testing.assert_array_equal(got.support_inputs, want.support_inputs)
            assert got.bias == want.bias
            assert got.hyperparams == want.hyperparams
        with pytest.raises(lssvm.NumericError):
            fit.model(fails[0])

    def test_warm_model_allocates_no_square_matrix(self):
        rng = np.random.default_rng(8)
        n = 400
        tr = _dataset(rng.uniform(0, 20, (n, 3)), rng.uniform(0, 20, n), (1, 2, 3))
        va = _dataset(rng.uniform(0, 20, (100, 3)), rng.uniform(0, 20, 100), (1, 2, 3))
        fit = LssvmFitness(tr, va)
        pos = np.array([2.0, 1.5])
        first = fit.model(pos)
        tracemalloc.start()
        try:
            again = fit.model(pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(again.dual_coeffs, first.dual_coeffs)
        assert peak < 0.5 * n * n * 8

    def test_position_validation(self):
        ds = _dataset([[0.0], [1.0]], [0.0, 1.0])
        fit = LssvmFitness(ds, ds)
        with pytest.raises(ValueError):
            fit(np.array([1.0]))
        with pytest.raises(ValueError):
            fit(np.array([np.nan, 1.0]))

    def test_bad_training_set_rejected(self):
        va = _dataset([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            LssvmFitness(_dataset([[0.0], [np.nan]], [0.0, 1.0]), va)
        with pytest.raises(ValueError, match="finite"):
            LssvmFitness(_dataset([[0.0], [1.0]], [0.0, np.inf]), va)
        with pytest.raises(ValueError, match="at least one"):
            LssvmFitness(_dataset(np.empty((0, 1)), [], (1,)), _dataset(np.empty((0, 1)), [], (1,)))

    def test_lag_mismatch_rejected(self):
        a = _dataset([[0.0], [1.0]], [0.0, 1.0], (1,))
        b = _dataset([[0.0], [1.0]], [0.0, 1.0], (2,))
        with pytest.raises(ValueError):
            LssvmFitness(a, b)


class TestHyperparamSpace:
    def test_reference_box(self):
        sp = HYPERPARAM_SPACE
        np.testing.assert_allclose(sp.lower, [math.log10(1e-4), math.log10(8.0)])
        np.testing.assert_allclose(sp.upper, [math.log10(1e6), math.log10(4e4)])
