import ctypes
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cython_blas, cython_lapack

from windlssvm import lssvm
from windlssvm.lssvm import (
    Hyperparams,
    LssvmModel,
    NumericError,
    kernel_from_sq_dists,
    pairwise_sq_dists,
    predict,
    train,
)


def rbf_kernel(x, x2, sigma2: float) -> float:
    """Gaussian kernel exp(-||x - x2||^2 / (2 sigma2)) of two feature vectors."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"vectors must be 1-D with equal length, got {x.shape} and {x2.shape}")
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise ValueError(f"sigma2 must be a finite positive real, got {sigma2!r}")
    d = x - x2
    return float(np.exp(-np.dot(d, d) / (2.0 * sigma2)))


def build_kernel_matrix(X, sigma2: float) -> np.ndarray:
    """N x N RBF kernel matrix of the rows of X; symmetric with unit diagonal."""
    return kernel_from_sq_dists(pairwise_sq_dists(X), sigma2)


def kkt_oracle(X, y, gamma, sigma2):
    """Brute-force reference: scalar kernel loop plus full matrix inversion."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            K[i, j] = math.exp(-float(np.dot(diff, diff)) / (2.0 * sigma2))
    A = np.zeros((n + 1, n + 1))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    A[1:, 1:] = K + np.eye(n) / gamma
    sol = np.linalg.inv(A) @ np.concatenate(([0.0], y))
    return sol[1:], sol[0], K


class TestHyperparams:
    def test_valid(self):
        hp = Hyperparams(10.0, 2.0)
        assert hp.gamma == 10.0 and hp.sigma2 == 2.0

    @pytest.mark.parametrize("gamma,sigma2", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                              (1.0, -2.0), (np.inf, 1.0), (1.0, np.nan)])
    def test_invalid(self, gamma, sigma2):
        with pytest.raises(ValueError):
            Hyperparams(gamma, sigma2)


class TestRbfKernel:
    def test_zero_distance_is_one(self):
        assert rbf_kernel([1.5, 2.0], [1.5, 2.0], 7.0) == 1.0

    def test_hand_values(self):
        assert rbf_kernel([0.0], [2.0], 2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert rbf_kernel([1.0, 1.0], [0.0, 0.0], 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            rbf_kernel([1.0], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            rbf_kernel([1.0], [2.0], 0.0)
        with pytest.raises(ValueError):
            rbf_kernel([1.0], [2.0], -3.0)

    @given(
        arrays(np.float64, 3, elements=st.floats(-10, 10)),
        arrays(np.float64, 3, elements=st.floats(-10, 10)),
        st.floats(1.0, 100.0),  # keeps exp() clear of underflow to 0.0
    )
    def test_symmetric_and_bounded(self, x, x2, sigma2):
        k = rbf_kernel(x, x2, sigma2)
        assert k == rbf_kernel(x2, x, sigma2)
        assert 0.0 < k <= 1.0


class TestKernelMatrix:
    def test_single_row(self):
        assert build_kernel_matrix([[3.0]], 5.0).tolist() == [[1.0]]

    def test_two_rows_hand_value(self):
        K = build_kernel_matrix([[0.0], [2.0]], 2.0)
        expected = np.array([[1.0, math.exp(-1.0)], [math.exp(-1.0), 1.0]])
        np.testing.assert_allclose(K, expected, atol=1e-15)

    def test_duplicate_rows_give_unit_entry(self):
        K = build_kernel_matrix([[1.0, 2.0], [1.0, 2.0], [5.0, -3.0]], 3.0)
        assert K[0, 1] == 1.0 and K[1, 0] == 1.0

    def test_symmetric_unit_diagonal_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.normal(size=(rng.integers(2, 15), rng.integers(1, 4)))
            sigma2 = rng.uniform(0.2, 20)
            K = build_kernel_matrix(X, sigma2)
            assert np.array_equal(K, K.T)
            np.testing.assert_array_equal(np.diag(K), 1.0)
            assert np.all(K > 0) and np.all(K <= 1.0)
            # adding the ridge must keep it Cholesky-factorizable
            np.linalg.cholesky(K + np.eye(len(K)) / 10.0)

    def test_invalid_sigma2(self):
        with pytest.raises(ValueError):
            build_kernel_matrix([[1.0]], -1.0)


class TestTrain:
    def test_single_sample_solved_by_hand(self):
        model = train([[5.0]], [3.7], Hyperparams(2.0, 7.0))
        assert model.dual_coeffs[0] == 0.0
        assert model.bias == 3.7

    def test_zero_targets(self):
        model = train([[0.0], [1.0], [4.0]], [0.0, 0.0, 0.0], Hyperparams(3.0, 1.5))
        np.testing.assert_array_equal(model.dual_coeffs, 0.0)
        assert model.bias == 0.0

    def test_two_point_oracle(self):
        X, y = [[0.0], [2.0]], [1.0, 2.0]
        model = train(X, y, Hyperparams(1.0, 2.0))
        a_ref, b_ref, _ = kkt_oracle(X, y, 1.0, 2.0)
        np.testing.assert_allclose(model.dual_coeffs, a_ref, atol=1e-10)
        assert model.bias == pytest.approx(b_ref, abs=1e-10)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            d = int(rng.integers(1, 4))
            X = rng.uniform(-3, 3, (n, d))
            y = rng.uniform(-5, 5, n)
            gamma = 10.0 ** rng.uniform(-2, 2)
            sigma2 = rng.uniform(0.5, 20)
            model = train(X, y, Hyperparams(gamma, sigma2))
            a_ref, b_ref, _ = kkt_oracle(X, y, gamma, sigma2)
            scale = max(1.0, np.abs(a_ref).max(), abs(b_ref))
            np.testing.assert_allclose(model.dual_coeffs, a_ref, atol=1e-9 * scale)
            assert abs(model.bias - b_ref) <= 1e-9 * scale

    def test_residual_and_dual_constraint(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            n = int(rng.integers(1, 25))
            X = rng.uniform(0, 5, (n, 2))
            y = rng.uniform(-4, 4, n)
            hp = Hyperparams(10.0 ** rng.uniform(-3, 3), rng.uniform(0.5, 50))
            model = train(X, y, hp)
            K = build_kernel_matrix(X, hp.sigma2)
            A = np.zeros((n + 1, n + 1))
            A[0, 1:] = 1.0
            A[1:, 0] = 1.0
            A[1:, 1:] = K + np.eye(n) / hp.gamma
            rhs = np.concatenate(([0.0], y))
            sol = np.concatenate(([model.bias], model.dual_coeffs))
            rel = np.linalg.norm(A @ sol - rhs) / np.linalg.norm(rhs)
            assert rel <= 1e-8
            a = model.dual_coeffs
            tol = 1e-6 * n * max(np.abs(a).max(), 1e-300)
            assert abs(a.sum()) <= max(tol, 1e-12)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 5, (8, 2))
        y = rng.uniform(-2, 2, 8)
        model = train(X, y, Hyperparams(1e10, 1.0))
        np.testing.assert_allclose(predict(model, X), y, atol=1e-4)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, (12, 3))
        y = rng.uniform(-3, 3, 12)
        hp = Hyperparams(5.0, 2.0)
        model = train(X, y, hp)
        perm = rng.permutation(12)
        model_p = train(X[perm], y[perm], hp)
        np.testing.assert_allclose(model_p.dual_coeffs, model.dual_coeffs[perm], atol=1e-10)
        assert model_p.bias == pytest.approx(model.bias, abs=1e-10)
        Xq = rng.uniform(-2, 2, (5, 3))
        np.testing.assert_allclose(predict(model_p, Xq), predict(model, Xq), atol=1e-10)

    def test_search_box_solved_or_refused(self):
        # Draws over the default hyperparam_space box at wind-like sizes: each
        # solve either meets the bordered system to 1e-8 or raises.
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(16):
            n = int(rng.integers(40, 301))
            d = int(rng.integers(1, 11))
            X = rng.uniform(0.0, 25.0, (n, d))
            y = rng.uniform(0.0, 20.0, n)
            hp = Hyperparams(10.0 ** rng.uniform(-4, 6), 10.0 ** rng.uniform(np.log10(8), np.log10(4e4)))
            try:
                model = train(X, y, hp)
            except NumericError:
                continue
            solved += 1
            A = np.zeros((n + 1, n + 1))
            A[0, 1:] = 1.0
            A[1:, 0] = 1.0
            A[1:, 1:] = build_kernel_matrix(X, hp.sigma2) + np.eye(n) / hp.gamma
            rhs = np.concatenate(([0.0], y))
            sol = np.concatenate(([model.bias], model.dual_coeffs))
            assert np.linalg.norm(A @ sol - rhs) / np.linalg.norm(rhs) <= 1e-8
            assert abs(model.dual_coeffs.sum()) <= 1e-8 * np.linalg.norm(y)
        assert solved >= 8

    @pytest.mark.parametrize("eps, fails", [(1e-7, True), (1e-11, False)])
    def test_residual_gate_catches_wrong_solve(self, monkeypatch, eps, fails):
        # Shifting nu by delta leaves 1^T a = 0 and makes the bordered
        # residual H delta, so its size relative to ||y|| is eps.
        rng = np.random.default_rng(31)
        n = 60
        X = rng.uniform(0.0, 5.0, (n, 3))
        y = rng.uniform(0.0, 10.0, n)
        hp = Hyperparams(10.0, 5.0)
        H = build_kernel_matrix(X, hp.sigma2) + np.eye(n) / hp.gamma
        u = rng.standard_normal(n)
        delta = eps * np.linalg.norm(y) * u / np.linalg.norm(H @ u)
        real_cho_solve = lssvm.cho_solve
        calls = []

        def perturbed(*args, **kwargs):
            sol = real_cho_solve(*args, **kwargs)
            sol[:, 1] += delta
            calls.append(1)
            return sol

        monkeypatch.setattr(lssvm, "cho_solve", perturbed)
        if fails:
            with pytest.raises(NumericError, match="residual"):
                lssvm.TrainingSet(X, y).solve(hp)
        else:
            lssvm.TrainingSet(X, y).solve(hp)
        assert calls == [1]

    def test_singular_system_raises(self):
        with pytest.raises(NumericError, match="pivot"):
            train([[0.0], [0.0]], [1.0, 2.0], Hyperparams(1e16, 1.0))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            train([[1.0], [2.0]], [1.0], Hyperparams(1.0, 1.0))
        with pytest.raises(ValueError):
            train([[np.nan]], [1.0], Hyperparams(1.0, 1.0))
        with pytest.raises(ValueError):
            train([[1.0]], [np.inf], Hyperparams(1.0, 1.0))


class TestPredict:
    def test_zero_coeffs_predict_bias(self):
        model = LssvmModel(np.array([[5.0]]), np.array([0.0]), 3.7, Hyperparams(1.0, 1.0))
        np.testing.assert_array_equal(predict(model, [[-100.0], [0.0], [42.0]]), 3.7)

    def test_matches_oracle_on_training_points(self):
        X, y = [[0.0], [2.0]], [1.0, 2.0]
        model = train(X, y, Hyperparams(1.0, 2.0))
        a_ref, b_ref, K = kkt_oracle(X, y, 1.0, 2.0)
        np.testing.assert_allclose(predict(model, X), K @ a_ref + b_ref, atol=1e-10)

    def test_dimension_mismatch(self):
        model = train([[0.0, 1.0]], [1.0], Hyperparams(1.0, 1.0))
        with pytest.raises(ValueError):
            predict(model, [[1.0]])

    def test_finite_outputs(self):
        rng = np.random.default_rng(21)
        model = train(rng.normal(size=(6, 2)), rng.normal(size=6), Hyperparams(3.0, 1.0))
        out = predict(model, rng.normal(size=(40, 2)) * 10)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize(
        "nq",
        [0, 1, lssvm.PREDICT_BLOCK_ROWS - 1, lssvm.PREDICT_BLOCK_ROWS,
         lssvm.PREDICT_BLOCK_ROWS + 1, 2 * lssvm.PREDICT_BLOCK_ROWS + 3],
    )
    def test_matches_per_row_rbf_sum(self, nq, n):
        rng = np.random.default_rng(nq * 1000 + n)
        hp = Hyperparams(10.0, 4.0)
        model = LssvmModel(rng.uniform(0, 20, (n, 3)), rng.normal(size=n), 0.7, hp)
        Xq = rng.uniform(0, 20, (nq, 3))
        terms = np.array([
            [a * rbf_kernel(x, s, hp.sigma2)
             for a, s in zip(model.dual_coeffs, model.support_inputs)] + [model.bias]
            for x in Xq
        ]).reshape(nq, n + 1)
        # relative to the summed term magnitudes, since terms of both signs cancel
        scale = np.abs(terms).sum(axis=1)
        err = np.abs(predict(model, Xq) - terms.sum(axis=1))
        assert np.all(err <= 1e-12 * scale)

    def test_warm_call_allocates_no_query_kernel(self):
        rng = np.random.default_rng(5)
        nq, n = 2000, 1500
        model = LssvmModel(rng.uniform(0, 20, (n, 4)), rng.normal(size=n), 0.5,
                           Hyperparams(100.0, 50.0))
        Xq = rng.uniform(0, 20, (nq, 4))
        first = predict(model, Xq)
        tracemalloc.start()
        try:
            again = predict(model, Xq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(again, first)
        assert peak < 0.5 * nq * n * 8


class TestModelValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LssvmModel(np.ones((3, 1)), np.ones(2), 0.0, Hyperparams(1.0, 1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LssvmModel(np.ones((2, 1)), np.array([np.nan, 0.0]), 0.0, Hyperparams(1.0, 1.0))
        with pytest.raises(ValueError):
            LssvmModel(np.ones((2, 1)), np.zeros(2), np.inf, Hyperparams(1.0, 1.0))

    def test_arrays_read_only(self):
        model = train([[1.0], [2.0]], [0.5, 1.5], Hyperparams(1.0, 1.0))
        with pytest.raises(ValueError):
            model.dual_coeffs[0] = 99.0


def reference_sq_dists(X):
    """The plain Gram expansion with whole n x n temporaries, symmetrised at
    the end: pairwise_sq_dists must reproduce it bit for bit."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return d2


class TestPairwiseSqDists:
    def test_zero_diagonal_symmetric(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3)) * 100
        D = pairwise_sq_dists(X)
        assert np.array_equal(D, D.T)
        np.testing.assert_array_equal(np.diag(D), 0.0)
        assert np.all(D >= 0)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(7, 2))
        D = pairwise_sq_dists(X)
        for i in range(7):
            for j in range(7):
                ref = float(np.sum((X[i] - X[j]) ** 2))
                assert D[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 2), (63, 5), (64, 10), (65, 10),
                                       (300, 3), (858, 10)])
    def test_bit_identical_to_reference_formula(self, shape):
        X = np.random.default_rng(shape[0]).uniform(0, 25, shape)
        assert np.array_equal(pairwise_sq_dists(X), reference_sq_dists(X))

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_exactly_symmetric_on_non_contiguous_input(self, layout):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 25, (150, 12))
        X = np.asfortranarray(X) if layout == "fortran" else X[:, ::2]
        D = pairwise_sq_dists(X)
        assert np.array_equal(D, D.T)
        np.testing.assert_array_equal(np.diag(D), 0.0)
        assert np.all(D >= 0)

    def test_peak_memory_is_one_square_array(self):
        n = 1000
        X = np.random.default_rng(3).uniform(0, 25, (n, 10))
        tracemalloc.start()
        try:
            pairwise_sq_dists(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


class TestTrainingKernel:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_fill_is_exactly_symmetric_with_unit_diagonal(self, n):
        X = np.random.default_rng(n).uniform(0, 25, (n, 10))
        product = lssvm.KernelProduct(X, X)
        for sigma2 in (8.0, 75.0, 900.0, 4e4):
            H = np.full((n, n), np.nan, order="F")
            product.fill_kernel(sigma2, H)
            assert np.array_equal(H, H.T)
            np.testing.assert_array_equal(np.diag(H), 1.0)
            assert np.abs(H - build_kernel_matrix(X, sigma2)).max() <= 1e-13

    def test_training_set_retains_one_square_array(self):
        n = 1000
        X = np.random.default_rng(21).uniform(0, 25, (n, 10))
        y = np.random.default_rng(22).uniform(0, 20, n)
        tracemalloc.start()
        try:
            training_set = lssvm.TrainingSet(X, y)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1.25 * n * n * 8

    def test_solves_repeat_bit_identically(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(0, 25, (300, 6))
        y = rng.uniform(0, 20, 300)
        first, second = lssvm.TrainingSet(X, y), lssvm.TrainingSet(X.copy(), y.copy())
        points = [Hyperparams(1e-3, 10.0), Hyperparams(10.0, 200.0),
                  Hyperparams(1e3, 3e3), Hyperparams(1e5, 4e4)]
        want = [first.solve(hp) for hp in points]
        for hp, (alpha, b) in zip(points * 2, want * 2):
            for training_set in (first, second):
                got_alpha, got_b = training_set.solve(hp)
                np.testing.assert_array_equal(got_alpha, alpha)
                assert got_b == b


class TestBlockedCholesky:
    def test_scipy_routines_resolve(self):
        for routine in (lssvm._DPOTRF, lssvm._DTRSM, lssvm._DSYRK):
            assert ctypes.cast(routine, ctypes.c_void_p).value

    @pytest.mark.parametrize("module, name, kinds", [(cython_blas, "dsyrk", "cciiddidd"),
                                                     (cython_lapack, "dpotrf", "cidil")])
    def test_unexpected_signature_refused(self, module, name, kinds):
        with pytest.raises(ImportError, match=name):
            lssvm._scipy_routine(module, name, kinds)

    @pytest.mark.parametrize("n", [127, 128, 129, 257, 300])
    def test_solve_matches_oracle_across_block_edges(self, n):
        assert lssvm.CHOLESKY_BLOCK == 128
        rng = np.random.default_rng(n)
        X = rng.uniform(0, 5, (n, 3))
        y = rng.uniform(-5, 5, n)
        alpha, b = lssvm.TrainingSet(X, y).solve(Hyperparams(10.0, 2.0))
        a_ref, b_ref, _ = kkt_oracle(X, y, 10.0, 2.0)
        scale = max(1.0, np.abs(a_ref).max(), abs(b_ref))
        np.testing.assert_allclose(alpha, a_ref, atol=1e-9 * scale)
        assert abs(b - b_ref) <= 1e-9 * scale

    def test_upper_triangle_is_the_filled_kernel(self):
        rng = np.random.default_rng(300)
        X = rng.uniform(0, 25, (300, 6))
        training_set = lssvm.TrainingSet(X, rng.uniform(0, 20, 300))
        training_set.solve(Hyperparams(100.0, 200.0))
        K = np.empty((300, 300), order="F")
        lssvm.KernelProduct(X, X).fill_kernel(200.0, K)
        upper = np.triu_indices(300, k=1)
        assert np.array_equal(training_set._H[upper], K[upper])

    def test_singular_later_block_raises(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 25, (300, 10))
        X[280] = X[270]
        y = rng.uniform(0, 20, 300)
        lssvm.TrainingSet(X[:280], y[:280]).solve(Hyperparams(1e16, 10.0))
        with pytest.raises(NumericError, match="pivot"):
            lssvm.TrainingSet(X, y).solve(Hyperparams(1e16, 10.0))
