import ctypes
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

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
        # Draws over the HYPERPARAM_SPACE box at wind-like sizes: each
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
        # residual H delta, and shifting b by eps ||y|| / sqrt(n) adds that
        # to each of its n rows, so either way its size relative to ||y|| is
        # eps. Both solvers are perturbed: a fast solution that fails the
        # gate goes to the dense path, and a dense one that fails it raises.
        rng = np.random.default_rng(31)
        n = 60
        X = rng.uniform(0.0, 5.0, (n, 3))
        y = rng.uniform(0.0, 10.0, n)
        hp = Hyperparams(10.0, 5.0)
        H = build_kernel_matrix(X, hp.sigma2) + np.eye(n) / hp.gamma
        u = rng.standard_normal(n)
        delta = eps * np.linalg.norm(y) * u / np.linalg.norm(H @ u)
        real_dual, real_pcg = lssvm._dual, lssvm._pcg
        calls = []

        def perturbed_dual(eta, nu):
            calls.append("dense")
            return real_dual(eta, nu + delta)

        def perturbed_pcg(*args):
            alpha, b, iterations = real_pcg(*args)
            calls.append("fast")
            return alpha, b + eps * np.linalg.norm(y) / np.sqrt(n), iterations

        monkeypatch.setattr(lssvm, "_dual", perturbed_dual)
        monkeypatch.setattr(lssvm, "_pcg", perturbed_pcg)
        training_set = lssvm.TrainingSet(X, y)
        if fails:
            with pytest.raises(NumericError, match="residual"):
                training_set.solve(hp)
            assert calls == ["fast", "dense"]
            assert training_set.counts["gate"] == 1
        else:
            training_set.solve(hp)
            assert calls == ["fast"]
            assert training_set.counts["fast"] == 1

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
        with pytest.raises(ValueError, match="^support_inputs must be 2-D and dual_coeffs 1-D$"):
            LssvmModel(np.ones(3), np.ones(3), 0.0, Hyperparams(1.0, 1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LssvmModel(np.ones((2, 1)), np.array([np.nan, 0.0]), 0.0, Hyperparams(1.0, 1.0))
        with pytest.raises(ValueError):
            LssvmModel(np.ones((2, 1)), np.zeros(2), np.inf, Hyperparams(1.0, 1.0))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_refused(self, shape):
        with pytest.raises(ValueError, match="at least one support row"):
            LssvmModel(np.ones(shape), np.zeros(shape[0]), 0.0, Hyperparams(1.0, 1.0))

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


def filled_kernel(X, sigma2, diagonal):
    """K with ``diagonal`` on its diagonal as fill_kernel writes it, mirrored
    from its lower triangle."""
    n = len(X)
    K = np.empty((n, n), order="F")
    lssvm.KernelProduct(X, X).fill_kernel(sigma2, diagonal, K, np.empty((n, n), order="F"))
    return np.tril(K) + np.tril(K, -1).T


def fresh_fill(X, hp):
    """H = K + I/gamma as a TrainingSet fills it."""
    return filled_kernel(X, hp.sigma2, 1.0 + 1.0 / hp.gamma)


class TestTrainingKernel:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_fill_is_exactly_symmetric_with_unit_diagonal(self, n):
        # The lower triangle and the reversed upper one hold the same
        # numbers: K's lower triangle is G = P K P's upper one, read back to
        # front.
        X = np.random.default_rng(n).uniform(0, 25, (n, 10))
        product = lssvm.KernelProduct(X, X)
        lower = np.tril_indices(n)
        for sigma2 in (8.0, 75.0, 900.0, 4e4):
            H = np.full((n, n), np.nan, order="F")
            G = np.full((n, n), np.nan, order="F")
            product.fill_kernel(sigma2, 1.0, H, G)
            assert np.array_equal(G[::-1, ::-1][lower], H[lower])
            np.testing.assert_array_equal(np.diag(H), 1.0)
            K = np.tril(H) + np.tril(H, -1).T
            assert np.abs(K - build_kernel_matrix(X, sigma2)).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_fill_with_single_precision_upper(self, n):
        # Into separate arrays: the lower triangle is the double-precision
        # fill's, the upper triangle of ``upper`` is its reversal rounded to
        # float32, and nothing else of either array is written.
        X = np.random.default_rng(n).uniform(0, 25, (n, 10))
        product = lssvm.KernelProduct(X, X)
        lower, strict_upper = np.tril_indices(n), np.triu_indices(n, k=1)
        for sigma2 in (8.0, 75.0, 900.0, 4e4):
            K = filled_kernel(X, sigma2, 1.0)
            H = np.full((n, n), np.nan, order="F")
            upper = np.full((n, n), -7.0, dtype=np.float32, order="F")
            product.fill_kernel(sigma2, 1.0, H, upper)
            assert np.array_equal(H[lower], K[lower])
            assert np.isnan(H[strict_upper]).all()
            assert np.array_equal(np.triu(upper), np.triu(K[::-1, ::-1].astype(np.float32)))
            assert (upper[np.tril_indices(n, k=-1)] == -7.0).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2, 65, 130])
    def test_fill_writes_only_h_lower_and_g_upper(self, n, dtype):
        # In a TrainingSet's NaN-filled buffer, the fill writes exactly H's
        # lower triangle and the upper triangle of G = P H P, in double
        # precision from the top of columns 1..n or in single precision with
        # a leading dimension of 2n floats. The diagonal it is given lands on
        # both diagonals, rounded to G's precision.
        X = np.random.default_rng(n).uniform(0, 25, (n, 10))
        training_set = lssvm.TrainingSet(X, np.zeros(n))
        G = training_set._G if dtype == np.float64 else training_set._R
        sigma2, diagonal = 75.0, 1.0 + 1.0 / 3.0
        K = filled_kernel(X, sigma2, 1.0)
        buffer = training_set._H.base
        assert buffer.shape == (n, n + 1) and np.shares_memory(G, buffer)
        buffer[...] = np.nan
        want = np.full_like(buffer, np.nan)
        want_H, want_G = want[:, :n], np.ndarray(G.shape, G.dtype, buffer=want, offset=8 * n,
                                                 strides=G.strides)
        lower, upper = np.tril_indices(n), np.triu_indices(n)
        want_H[lower] = K[lower]
        want_G[upper] = K[::-1, ::-1][upper]
        want_H[np.diag_indices(n)] = want_G[np.diag_indices(n)] = diagonal
        training_set._kernel.fill_kernel(sigma2, diagonal, training_set._H, G)
        assert np.array_equal(buffer.view(np.uint64), want.view(np.uint64))
        assert (np.diag(training_set._H) == diagonal).all()
        assert (np.diag(G) == dtype(diagonal)).all()

    @pytest.mark.parametrize("n", [2, 65, 300, 1000])
    def test_single_precision_factor_leaves_h_lower_intact(self, n):
        # In a TrainingSet the float32 array shares the buffer with H: the
        # fill and the single-precision factorization leave H's lower
        # triangle and diagonal as the fill writes them, and the float32
        # upper triangle holds the factor U of G = P H P.
        rng = np.random.default_rng(n)
        X = rng.uniform(0, 25, (n, 6))
        training_set = lssvm.TrainingSet(X, rng.uniform(0, 20, n))
        hp = Hyperparams(10.0, 75.0)
        training_set.solve(hp)
        assert training_set.counts["fast"] == 1
        H = fresh_fill(X, hp)
        lower = np.tril_indices(n)
        assert np.array_equal(training_set._H[lower], H[lower])
        R = training_set._R
        assert np.shares_memory(R, training_set._H)
        U = np.triu(R).astype(float)
        np.testing.assert_allclose(U.T @ U, H[::-1, ::-1], atol=1e-5)

    @pytest.mark.parametrize("route", ["fast", "dense", "fallback"])
    def test_h_lower_is_the_fresh_fill_after_a_solve(self, monkeypatch, route):
        # No factorization writes H's lower triangle: after a fast solve, a
        # dense one (gamma = 1e5 at n = 300 is beyond the fast path's bound)
        # and a fallback (one CG iteration at gamma = 10) it is the fill's.
        rng = np.random.default_rng(300)
        X = rng.uniform(0, 25, (300, 6))
        training_set = lssvm.TrainingSet(X, rng.uniform(0, 20, 300))
        hp = Hyperparams(1e5 if route == "dense" else 10.0, 200.0)
        if route == "fallback":
            monkeypatch.setattr(lssvm, "CG_MAX_ITER", 1)
        training_set.solve(hp)
        counts = training_set.counts
        want = {"fast": (1, 0, 0), "dense": (0, 1, 0), "fallback": (0, 1, 1)}[route]
        assert (counts["fast"], counts["dense"], counts["cg_cap"]) == want
        lower = np.tril_indices(300)
        assert np.array_equal(training_set._H[lower], fresh_fill(X, hp)[lower])

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

    def test_buffer_beyond_memory_refused_before_allocation(self, monkeypatch):
        # The memory figure is patched one byte short of the 2000 rows'
        # 32 MB buffer, which is never allocated.
        n = 2000
        X, y = np.linspace(0.0, 1.0, n)[:, None], np.linspace(0.0, 1.0, n)
        need = lssvm.buffer_bytes(n)
        assert need == 8 * n * (n + 1)
        monkeypatch.setattr(lssvm, "memory_limit_bytes", lambda: (need - 1, None))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                lssvm.TrainingSet(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"a training block of 2000 rows needs a {need}-byte kernel "
                                   f"buffer, more than the machine's {need - 1} bytes of physical "
                                   "memory; use a shorter series or a lower --train-frac")
        assert peak < need / 100
        monkeypatch.setattr(lssvm, "memory_limit_bytes", lambda: (lssvm.buffer_bytes(3), None))
        assert lssvm.TrainingSet(X[:3], y[:3]).solve(Hyperparams(10.0, 1.0))[0].shape == (3,)

    def test_physical_memory_is_read(self):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert lssvm.buffer_bytes(2575) < lssvm.memory_limit_bytes()[0] <= physical

    @staticmethod
    def _fake_cgroups(root, monkeypatch, cgroup, files):
        # proc/self/cgroup holds ``cgroup`` (no file if None); ``files`` lie
        # under sys/fs/cgroup.
        monkeypatch.setattr(lssvm, "SYSTEM_ROOT", str(root))
        if cgroup is not None:
            (root / "proc" / "self").mkdir(parents=True)
            (root / "proc" / "self" / "cgroup").write_text(cgroup)
        for name, text in files.items():
            (root / "sys/fs/cgroup" / name).parent.mkdir(parents=True, exist_ok=True)
            (root / "sys/fs/cgroup" / name).write_text(text)

    # In each tree the file named first sets the limit, 1 MB; the others set
    # a higher limit, none, or lie outside the process's cgroup.
    @pytest.mark.parametrize("cgroup,files", [
        ("0::/jobs/run\n", {"jobs/memory.max": "1000000\n", "jobs/run/memory.max": "max\n",
                            "memory.max": "2000000\n", "other/memory.max": "5\n"}),
        ("4:memory:/jobs/run\n3:cpuset:/\n0::/\n",
         {"memory/jobs/run/memory.stat": "hierarchical_memory_limit 1000000\n"
                                         "hierarchical_memsw_limit 5\n"}),
        # A v1 container sees its own cgroup at the mount's root.
        ("4:memory:/docker/abc\n",
         {"memory/memory.stat": "cache 0\nhierarchical_memory_limit 1000000\n"}),
        # A cgroup v2 namespace shows a cgroup outside it as a "/.." path.
        ("0::/../outer\n", {"memory.max": "1000000\n", "outer/memory.max": "5\n"}),
    ], ids=["v2", "v1", "v1-container", "v2-outside-namespace"])
    def test_memory_cgroup_limit_is_read(self, tmp_path, monkeypatch, cgroup, files):
        self._fake_cgroups(tmp_path, monkeypatch, cgroup, files)
        limiting = tmp_path / "sys/fs/cgroup" / next(iter(files))
        assert lssvm.memory_limit_bytes() == (10**6, str(limiting))

    @pytest.mark.parametrize("cgroup,files", [
        (None, {}),
        ("0::/jobs\n", {"jobs/memory.max": "max\n"}),
        ("4:memory:/\n",
         {"memory/memory.stat": "hierarchical_memory_limit 9223372036854771712\n"}),
    ], ids=["no-cgroup-file", "v2-max", "v1-unlimited"])
    def test_unlimited_cgroup_leaves_physical_memory(self, tmp_path, monkeypatch, cgroup, files):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        self._fake_cgroups(tmp_path, monkeypatch, cgroup, files)
        assert lssvm.memory_limit_bytes() == (physical, None)

    def test_buffer_beyond_cgroup_limit_refused_before_allocation(self, tmp_path, monkeypatch):
        n = 2000
        need = lssvm.buffer_bytes(n)
        self._fake_cgroups(tmp_path, monkeypatch, "0::/jobs\n",
                           {"jobs/memory.max": f"{need - 1}\n"})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                lssvm.TrainingSet(np.linspace(0.0, 1.0, n)[:, None], np.linspace(0.0, 1.0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"a training block of 2000 rows needs a {need}-byte kernel "
                                   f"buffer, more than the {need - 1}-byte memory cgroup limit in "
                                   f"{tmp_path}/sys/fs/cgroup/jobs/memory.max; use a shorter "
                                   "series or a lower --train-frac")
        assert peak < need / 100

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
    @pytest.mark.parametrize("name", ["DPOTRF", "DTRTRI", "DTRMM", "DTRSV", "DSYRK", "SPOTRF",
                                      "STRTRI", "STRMM", "SSYRK", "STRSV", "DGEMM", "DSYMV"])
    def test_routines_resolve_in_numpys_blas(self, name):
        routine = getattr(lssvm, f"_{name}")
        assert routine.__name__ == f"scipy_{name.lower()}_64_"
        assert ctypes.cast(routine, ctypes.c_void_p).value

    @pytest.mark.parametrize("name", ["dpotrf_64", "no_such_routine"])
    def test_missing_symbol_refused(self, name):
        with pytest.raises(ImportError, match=f"scipy_{name}_64_"):
            lssvm._blas_routine(name, "cipii")

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

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 300])
    def test_factor_matches_numpy_across_block_edges(self, n, dtype, rtol):
        # The factor of G = P H P, in an array whose columns lie 2n entries
        # apart as the float32 one of a TrainingSet does; the strict lower
        # triangle is left as it is.
        X = np.random.default_rng(n).uniform(0, 5, (n, 3))
        G = (build_kernel_matrix(X, 2.0) + np.eye(n) / 10.0)[::-1, ::-1]
        A = np.empty((2 * n, n), dtype=dtype, order="F")[:n]
        A[...] = G
        before = np.tril(A, -1)
        assert lssvm._cholesky_upper(A)
        want = np.linalg.cholesky(G).T
        assert np.abs(np.triu(A) - want).max() <= rtol * np.abs(want).max()
        assert np.array_equal(np.tril(A, -1), before)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_factor_refuses_a_later_block(self, dtype):
        # The first block is positive definite; a negative diagonal entry in
        # the second one makes the matrix indefinite.
        n = 300
        X = np.random.default_rng(7).uniform(0, 5, (n, 3))
        A = np.asfortranarray(build_kernel_matrix(X, 2.0) + np.eye(n), dtype=dtype)
        A[200, 200] = -1.0
        assert not lssvm._cholesky_upper(A)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_solve_with_factor_matches_numpy(self, n, dtype):
        # H^-1 r from the factor of G = P H P, in an array whose columns lie
        # 2n entries apart: to 1e-10 in double precision, and in single
        # precision within kappa(H) u_s of a well-conditioned H.
        rng = np.random.default_rng(n)
        H = build_kernel_matrix(rng.uniform(0, 5, (n, 3)), 2.0) + np.eye(n)
        r = rng.uniform(-5, 5, n)
        U = np.empty((2 * n, n), dtype=dtype, order="F")[:n]
        U[...] = H[::-1, ::-1]
        assert lssvm._cholesky_upper(U)
        got, want = lssvm._cholesky_solve(U, r), np.linalg.solve(H, r)
        assert got.dtype == np.float64
        bound = 1e-10 if dtype == np.float64 else np.linalg.cond(H) * np.finfo(dtype).eps / 2
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    def test_solve_with_factor_refuses_a_bad_layout(self):
        n = 10
        U = np.asfortranarray(np.eye(n))
        with pytest.raises(ValueError, match="length 10"):
            lssvm._cholesky_solve(U, np.ones(n + 1))
        strided = np.empty((2 * n, n), order="F")[::2]
        strided[...] = U
        with pytest.raises(ValueError, match="contiguous columns"):
            lssvm._cholesky_solve(strided, np.ones(n))

    @pytest.mark.parametrize("route", ["dense", "fallback"])
    def test_upper_triangle_is_the_factor_of_the_reversed_kernel(self, monkeypatch, route):
        # gamma = 1e5 at n = 300 is beyond the fast path's bound, so the
        # solve takes the dense path; gamma = 10 is within it, and one CG
        # iteration falls back to the dense path, which fills G again in
        # double precision. Its upper triangle then holds the factor U of
        # G = P H P.
        rng = np.random.default_rng(300)
        X = rng.uniform(0, 25, (300, 6))
        training_set = lssvm.TrainingSet(X, rng.uniform(0, 20, 300))
        hp = Hyperparams(1e5 if route == "dense" else 10.0, 200.0)
        if route == "fallback":
            monkeypatch.setattr(lssvm, "CG_MAX_ITER", 1)
        training_set.solve(hp)
        assert training_set.counts["cg_cap"] == (route == "fallback")
        assert training_set.counts["dense"] == 1
        U = np.triu(training_set._G)
        want = fresh_fill(X, hp)[::-1, ::-1]
        np.testing.assert_allclose(U.T @ U, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_singular_later_block_raises(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 25, (300, 10))
        X[280] = X[270]
        y = rng.uniform(0, 20, 300)
        lssvm.TrainingSet(X[:280], y[:280]).solve(Hyperparams(1e16, 10.0))
        with pytest.raises(NumericError, match="pivot"):
            lssvm.TrainingSet(X, y).solve(Hyperparams(1e16, 10.0))


def dense_solve(monkeypatch, X, y, hp):
    """The solve at ``hp`` with the fast path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(lssvm, "_single_precision_suffices", lambda n, gamma: False)
        training_set = lssvm.TrainingSet(X, y)
        solution = training_set.solve(hp)
    assert training_set.counts["dense"] == 1
    return solution


class TestFastPath:
    @pytest.mark.parametrize("n, hp", [
        (250, Hyperparams(1.0, 4000.0)),      # large sigma2, small gamma
        (300, Hyperparams(1e-4, 8.0)),        # the box's corners
        (300, Hyperparams(1e-4, 4e4)),
        (300, Hyperparams(100.0, 8.0)),
        (300, Hyperparams(2e4, 30.0)),        # near the bound at n = 300
        (300, Hyperparams(2.7e4, 4e4)),
    ])
    def test_matches_oracle(self, n, hp):
        rng = np.random.default_rng(41)
        X = rng.uniform(0, 25, (n, 6))
        y = rng.uniform(0, 20, n)
        training_set = lssvm.TrainingSet(X, y)
        alpha, b = training_set.solve(hp)
        assert training_set.counts["fast"] == 1 and training_set.counts["dense"] == 0
        a_ref, b_ref, _ = kkt_oracle(X, y, hp.gamma, hp.sigma2)
        scale = max(1.0, np.abs(a_ref).max(), abs(b_ref))
        np.testing.assert_allclose(alpha, a_ref, atol=1e-9 * scale)
        assert abs(b - b_ref) <= 1e-9 * scale

    @pytest.mark.parametrize("reason", ["factor", "cg_cap", "gate"])
    def test_fallback_equals_dense_solve(self, monkeypatch, reason):
        rng = np.random.default_rng(43)
        X = rng.uniform(0, 25, (300, 6))
        y = rng.uniform(0, 20, 300)
        hp = Hyperparams(100.0, 4000.0)
        if reason == "factor":
            # Far past the bound, H rounded to single precision is not
            # positive definite: K is numerically of low rank at sigma2 =
            # 1000, and 1/gamma is below single precision.
            hp = Hyperparams(1e6, 1e3)
            monkeypatch.setattr(lssvm, "SINGLE_KAPPA_U", 1e30)
        if reason == "cg_cap":
            monkeypatch.setattr(lssvm, "CG_MAX_ITER", 1)
        if reason == "gate":
            real_pcg = lssvm._pcg

            def perturbed(*args):
                alpha, b, iterations = real_pcg(*args)
                return alpha, b * (1 + 1e-6), iterations

            monkeypatch.setattr(lssvm, "_pcg", perturbed)
        training_set = lssvm.TrainingSet(X, y)
        alpha, b = training_set.solve(hp)
        counts = training_set.counts
        assert counts["fast"] == 0 and counts["dense"] == 1 and counts[reason] == 1
        assert sum(counts[r] for r in ("factor", "cg_cap", "gate")) == 1
        want_alpha, want_b = dense_solve(monkeypatch, X, y, hp)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert b == want_b

    def test_constant_targets_need_no_cg_step(self):
        # The first CG direction would give p^T H p = 0: the starting point
        # a = 0, b = 3.5 is the solution.
        X = np.random.default_rng(49).uniform(0, 25, (300, 6))
        training_set = lssvm.TrainingSet(X, np.full(300, 3.5))
        alpha, b = training_set.solve(Hyperparams(10.0, 75.0))
        assert not alpha.any() and b == 3.5
        assert training_set.counts == {"fast": 1, "dense": 0, "factor": 0, "cg_cap": 0,
                                       "gate": 0, "cg_iterations": 0}

    def test_counts(self):
        rng = np.random.default_rng(47)
        X = rng.uniform(0, 25, (300, 6))
        training_set = lssvm.TrainingSet(X, rng.uniform(0, 20, 300))
        training_set.solve(Hyperparams(1.0, 4000.0))
        iterations = training_set.counts["cg_iterations"]
        assert iterations >= 2
        training_set.solve(Hyperparams(1e5, 30.0))  # beyond the bound: dense, no CG
        training_set.solve(Hyperparams(1e16, 30.0))
        assert training_set.counts == {"fast": 1, "dense": 2, "factor": 0, "cg_cap": 0,
                                       "gate": 0, "cg_iterations": iterations}
        single = lssvm.TrainingSet(X[:1], [1.0])
        single.solve(Hyperparams(1.0, 1.0))  # solved in closed form
        assert single.counts == dict.fromkeys(lssvm.SOLVE_COUNTS, 0)

    def test_bound(self):
        # The bound at the full profile's size, and never the singular
        # tests' gamma = 1e16.
        assert lssvm._single_precision_suffices(2575, 3.2e3)
        assert not lssvm._single_precision_suffices(2575, 3.3e3)
        assert lssvm._single_precision_suffices(2575, 1e-4)
        assert not lssvm._single_precision_suffices(2, 1e16)
        assert not lssvm._single_precision_suffices(300, 1e16)

    @pytest.mark.parametrize("n", [2, 300, 2575, 10**5, 10**7])
    def test_pivot_gate_cannot_fire_within_the_bound(self, n):
        # Every computed squared pivot is at least 1/gamma - 2 n c_n max|H|
        # (see _single_precision_suffices), which clears the pivot gate at
        # the largest gamma the fast path takes.
        u = np.finfo(float).eps / 2
        gamma = lssvm.SINGLE_KAPPA_U / (n * np.finfo(np.float32).eps / 2)
        assert lssvm._single_precision_suffices(n, gamma * (1 - 1e-6))
        assert not lssvm._single_precision_suffices(n, gamma * (1 + 1e-3))
        c_n = (n + 1) * u / (1 - (n + 1) * u)
        scale = 1.0 + 1.0 / gamma
        assert 1.0 / gamma - 2 * n * c_n * scale >= lssvm.PIVOT_RTOL * scale
