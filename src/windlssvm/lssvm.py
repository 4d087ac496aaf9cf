"""Least-squares SVM regression with a Gaussian RBF kernel.

Training reduces to one dense linear system

    [[0,   1^T        ],   [[b],     [[0],
     [1,   K + I/gamma]] .  [a]]  =   [y]]

where K is the RBF kernel matrix of the training inputs. H = K + I/gamma is
symmetric positive definite, so the solver never forms the bordered matrix:
one Cholesky factorization of H solves H eta = 1 and H nu = y together, and
then b = 1^T nu / 1^T eta and a = nu - b eta (Suykens et al., Least Squares
Support Vector Machines, 2002, ch. 3).

``TrainingSet`` owns a training set's squared distances and the one
Fortran-ordered n x n buffer that all of its solves share. The kernel is
written into it, 1/gamma is added to the diagonal, and the Cholesky factor L
overwrites the lower triangle only. The strict upper triangle still holds K,
so once the saved diagonal is written back the buffer's upper triangle is H
again and the residual is taken from it with a symmetric matrix-vector
product.

``predict`` walks the query rows in blocks of ``PREDICT_BLOCK_ROWS``
through one Fortran-ordered (n_support, PREDICT_BLOCK_ROWS) buffer. Per
block, the buffer is filled with ||s||^2 + ||q||^2, one ``dgemm`` subtracts
twice the Gram product of support and query rows, the distances are clamped
at 0 and turned into kernel values in place, and one ``dgemv`` writes that
block's slice of the output. A call thus holds one cache-sized block, not an
n_query x n_support kernel.

Every dense product of a solve or a prediction goes through
``scipy.linalg.blas``, the OpenBLAS that ``cho_factor`` uses. numpy loads its
own OpenBLAS, and a numpy matrix product leaves that library's worker
threads spinning into the next factorization, so the two thread pools then
compete for the same cores. ``predict`` runs between the swarms of an
experiment, just before the next strategy's first factorization.

The solver refuses to return solutions from systems that are numerically
singular. Its gates:

- pivot: the factorization must succeed, and every squared Cholesky pivot
  must be at least PIVOT_RTOL * max|H|, where max|H| = 1 + 1/gamma because
  K <= 1 with a unit diagonal;
- residual: the residual of the bordered system, computed from H, a and b,
  must be at most RESIDUAL_RTOL relative to ||y||;
- finiteness: training data, model entries and the residual must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, blas, cho_factor, cho_solve

# Squared Cholesky pivots smaller than this fraction of the largest matrix
# entry are treated as a singular factorization.
PIVOT_RTOL = 1e-12
# Largest acceptable relative residual of the KKT solve.
RESIDUAL_RTOL = 1e-8
# Query rows per block in predict. A block of kernel values is
# PREDICT_BLOCK_ROWS x n_support doubles: about 1.3 MB at the full
# profile's 2575 support rows, so it stays in a core's L2 cache.
PREDICT_BLOCK_ROWS = 64


class NumericError(RuntimeError):
    """Raised when the KKT system is too ill-conditioned to solve reliably."""


@dataclass(frozen=True)
class Hyperparams:
    """Error penalty ``gamma`` and squared RBF width ``sigma2``, both > 0."""

    gamma: float
    sigma2: float

    def __post_init__(self):
        for name in ("gamma", "sigma2"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be a finite positive real, got {v!r}")


@dataclass(frozen=True)
class LssvmModel:
    """Trained dual model: stored inputs, dual coefficients, bias.

    Instances are immutable after construction (arrays are marked read-only)
    and safe to share between threads.
    """

    support_inputs: np.ndarray
    dual_coeffs: np.ndarray
    bias: float
    hyperparams: Hyperparams

    def __post_init__(self):
        X = np.asarray(self.support_inputs, dtype=float)
        a = np.asarray(self.dual_coeffs, dtype=float)
        if X.ndim != 2 or a.ndim != 1:
            raise ValueError("support_inputs must be 2-D and dual_coeffs 1-D")
        if a.shape[0] != X.shape[0]:
            raise ValueError(
                f"dual_coeffs length {a.shape[0]} != support row count {X.shape[0]}"
            )
        if not (np.isfinite(X).all() and np.isfinite(a).all() and np.isfinite(self.bias)):
            raise ValueError("model entries must all be finite")
        X = X.copy()
        a = a.copy()
        X.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "support_inputs", X)
        object.__setattr__(self, "dual_coeffs", a)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def n_support(self) -> int:
        return self.support_inputs.shape[0]


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


def pairwise_sq_dists(X, X2=None) -> np.ndarray:
    """Squared Euclidean distances between rows of X and rows of X2 (or X).

    Computed via the Gram-matrix expansion so it stays O(n^2 d) in time and
    O(n^2) in memory. For X2 is None the result has an exactly zero diagonal
    and is exactly symmetric.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    symmetric = X2 is None
    X2 = X if symmetric else np.atleast_2d(np.asarray(X2, dtype=float))
    if X.shape[1] != X2.shape[1]:
        raise ValueError(f"column counts differ: {X.shape[1]} vs {X2.shape[1]}")
    sq1 = np.einsum("ij,ij->i", X, X)
    sq2 = sq1 if symmetric else np.einsum("ij,ij->i", X2, X2)
    d2 = sq1[:, None] + sq2[None, :] - 2.0 * (X @ X2.T)
    np.maximum(d2, 0.0, out=d2)
    if symmetric:
        d2 = 0.5 * (d2 + d2.T)
        np.fill_diagonal(d2, 0.0)
    return d2


def kernel_from_sq_dists(sq_dists: np.ndarray, sigma2: float, out=None) -> np.ndarray:
    """RBF kernel values from precomputed squared distances."""
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise ValueError(f"sigma2 must be a finite positive real, got {sigma2!r}")
    out = np.multiply(sq_dists, -0.5 / sigma2, out=out)
    return np.exp(out, out=out)


def build_kernel_matrix(X, sigma2: float) -> np.ndarray:
    """N x N RBF kernel matrix of the rows of X; symmetric with unit diagonal."""
    return kernel_from_sq_dists(pairwise_sq_dists(X), sigma2)


class TrainingSet:
    """Checked training inputs, their squared distances and the one n x n
    buffer that every ``solve`` overwrites, so a solve allocates no n x n
    array. Solves on one instance must not run concurrently.
    """

    def __init__(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"row count {X.shape[0]} != target count {y.shape[0]}")
        if X.shape[0] < 1:
            raise ValueError("need at least one training sample")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("training data must be finite")
        self.X = X
        self.y = y
        self.sq_dists = pairwise_sq_dists(X)
        self._H = np.empty((len(y), len(y)), order="F")

    def solve(self, hp: Hyperparams) -> tuple[np.ndarray, float]:
        """Dual coefficients and bias of the LSSVM at ``hp``.

        Raises
        ------
        NumericError
            If H is not numerically positive definite (the pivot gate) or the
            KKT residual exceeds ``RESIDUAL_RTOL``.
        """
        y, H = self.y, self._H
        n = y.shape[0]
        if n == 1:
            # 1^T a = 0 forces a = 0, and then b = y_0.
            return np.zeros(1), float(y[0])
        # sq_dists is exactly symmetric, so writing K into H^T (the contiguous
        # view of H) writes K into H.
        kernel_from_sq_dists(self.sq_dists, hp.sigma2, out=H.T)
        H[np.diag_indices(n)] += 1.0 / hp.gamma
        diag = H.diagonal().copy()

        # K <= 1 with a unit diagonal, so max|H| = 1 + 1/gamma.
        scale = 1.0 + 1.0 / hp.gamma
        try:
            # L overwrites the lower triangle; the strict upper triangle keeps K.
            L, lower = cho_factor(H, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError:
            min_pivot = 0.0
        else:
            min_pivot = float(np.diag(L).min()) ** 2
        if not min_pivot >= PIVOT_RTOL * scale:
            raise NumericError(
                f"near-singular KKT system: min pivot {min_pivot:.3e} "
                f"< {PIVOT_RTOL:.0e} * max|H| ({scale:.3e}); "
                f"gamma={hp.gamma:.6g} sigma2={hp.sigma2:.6g} n={n}"
            )
        sol = cho_solve((L, lower), np.column_stack((np.ones(n), y)), check_finite=False)
        eta, nu = sol[:, 0], sol[:, 1]
        b = nu.sum() / eta.sum()  # 1^T eta > 0 because H is positive definite
        alpha = nu - b * eta

        # Residual of the bordered system [1^T a ; H a + b - y], with H read
        # from the upper triangle once its diagonal is restored.
        H[np.diag_indices(n)] = diag
        r = blas.dsymv(1.0, H, alpha, lower=0) + b - y
        residual = np.hypot(alpha.sum(), np.linalg.norm(r))
        y_norm = np.linalg.norm(y)
        rel_residual = residual / y_norm if y_norm > 0 else residual
        if not np.isfinite(rel_residual) or rel_residual > RESIDUAL_RTOL:
            raise NumericError(
                f"KKT solve residual {rel_residual:.3e} exceeds {RESIDUAL_RTOL:.0e} "
                f"(min pivot {min_pivot:.3e}, gamma={hp.gamma:.6g}, sigma2={hp.sigma2:.6g}, n={n})"
            )
        return alpha, float(b)

    def model(self, hp: Hyperparams) -> LssvmModel:
        """The trained model at ``hp``; raises ``NumericError`` as ``solve``."""
        alpha, b = self.solve(hp)
        return LssvmModel(support_inputs=self.X, dual_coeffs=alpha, bias=b, hyperparams=hp)


def train(X, y, hp: Hyperparams) -> LssvmModel:
    """The model trained on inputs X (N, m) and targets y (N,) at ``hp``.

    Raises ValueError on bad training data and NumericError as
    ``TrainingSet.solve``.
    """
    return TrainingSet(X, y).model(hp)


def predict(model: LssvmModel, Xq) -> np.ndarray:
    """Evaluate f(x) = sum_i a_i k(x, x_i) + b at each query row of Xq.

    The query rows are taken ``PREDICT_BLOCK_ROWS`` at a time through one
    (n_support, PREDICT_BLOCK_ROWS) buffer, so a call holds no
    n_query x n_support array.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    S = model.support_inputs
    if Xq.shape[1] != S.shape[1]:
        raise ValueError(f"query dimension {Xq.shape[1]} != model dimension {S.shape[1]}")
    nq = Xq.shape[0]
    sq_s = np.square(S).sum(axis=1)
    sq_q = np.square(Xq).sum(axis=1)
    out = np.empty(nq)
    # Fortran-ordered, so every block buf[:, :m] is contiguous and the BLAS
    # calls take it without a copy.
    buf = np.empty((S.shape[0], min(PREDICT_BLOCK_ROWS, nq)), order="F")
    for start in range(0, nq, PREDICT_BLOCK_ROWS):
        rows = slice(start, min(start + PREDICT_BLOCK_ROWS, nq))
        q = Xq[rows]
        # (||s||^2 + ||q||^2) - 2 S q^T, clamped at 0 against rounding.
        block = buf[:, : q.shape[0]]
        np.add(sq_s[:, None], sq_q[rows], out=block)
        block = blas.dgemm(-2.0, S.T, q.T, beta=1.0, c=block, trans_a=1, overwrite_c=1)
        np.maximum(block, 0.0, out=block)
        kernel_from_sq_dists(block, model.hyperparams.sigma2, out=block)
        out[rows] = blas.dgemv(1.0, block, model.dual_coeffs, trans=1)
    out += model.bias
    return out
