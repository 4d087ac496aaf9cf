"""Least-squares SVM regression with a Gaussian RBF kernel.

Training reduces to one dense linear system

    [[0,   1^T        ],   [[b],     [[0],
     [1,   K + I/gamma]] .  [a]]  =   [y]]

where K is the RBF kernel matrix of the training inputs. H = K + I/gamma is
symmetric positive definite, so the solver never forms the bordered matrix:
one Cholesky factorization of H solves H eta = 1 and H nu = y together, and
then b = 1^T nu / 1^T eta and a = nu - b eta (Suykens et al., Least Squares
Support Vector Machines, 2002, ch. 3).

``KernelProduct`` owns every RBF kernel evaluation: the training kernel of
a solve, and the kernel-vector products K(Q, S) c of ``predict`` and of the
validation prediction of ``metrics.LssvmFitness``. It augments the support
rows to [s; ||s||^2; 1] and the query rows to [-2q; 1; ||q||^2], so the dot
product of a support column and a query column is ||s - q||^2. It walks the
query rows in blocks of ``PREDICT_BLOCK_ROWS`` through one scratch array of
at most n_support x PREDICT_BLOCK_ROWS doubles. Per block, one ``dgemm``
writes the distances already scaled by -1/(2 sigma2), and they are clamped
at 0 and turned into kernel values. ``matvec`` then takes one ``dgemv`` per block, so
a product holds one cache-sized block, not an n_query x n_support kernel.
``fill_kernel`` writes K(S, S) into a caller's n x n array: per column panel
it computes each pair on or below the diagonal once, and mirrors it above
the diagonal, so the kernel is exactly symmetric with a unit diagonal.

``TrainingSet`` owns a training set's ``KernelProduct`` with itself, and the
one Fortran-ordered n x n buffer that all of its solves share; it keeps no
distances. The kernel is filled into the buffer, 1/gamma is added to the
diagonal, and the Cholesky factor L overwrites the lower triangle only. The
strict upper triangle still holds the mirrored K, so once the saved diagonal
is written back the buffer's upper triangle is H again, the same numbers the
factorization read, and the residual is taken from it with a symmetric
matrix-vector product.

The factorization is a right-looking blocked Cholesky (LAPACK Users' Guide,
section 3.4) in steps of ``CHOLESKY_BLOCK`` columns: ``dpotrf`` factors the
diagonal block, ``dtrsm`` solves the panel below it, and one ``dsyrk``
updates the trailing lower triangle, which holds almost all of the flops.
Each call addresses a block of the buffer through its leading dimension.
The f2py wrappers of ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` take
no leading dimension and copy any non-contiguous view, so the three routines
are taken instead, once at import, from the C function pointers that scipy
exports for Cython (``scipy.linalg.cython_lapack`` and ``cython_blas``).
Import fails if their signatures are not the expected 32-bit-integer ones.

Every dense product of a solve or a prediction goes through the OpenBLAS
behind ``scipy.linalg.blas``, which also serves scipy's Cython routines.
numpy loads its own OpenBLAS, and a numpy matrix product leaves that
library's worker threads spinning into the next factorization, so the two
thread pools then compete for the same cores. ``predict`` runs between the swarms of an
experiment, just before the next strategy's first factorization. No numpy
product is left on the solve or prediction path. ``pairwise_sq_dists`` and
``kernel_from_sq_dists``, which build a whole distance or kernel matrix,
are not on it.

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

from ctypes import (CFUNCTYPE, POINTER, PYFUNCTYPE, byref, c_char_p, c_double, c_int,
                    c_void_p, py_object, pythonapi)
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_solve, cython_blas, cython_lapack

# Squared Cholesky pivots smaller than this fraction of the largest matrix
# entry are treated as a singular factorization.
PIVOT_RTOL = 1e-12
# Largest acceptable relative residual of the KKT solve.
RESIDUAL_RTOL = 1e-8
# Query rows per block of a KernelProduct (columns per panel of its
# fill_kernel), and rows per panel in pairwise_sq_dists. A block of kernel
# values is PREDICT_BLOCK_ROWS x n_support doubles: about 1.3 MB at the full
# profile's 2575 support rows, so it stays in a core's L2 cache.
PREDICT_BLOCK_ROWS = 64
# Columns per step of the blocked Cholesky factorization of H.
CHOLESKY_BLOCK = 128


class NumericError(RuntimeError):
    """Raised when the KKT system is too ill-conditioned to solve reliably."""


_CAPSULE_NAME = PYFUNCTYPE(c_char_p, py_object)(("PyCapsule_GetName", pythonapi))
_CAPSULE_POINTER = PYFUNCTYPE(c_void_p, py_object, c_char_p)(("PyCapsule_GetPointer", pythonapi))
_ARG_KINDS = {"char *": "c", "int *": "i"}
_ARG_TYPES = {"c": c_char_p, "i": POINTER(c_int), "d": c_void_p}


def _scipy_routine(module, name: str, kinds: str):
    """The C routine ``name`` of scipy's Cython LAPACK or BLAS ``module``.

    ``kinds`` spells the arguments it must take: c for ``char *``, i for
    ``int *`` and d for ``double *``. Raises ImportError, naming the routine,
    if the exported signature differs, e.g. has 64-bit integers.
    """
    capsule = module.__pyx_capi__[name]
    signature = _CAPSULE_NAME(capsule)
    ret, _, args = signature.decode().partition(" (")
    got = "".join(_ARG_KINDS.get(a, "d" if a.endswith("_d *") else "?")
                  for a in args.rstrip(")").split(", "))
    if ret != "void" or got != kinds:
        raise ImportError(f"scipy's {name} is {signature.decode()!r}, not a void routine "
                          f"of {len(kinds)} arguments with 32-bit int * dimensions")
    pointer = _CAPSULE_POINTER(capsule, signature)
    return CFUNCTYPE(None, *(_ARG_TYPES[k] for k in kinds))(pointer)


_DPOTRF = _scipy_routine(cython_lapack, "dpotrf", "cidii")
_DTRSM = _scipy_routine(cython_blas, "dtrsm", "cccciiddidi")
_DSYRK = _scipy_routine(cython_blas, "dsyrk", "cciiddiddi")


def _cholesky_lower(A: np.ndarray) -> bool:
    """Overwrite the lower triangle of the Fortran-ordered n x n array ``A``
    with its Cholesky factor, ``CHOLESKY_BLOCK`` columns per step, leaving
    the strict upper triangle as it is. False if a pivot is not positive.
    """
    if A.dtype != np.float64 or not A.flags.f_contiguous or A.shape[0] != A.shape[1]:
        raise ValueError("need a square, Fortran-ordered float64 array")
    n, base = A.shape[0], A.ctypes.data
    lda, info, one, minus_one = c_int(n), c_int(0), c_double(1.0), c_double(-1.0)

    def at(i, j):
        return base + A.itemsize * (i + j * n)

    for j in range(0, n, CHOLESKY_BLOCK):
        w = min(CHOLESKY_BLOCK, n - j)
        m, k = c_int(n - j - w), c_int(w)
        _DPOTRF(b"L", k, at(j, j), lda, info)
        if info.value:
            return False
        if m.value:
            # Panel below the block: P <- P L^-T; trailing lower triangle: T <- T - P P^T.
            _DTRSM(b"R", b"L", b"T", b"N", m, k, byref(one), at(j, j), lda, at(j + w, j), lda)
            _DSYRK(b"L", b"N", m, k, byref(minus_one), at(j + w, j), lda,
                   byref(one), at(j + w, j + w), lda)
    return True


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


def pairwise_sq_dists(X) -> np.ndarray:
    """Squared Euclidean distances between the rows of X.

    Computed via the Gram-matrix expansion ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j,
    with the norm sums added onto the Gram product in row panels, so the
    call allocates one n x n array. The result is exactly symmetric, with an
    exactly zero diagonal.
    """
    # X @ X.T of a C-contiguous X takes numpy's symmetric-product path,
    # which makes the Gram matrix exactly symmetric.
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    sq = np.einsum("ij,ij->i", X, X)
    d2 = X @ X.T
    d2 *= -2.0
    for start in range(0, len(sq), PREDICT_BLOCK_ROWS):
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        d2[rows] += sq[rows, None] + sq
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def kernel_from_sq_dists(sq_dists: np.ndarray, sigma2: float, out=None) -> np.ndarray:
    """RBF kernel values from precomputed squared distances."""
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise ValueError(f"sigma2 must be a finite positive real, got {sigma2!r}")
    out = np.multiply(sq_dists, -0.5 / sigma2, out=out)
    return np.exp(out, out=out)


class TrainingSet:
    """Checked training inputs, their ``KernelProduct`` with themselves and
    the one Fortran-ordered n x n buffer that every ``solve`` overwrites, so
    a solve allocates no n x n array. Solves on one instance must not run
    concurrently.
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
        self._kernel = KernelProduct(X, X)
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
        self._kernel.fill_kernel(hp.sigma2, H)
        H[np.diag_indices(n)] += 1.0 / hp.gamma
        diag = H.diagonal().copy()

        # K <= 1 with a unit diagonal, so max|H| = 1 + 1/gamma.
        scale = 1.0 + 1.0 / hp.gamma
        # L overwrites the lower triangle; the strict upper triangle keeps K.
        min_pivot = float(H.diagonal().min()) ** 2 if _cholesky_lower(H) else 0.0
        if not min_pivot >= PIVOT_RTOL * scale:
            raise NumericError(
                f"near-singular KKT system: min pivot {min_pivot:.3e} "
                f"< {PIVOT_RTOL:.0e} * max|H| ({scale:.3e}); "
                f"gamma={hp.gamma:.6g} sigma2={hp.sigma2:.6g} n={n}"
            )
        sol = cho_solve((H, True), np.column_stack((np.ones(n), y)), check_finite=False)
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


class KernelProduct:
    """Products K(Q, S) c of the RBF kernel between query rows Q and support
    rows S with a vector c of length n_support, at any sigma2, and, when Q
    is S, the whole n x n kernel K(S, S).

    Holds both row sets in augmented form and one flat scratch array of
    n_support * min(PREDICT_BLOCK_ROWS, n_query) doubles that every call
    overwrites: a product allocates only its output, and a fill nothing.
    Calls on one instance must not run concurrently.
    """

    def __init__(self, support: np.ndarray, query):
        Q = np.atleast_2d(np.asarray(query, dtype=float))
        (n, d), nq = support.shape, Q.shape[0]
        if Q.shape[1] != d:
            raise ValueError(f"query dimension {Q.shape[1]} != model dimension {d}")
        # Fortran-ordered, so each row's augmented column and every block of
        # query columns is contiguous and the BLAS calls take it without a
        # copy. The norms are summed from these copies, so they do not depend
        # on the callers' memory layouts.
        self._Sa = np.empty((d + 2, n), order="F")
        self._Sa[:d] = support.T
        self._Sa[d] = np.square(self._Sa[:d]).sum(axis=0)
        self._Sa[d + 1] = 1.0
        self._Qa = np.empty((d + 2, nq), order="F")
        self._Qa[:d] = Q.T
        self._Qa[d] = 1.0
        self._Qa[d + 1] = np.square(self._Qa[:d]).sum(axis=0)
        self._Qa[:d] *= -2.0
        # Flat, so that every (m, w) block viewed from its head is contiguous:
        # f2py writes in place only into contiguous arrays.
        self._scratch = np.empty(n * min(PREDICT_BLOCK_ROWS, nq))

    def _scaled_sq_dists(self, sigma2: float, first: int, start: int, stop: int):
        """-||s - q||^2 / (2 sigma2) for the support rows from ``first`` on
        and the query rows start:stop, clamped at 0 against rounding, as a
        Fortran-ordered view of the scratch array."""
        m, w = self._Sa.shape[1] - first, stop - start
        block = self._scratch[: m * w].reshape(m, w, order="F")
        block = blas.dgemm(-0.5 / sigma2, self._Sa[:, first:], self._Qa[:, start:stop],
                           c=block, trans_a=1, overwrite_c=1)
        return np.minimum(block, 0.0, out=block)

    def matvec(self, sigma2: float, coeffs) -> np.ndarray:
        """sum_i coeffs_i exp(-||q - s_i||^2 / (2 sigma2)) at each query row q."""
        nq = self._Qa.shape[1]
        out = np.empty(nq)
        for start in range(0, nq, PREDICT_BLOCK_ROWS):
            stop = min(start + PREDICT_BLOCK_ROWS, nq)
            block = self._scaled_sq_dists(sigma2, 0, start, stop)
            np.exp(block, out=block)
            out[start:stop] = blas.dgemv(1.0, block, coeffs, trans=1)
        return out

    def fill_kernel(self, sigma2: float, out: np.ndarray):
        """Write K(S, S) into the n x n array ``out``; the query rows must be
        the support rows.

        Column panel by column panel, each pair is computed once, on or below
        the diagonal, and mirrored above it, so ``out`` is exactly symmetric,
        with a unit diagonal.
        """
        n = self._Sa.shape[1]
        for start in range(0, n, PREDICT_BLOCK_ROWS):
            stop = min(start + PREDICT_BLOCK_ROWS, n)
            w = stop - start
            panel = np.exp(self._scaled_sq_dists(sigma2, start, start, stop),
                           out=out[start:, start:stop])
            top = panel[:w]
            np.copyto(top, top.T, where=np.tri(w, k=-1, dtype=bool).T)
            np.fill_diagonal(top, 1.0)
            out[start:stop, stop:] = panel[w:].T


def predict(model: LssvmModel, Xq) -> np.ndarray:
    """Evaluate f(x) = sum_i a_i k(x, x_i) + b at each query row of Xq.

    The kernel is taken ``PREDICT_BLOCK_ROWS`` query rows at a time (see
    ``KernelProduct``), so a call holds no n_query x n_support array.
    """
    product = KernelProduct(model.support_inputs, Xq)
    out = product.matvec(model.hyperparams.sigma2, model.dual_coeffs)
    out += model.bias
    return out
