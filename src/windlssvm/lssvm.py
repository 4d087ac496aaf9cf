"""Least-squares SVM regression with a Gaussian RBF kernel.

Training reduces to one dense linear system

    [[0,   1^T        ],   [[b],     [[0],
     [1,   K + I/gamma]] .  [a]]  =   [y]]

where K is the RBF kernel matrix of the training inputs. H = K + I/gamma is
symmetric positive definite, so the solver never forms the bordered matrix:
it solves H eta = 1 and H nu = y, and then b = 1^T nu / 1^T eta and
a = nu - b eta (Suykens et al., Least Squares Support Vector Machines, 2002,
ch. 3).

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
``fill_kernel`` writes K(S, S) into the lower triangle of a caller's n x n
array, with a unit diagonal, one ``dgemm`` per column panel, and copies each
panel's transpose into the strict upper triangle: of the same array, or, in
single precision, of another one. Each pair is computed once.

``TrainingSet`` owns a training set's ``KernelProduct`` with itself, and one
Fortran-ordered n x (n + 1) buffer that all of its solves share; it keeps no
distances. Its first n columns are H. A solve takes one of two solvers,
chosen by gamma and n alone:

- The fast path, where (1 + gamma n) u_s <= ``SINGLE_KAPPA_U`` for the
  single-precision unit roundoff u_s. K's entries are at most 1, so
  lambda_max(K) <= n and (1 + gamma n) bounds the condition number of H;
  a Cholesky factor of H rounded to single precision is then a close
  preconditioner of H. The fill writes K's lower triangle in double
  precision and its mirror image in single precision into the strict upper
  triangle of the buffer: column j of that float32 array starts at the top
  of the buffer's column j + 1, with a leading dimension of 2n floats, so
  its upper triangle, R included, stays clear of H's lower triangle and
  diagonal. Each panel of the fill writes H before the float32 array, and
  the float32 entries of panel [s, t) lie in the buffer's rows < t/2, which
  later panels, writing rows >= t only, leave alone. One ``spotrf`` call
  overwrites that array's upper triangle with its single-precision Cholesky
  factor R (H ~ R^T R); ``spotrf`` references no entry below the diagonal.
  Projected conjugate gradients (``_pcg``), in double precision and
  reading H's lower triangle only, then solve the bordered system in one
  Krylov sequence, with R^T R as the preconditioner, until its residual is
  ``CG_RTOL`` of ||y||, for at most ``CG_MAX_ITER`` iterations. Each
  product with H is one ``dsymv``, each preconditioner step two ``strsv``,
  and no state is carried from one solve to the next.
- The dense path: the buffer's first n columns hold the exactly symmetric
  H, and its double-precision Cholesky factor L overwrites H's lower
  triangle only. The strict upper triangle still holds K, so once the
  diagonal is written again the upper triangle is H again, the same numbers
  the factorization read.

The fast path falls back to the dense path, which fills the kernel again
over the single-precision array, when the single-precision factorization
meets a non-positive pivot, when CG takes ``CG_MAX_ITER`` iterations
without meeting ``CG_RTOL`` or breaks down (only rounding or non-finite
values make it), or when its result fails the residual or finiteness gate.
So the path, like the result, depends only on gamma, sigma2 and the
training data. ``TrainingSet.counts`` counts the solves of each path, the
fallbacks by reason and the CG iterations.

Both solvers fill the kernel and factor an n x n matrix, and CG takes a few
iterations, so a solve costs nearly the same anywhere in the search box:
the fast path saves the difference between the double- and the
single-precision factorization. A solver whose cost depends on where it
runs, such as CG on a low-rank preconditioner, makes a swarm's throughput
depend on where the swarm goes.

The double-precision factorization is a right-looking blocked Cholesky
factorization (LAPACK Users' Guide, section 3.4) in steps of
``CHOLESKY_BLOCK`` columns: ``dpotrf`` factors the diagonal block, ``dtrsm``
solves the panel below it, and one ``dsyrk`` updates the trailing triangle,
which holds almost all of the flops. Measured at n = 2575 on 2 cores, it is
about 10 ms faster than one ``dpotrf`` call over the whole matrix. In single
precision the same blocking saved nothing, so the fast path makes one
``spotrf`` call. Each call addresses its block of the buffer
through its leading dimension. The f2py wrappers of ``scipy.linalg.lapack``
and ``scipy.linalg.blas`` take no leading dimension and copy any
non-contiguous view, so these routines are taken instead, once at import,
from the C function pointers that scipy exports for Cython
(``scipy.linalg.cython_lapack`` and ``cython_blas``). Import fails if their
signatures are not the expected 32-bit-integer ones.

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
  K <= 1 with a unit diagonal. CG has no pivots, but the fast path is taken
  only where this gate cannot fire: in exact arithmetic every squared pivot
  is at least lambda_min(H) >= 1/gamma, and rounding lowers a computed one
  by at most about n^2 u (1 + 1/gamma) for the double-precision unit
  roundoff u, far below 1/gamma wherever gamma n u_s <= ``SINGLE_KAPPA_U``;
- residual: the residual of the bordered system, computed from H, a and b
  with one ``dsymv`` on the triangle of H each path leaves intact, must be
  at most RESIDUAL_RTOL relative to ||y||;
- finiteness: training data, model entries and the residual must be finite.

Both paths pass the same residual and finiteness gates. A fast result that
fails one goes to the dense path, which raises if it fails too.
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
# Columns per step of the blocked double-precision Cholesky factorization of H.
CHOLESKY_BLOCK = 128
# The fast path is taken where (1 + gamma n) times the single-precision unit
# roundoff, a bound on the single-precision rounding of H relative to its
# smallest eigenvalue, is at most SINGLE_KAPPA_U.
SINGLE_KAPPA_U = 0.5
# Fast path: CG stops at this residual of the bordered system relative to
# ||y||, and falls back to the dense path after CG_MAX_ITER iterations.
CG_RTOL = 1e-10
CG_MAX_ITER = 12
# The counts that TrainingSet.counts keeps (see TrainingSet).
SOLVE_COUNTS = ("fast", "dense", "factor", "cg_cap", "gate", "cg_iterations")


class NumericError(RuntimeError):
    """Raised when the KKT system is too ill-conditioned to solve reliably."""


_CAPSULE_NAME = PYFUNCTYPE(c_char_p, py_object)(("PyCapsule_GetName", pythonapi))
_CAPSULE_POINTER = PYFUNCTYPE(c_void_p, py_object, c_char_p)(("PyCapsule_GetPointer", pythonapi))
_ARG_KINDS = {"char *": "c", "int *": "i"}
_ARG_TYPES = {"c": c_char_p, "i": POINTER(c_int), "d": c_void_p, "s": c_void_p}


def _scipy_routine(module, name: str, kinds: str):
    """The C routine ``name`` of scipy's Cython LAPACK or BLAS ``module``.

    ``kinds`` spells the arguments it must take: c for ``char *``, i for
    ``int *``, d for ``double *`` and s for ``float *``. Raises ImportError, naming the routine,
    if the exported signature differs, e.g. has 64-bit integers.
    """
    capsule = module.__pyx_capi__[name]
    signature = _CAPSULE_NAME(capsule)
    ret, _, args = signature.decode().partition(" (")
    got = "".join(_ARG_KINDS.get(a, {"_d *": "d", "_s *": "s"}.get(a[-4:], "?"))
                  for a in args.rstrip(")").split(", "))
    if ret != "void" or got != kinds:
        raise ImportError(f"scipy's {name} is {signature.decode()!r}, not a void routine "
                          f"of {len(kinds)} arguments with 32-bit int * dimensions")
    pointer = _CAPSULE_POINTER(capsule, signature)
    return CFUNCTYPE(None, *(_ARG_TYPES[k] for k in kinds))(pointer)


_DPOTRF = _scipy_routine(cython_lapack, "dpotrf", "cidii")
_DTRSM = _scipy_routine(cython_blas, "dtrsm", "cccciiddidi")
_DSYRK = _scipy_routine(cython_blas, "dsyrk", "cciiddiddi")
_SPOTRF = _scipy_routine(cython_lapack, "spotrf", "cisii")
_STRSV = _scipy_routine(cython_blas, "strsv", "cccisisi")


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


def _cholesky_upper_single(R: np.ndarray) -> bool:
    """Overwrite the upper triangle of the float32 n x n array ``R``, whose
    columns may lie any whole number of floats apart, with its Cholesky
    factor (R <- U with R = U^T U), in one ``spotrf`` call, leaving the
    strict lower triangle as it is. False if a pivot is not positive.
    """
    n, ld = R.shape[0], R.strides[1] // R.itemsize
    if R.dtype != np.float32 or R.strides[0] != R.itemsize or n != R.shape[1]:
        raise ValueError("need a square float32 array with contiguous columns")
    info = c_int(0)
    _SPOTRF(b"U", c_int(n), R.ctypes.data, c_int(ld), info)
    return not info.value


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
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"need at least one support row and one input column, "
                             f"got shape {X.shape}")
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
    the one Fortran-ordered n x (n + 1) buffer that every ``solve``
    overwrites, so a solve allocates no n x n array. Solves on one instance
    must not run concurrently.

    ``counts`` counts this instance's solves of n >= 2 rows: "fast" ones
    returned by CG and "dense" ones that ran the double-precision
    factorization, whether they returned or raised; of the dense ones, the
    fallbacks from the fast path by reason ("factor", "cg_cap", "gate"); and
    "cg_iterations" in all.
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
        n = len(y)
        self._kernel = KernelProduct(X, X)
        buffer = np.empty((n, n + 1), order="F")
        self._H = buffer[:, :n]
        # Column j of the single-precision array starts at the top of the
        # buffer's column j + 1, so its upper triangle lies in H's strict
        # upper triangle (see the module docstring).
        self._R = np.ndarray((n, n), np.float32, buffer=buffer, offset=buffer.strides[1],
                             strides=(4, buffer.strides[1]))
        self.counts = dict.fromkeys(SOLVE_COUNTS, 0)

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
        # K <= 1 with a unit diagonal, so H's diagonal, and max|H|, is 1 + 1/gamma.
        scale = 1.0 + 1.0 / hp.gamma
        counts = self.counts
        if _single_precision_suffices(n, hp.gamma):
            self._kernel.fill_kernel(hp.sigma2, H, upper=self._R)
            H[np.diag_indices(n)] = scale
            fast = self._fast_solve(scale)
            if not isinstance(fast, str):
                counts["fast"] += 1
                return fast
            counts[fast] += 1
        self._kernel.fill_kernel(hp.sigma2, H)
        H[np.diag_indices(n)] = scale
        counts["dense"] += 1
        # L overwrites the lower triangle; the strict upper triangle keeps K.
        min_pivot = float(H.diagonal().min()) ** 2 if _cholesky_lower(H) else 0.0
        if not min_pivot >= PIVOT_RTOL * scale:
            raise NumericError(
                f"near-singular KKT system: min pivot {min_pivot:.3e} "
                f"< {PIVOT_RTOL:.0e} * max|H| ({scale:.3e}); "
                f"gamma={hp.gamma:.6g} sigma2={hp.sigma2:.6g} n={n}"
            )
        alpha, b = _dual(cho_solve((H, True), np.column_stack((np.ones(n), y)),
                                   check_finite=False))
        # The residual reads H from the upper triangle once its diagonal is restored.
        H[np.diag_indices(n)] = scale
        rel_residual = self._rel_residual(alpha, b, lower=0)
        if not rel_residual <= RESIDUAL_RTOL:
            raise NumericError(
                f"KKT solve residual {rel_residual:.3e} exceeds {RESIDUAL_RTOL:.0e} "
                f"(min pivot {min_pivot:.3e}, gamma={hp.gamma:.6g}, sigma2={hp.sigma2:.6g}, n={n})"
            )
        return alpha, float(b)

    def _fast_solve(self, scale: float) -> tuple[np.ndarray, float] | str:
        """a and b by CG on the filled lower triangle of H, preconditioned by
        the single-precision Cholesky factor of the filled upper triangle;
        or the reason to fall back: "factor", "cg_cap" or "gate"."""
        R, y = self._R, self.y
        n = len(y)
        R[np.diag_indices(n)] = scale
        if not _cholesky_upper_single(R):
            return "factor"
        args = (c_int(n), R.ctypes.data, c_int(R.strides[1] // R.itemsize))
        one = c_int(1)

        def precondition(r):
            z = r.astype(np.float32)
            _STRSV(b"U", b"T", b"N", *args, z.ctypes.data, one)
            _STRSV(b"U", b"N", b"N", *args, z.ctypes.data, one)
            return z.astype(np.float64)

        alpha, b, iterations = _pcg(self._H, precondition, y)
        self.counts["cg_iterations"] += iterations
        if alpha is None:
            return "cg_cap"
        if not self._rel_residual(alpha, b, lower=1) <= RESIDUAL_RTOL:
            return "gate"
        return alpha, float(b)

    def _rel_residual(self, alpha: np.ndarray, b: float, lower: int) -> float:
        """Residual of the bordered system [1^T a ; H a + b - y] relative to
        ||y||, with H read from its lower or upper triangle. Not finite if
        a or b is not."""
        y = self.y
        r = blas.dsymv(1.0, self._H, alpha, lower=lower) + b - y
        residual = np.hypot(alpha.sum(), np.linalg.norm(r))
        y_norm = np.linalg.norm(y)
        return residual / y_norm if y_norm > 0 else residual

    def model(self, hp: Hyperparams) -> LssvmModel:
        """The trained model at ``hp``; raises ``NumericError`` as ``solve``."""
        alpha, b = self.solve(hp)
        return LssvmModel(support_inputs=self.X, dual_coeffs=alpha, bias=b, hyperparams=hp)


def _single_precision_suffices(n: int, gamma: float) -> bool:
    """Whether the fast path takes H = K + I/gamma of n rows.

    K's entries are at most 1, so lambda_max(K) <= n and the condition
    number of H is at most 1 + gamma n; the single-precision factor of H
    preconditions it closely where that number times the single-precision
    unit roundoff is at most ``SINGLE_KAPPA_U``. There the dense path's pivot
    gate could not fire either: every squared pivot of H is at least
    lambda_min(H) >= 1/gamma, the computed factor is the exact factor of
    H + E with ||E||_2 <= n c_n max|H| and c_n = (n + 1) u / (1 - (n + 1) u)
    for the double-precision unit roundoff u (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Theorem 10.3), and 1/gamma, at least
    n u_s / SINGLE_KAPPA_U here, is above that bound by a factor of about
    u_s / (n u), 5e8 / n.
    """
    return (1.0 + gamma * n) * np.finfo(np.float32).eps / 2 <= SINGLE_KAPPA_U


def _pcg(H: np.ndarray, precondition, y: np.ndarray) -> tuple[np.ndarray | None, float, int]:
    """a and b of the bordered system [[0, 1^T], [1, H]] [b; a] = [0; y] by
    projected preconditioned conjugate gradients, with H read from its lower
    triangle; and the iterations taken, one product with H each.

    CG minimizes a^T H a / 2 - y^T a over 1^T a = 0 (Gould, Hribar and
    Nocedal, SIAM J. Sci. Comput. 23, 2001): ``precondition`` applies M^-1
    for some M close to H, and each step projects its result onto the
    constraint, g = M^-1 r - v M^-1 1 with v = 1^T M^-1 r / 1^T M^-1 1, so
    every iterate keeps 1^T a = 0. The gradient r = H a - y tends to -b 1,
    so b is taken as -mean(r), and M^-1 is applied to r + b 1 = H a + b 1 - y,
    the residual of the bordered system: on the constraint this gives the
    same g, and it keeps the part of r that matters from being rounded away
    next to b 1 in single precision (Gould et al.'s residual update). CG
    starts from a = 0 and b = mean(y), and stops once ||H a + b 1 - y|| is
    ``CG_RTOL`` of ||y||, before the first step if y is constant (the first
    direction would give p^T H p = 0 there). a is None if that takes more
    than ``CG_MAX_ITER`` iterations, or if CG breaks down, which only
    rounding or non-finite values can make it do, since H and M are
    positive definite.
    """
    n = len(y)
    stop = CG_RTOL * blas.dnrm2(y)
    a, r, b = np.zeros(n), -y, y.mean()
    residual = r + b
    if blas.dnrm2(residual) <= stop:
        return a, b, 0  # constant y, zero included: a = 0 and b = y's mean
    w = precondition(np.ones(n))
    w_sum = w.sum()

    def project(r):
        z = precondition(r)
        return blas.daxpy(w, z, a=-z.sum() / w_sum)

    g = project(residual)
    rg = blas.ddot(residual, g)
    p = -g
    for iterations in range(1, CG_MAX_ITER + 1):
        q = blas.dsymv(1.0, H, p, lower=1)
        pq = blas.ddot(p, q)
        if not (pq > 0 and rg > 0):
            break
        step = rg / pq
        blas.daxpy(p, a, a=step)
        r = blas.daxpy(q, r, a=step)
        b = -r.mean()
        residual = r + b
        if blas.dnrm2(residual) <= stop:
            return a, b, iterations
        g = project(residual)
        rg, rg_old = blas.ddot(residual, g), rg
        p = blas.daxpy(p, -g, a=rg / rg_old)
    return None, 0.0, iterations


def _dual(sol: np.ndarray) -> tuple[np.ndarray, float]:
    """a and b from the (n, 2) solution [eta, nu] of H [eta, nu] = [1, y]."""
    eta, nu = sol[:, 0], sol[:, 1]
    b = nu.sum() / eta.sum()  # 1^T eta > 0 because H is positive definite
    return nu - b * eta, b


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
        """-||s - q||^2 / (2 sigma2) for the support rows from ``first`` on and
        the query rows start:stop, clamped at 0 against rounding, as a
        Fortran-ordered view of the scratch array."""
        support = self._Sa[:, first:]
        m, w = support.shape[1], stop - start
        block = self._scratch[: m * w].reshape(m, w, order="F")
        block = blas.dgemm(-0.5 / sigma2, support, self._Qa[:, start:stop],
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

    def fill_kernel(self, sigma2: float, out: np.ndarray, upper: np.ndarray | None = None):
        """Write K(S, S) into the lower triangle of the n x n array ``out``,
        with a unit diagonal, and its mirror image into the strict upper
        triangle of ``upper``; the query rows must be the support rows.

        Each pair is computed once per column panel, on or below the
        diagonal, and the panel's transpose is copied above it. ``upper`` is
        ``out`` by default, which is then exactly symmetric. It may be a
        float32 n x n array, which takes the same values rounded; ``out``'s
        strict upper triangle is then left undefined, and ``upper``'s
        diagonal and lower triangle are not written. ``upper`` may share
        memory with the strict upper triangle of ``out``, as in
        ``TrainingSet``: each panel writes ``out`` first.
        """
        upper = out if upper is None else upper
        n = self._Sa.shape[1]
        for start in range(0, n, PREDICT_BLOCK_ROWS):
            stop = min(start + PREDICT_BLOCK_ROWS, n)
            w = stop - start
            panel = np.exp(self._scaled_sq_dists(sigma2, start, start, stop),
                           out=out[start:, start:stop])
            top = panel[:w]
            np.fill_diagonal(top, 1.0)
            np.copyto(upper[start:stop, start:stop], top.T,
                      where=np.tri(w, k=-1, dtype=bool).T, casting="same_kind")
            np.copyto(upper[start:stop, stop:], panel[w:].T, casting="same_kind")


def predict(model: LssvmModel, Xq) -> np.ndarray:
    """Evaluate f(x) = sum_i a_i k(x, x_i) + b at each query row of Xq.

    The kernel is taken ``PREDICT_BLOCK_ROWS`` query rows at a time (see
    ``KernelProduct``), so a call holds no n_query x n_support array.
    """
    product = KernelProduct(model.support_inputs, Xq)
    out = product.matvec(model.hyperparams.sigma2, model.dual_coeffs)
    out += model.bias
    return out
