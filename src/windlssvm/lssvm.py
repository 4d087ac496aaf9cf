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
at 0 and turned into kernel values. ``matvec`` then takes one vector-matrix
product per block, so a product holds one cache-sized block, not an
n_query x n_support kernel.
``fill_kernel`` writes K(S, S) with its unit diagonal replaced by a
caller's value, which a solve sets to 1 + 1/gamma to make H = K + I/gamma,
into the lower triangle of a caller's n x n array, one ``dgemm`` per column
panel; and G = P H P, for the permutation P that reverses the row order,
diagonal included, into the upper triangle of another array, in double or
single precision. Column n - 1 - j of G is column j of H's lower triangle
read bottom-up, so each panel reaches G by one reversed copy, not a
transpose. Each pair is computed once.

``TrainingSet`` owns a training set's ``KernelProduct`` with itself, and one
Fortran-ordered n x (n + 1) buffer that all of its solves share; it keeps no
distances. H lies in the lower triangle of its first n columns, and only the
fill writes it. Each solver factors G = P H P instead, in the upper
triangle of the buffer's columns 1..n, which lies above H's diagonal: in
double precision, the n x n array from the top of column 1 with a leading
dimension of n; in single precision, the float32 array whose column j
starts at the top of the buffer's column j + 1, with a leading dimension of
2n floats, so that its upper triangle covers about half of H's strict upper
triangle. The fill writes H's lower triangle and G's upper triangle, and
nothing else, so neither overwrites the other. Both solvers read H, for CG
and for the gates, from its intact lower triangle. A solve takes one of
two solvers, chosen by gamma and n alone, and each is one sequence: fill,
factor, solve, gate.

- The fast path, where (1 + gamma n) u_s <= ``SINGLE_KAPPA_U`` for the
  single-precision unit roundoff u_s. K's entries are at most 1, so
  lambda_max(K) <= n and (1 + gamma n) bounds the condition number of H;
  a Cholesky factor of H rounded to single precision is then a close
  preconditioner of H. The fill writes G in single precision, and its
  factor R overwrites it (G ~ R^T R), so H^-1 ~ P R^-1 R^-T P. Projected
  conjugate gradients (``_pcg``), in double precision, then solve the
  bordered system in one Krylov sequence with that preconditioner, until
  its residual is ``CG_RTOL`` of ||y||, for at most ``CG_MAX_ITER``
  iterations. Each product with H is one ``dsymv``, each preconditioner
  step is one ``_cholesky_solve``, which reverses the vector, makes two
  ``strsv`` calls and reverses it back, and no state is carried from one
  solve to the next.
- The dense path: the fill writes G in double precision, its Cholesky
  factor U overwrites it (G = U^T U), and the same ``_cholesky_solve``
  takes eta = H^-1 1 and nu = H^-1 y as P G^-1 P times each right-hand
  side, with two ``dtrsv`` calls per right-hand side.

The fast path falls back to the dense path, which fills G again in double
precision over the single-precision array, when the single-precision
factorization meets a non-positive pivot ("factor"), when CG takes
``CG_MAX_ITER`` iterations without meeting ``CG_RTOL`` or breaks down (only
rounding or non-finite values make it; "cg_cap"), or when its result fails
the residual or finiteness gate ("gate").
So the path, like the result, depends only on gamma, sigma2 and the
training data. ``TrainingSet.counts`` counts the solves of each path, the
fallbacks by reason and the CG iterations.

Both solvers fill the kernel and factor an n x n matrix, and CG takes a few
iterations, so a solve costs nearly the same anywhere in the search box:
the fast path saves the difference between the double- and the
single-precision factorization. A solver whose cost depends on where it
runs, such as CG on a low-rank preconditioner, makes a swarm's throughput
depend on where the swarm goes.

Both precisions take one factorization, ``_cholesky_upper``: a
right-looking blocked Cholesky factorization (LAPACK Users' Guide, section
3.4) in steps of ``CHOLESKY_BLOCK`` columns. ``potrf`` factors the diagonal
block, ``trtri`` inverts a copy of its factor in a scratch array of at
most ``CHOLESKY_BLOCK``^2 entries that each factorization allocates,
``trmm`` multiplies the panel right of the block by that inverse, and one
``syrk`` updates the trailing triangle, which holds almost all of the
flops. Measured at n = 2575 on 2 cores, it takes about 41 ms in single
precision against about 55 ms for one ``spotrf`` call, and about 70 ms in
double precision against about 80 ms for the same blocking with ``dtrsm``
panels in the lower triangle; OpenBLAS's ``strsm`` is slow on these
panels, so a product with the inverse replaces it. Both precisions also
take one solve with the factor, ``_cholesky_solve``: two ``trsv`` calls
per vector. At that n one ``strsm`` call on one vector took about 5.4 ms
against 1.4 ms for the two ``strsv`` calls.

Every BLAS and LAPACK routine comes from the one OpenBLAS that numpy's
wheels bundle, which numpy's own products use too, so a process loads one
library and runs one thread pool. That build has 64-bit integers and
exports each routine as ``scipy_<name>_64_``. The routines are looked up
once at import, through ``ctypes``, in numpy's core extension module, whose
dependencies include the library; import fails with an ImportError naming
the first symbol not found, as with a numpy built on MKL or a distribution's
BLAS. Each call addresses its block of an array through its leading
dimension, so no call copies a view. Level-1 steps and the kernel-vector
product are plain numpy.

The solver refuses to return solutions from systems that are numerically
singular. Its gates:

- pivot: the factorization must succeed, and every squared Cholesky pivot
  of G must be at least PIVOT_RTOL * max|H|, where max|H| = 1 + 1/gamma
  because K <= 1 with a unit diagonal. CG has no pivots, but the fast path
  is taken only where this gate cannot fire: in exact arithmetic every
  squared pivot is at least lambda_min(G) = lambda_min(H) >= 1/gamma, and
  rounding lowers a computed one by at most about n^2 u (1 + 1/gamma) for
  the double-precision unit roundoff u, far below 1/gamma wherever
  gamma n u_s <= ``SINGLE_KAPPA_U``;
- residual: the residual of the bordered system, computed from H, a and b
  with one ``dsymv`` on H's lower triangle, must be at most RESIDUAL_RTOL
  relative to ||y||;
- finiteness: training data, model entries and the residual must be finite.

Both paths pass the same residual and finiteness gates. A fast result that
fails one goes to the dense path, which raises if it fails too.
"""

from __future__ import annotations

import os
from ctypes import CDLL, POINTER, c_char_p, c_double, c_float, c_int64, c_void_p
from dataclasses import dataclass

import numpy as np
from numpy._core import _multiarray_umath

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
# Columns per step of the blocked Cholesky factorization, in both precisions.
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
# The lower triangle, diagonal included, of a diagonal block of fill_kernel.
_LOWER_BLOCK = np.tri(PREDICT_BLOCK_ROWS, dtype=bool)


class NumericError(RuntimeError):
    """Raised when the KKT system is too ill-conditioned to solve reliably."""


# numpy's core extension module; a symbol lookup in it searches the
# libraries it depends on, OpenBLAS among them.
_NUMPY_CORE = CDLL(_multiarray_umath.__file__)
_ARG_TYPES = {"c": c_char_p, "i": POINTER(c_int64), "d": POINTER(c_double),
              "f": POINTER(c_float), "p": c_void_p}


def _blas_routine(name: str, kinds: str):
    """The BLAS or LAPACK routine ``name`` of numpy's OpenBLAS, exported as
    ``scipy_<name>_64_``.

    ``kinds`` spells the arguments it takes: c for ``char *``, i for a
    64-bit ``int *``, d and f for a ``double *`` and a ``float *`` scalar,
    and p for an array pointer. Raises ImportError, naming the symbol, if
    numpy's libraries do not export it.
    """
    symbol = f"scipy_{name}_64_"
    try:
        routine = _NUMPY_CORE[symbol]
    except AttributeError:
        raise ImportError(f"numpy {np.__version__} exports no {symbol}: windlssvm needs the "
                          "64-bit-integer OpenBLAS bundled with numpy's wheels") from None
    routine.argtypes = [_ARG_TYPES[k] for k in kinds]
    routine.restype = None
    return routine


_DPOTRF = _blas_routine("dpotrf", "cipii")
_DTRTRI = _blas_routine("dtrtri", "ccipii")
_DTRMM = _blas_routine("dtrmm", "cccciidpipi")
_DSYRK = _blas_routine("dsyrk", "cciidpidpi")
_DTRSV = _blas_routine("dtrsv", "cccipipi")
_SPOTRF = _blas_routine("spotrf", "cipii")
_STRTRI = _blas_routine("strtri", "ccipii")
_STRMM = _blas_routine("strmm", "cccciifpipi")
_SSYRK = _blas_routine("ssyrk", "cciifpifpi")
_STRSV = _blas_routine("strsv", "cccipipi")
_DGEMM = _blas_routine("dgemm", "cciiidpipidpi")
_DSYMV = _blas_routine("dsymv", "cidpipidpi")
_ONE, _ZERO, _MINUS_ONE, _UNIT_STRIDE = c_double(1.0), c_double(0.0), c_double(-1.0), c_int64(1)
# The routines of _cholesky_upper and _cholesky_solve and the scalars 1 and
# -1, by precision.
_FACTOR_ROUTINES = {
    np.dtype(np.float64): (_DPOTRF, _DTRTRI, _DTRMM, _DSYRK, _DTRSV, _ONE, _MINUS_ONE),
    np.dtype(np.float32): (_SPOTRF, _STRTRI, _STRMM, _SSYRK, _STRSV, c_float(1.0), c_float(-1.0)),
}


def _factor_layout(A: np.ndarray):
    """The routines of ``A``'s precision from ``_FACTOR_ROUTINES``, the
    address of ``A`` and its leading dimension, for a square float32 or
    float64 array whose columns are contiguous and may lie any whole number
    of entries apart."""
    size = A.itemsize
    if (A.dtype not in _FACTOR_ROUTINES or A.shape[0] != A.shape[1] or A.strides[0] != size
            or A.strides[1] % size):
        raise ValueError("need a square float32 or float64 array with contiguous columns")
    return _FACTOR_ROUTINES[A.dtype], A.ctypes.data, c_int64(A.strides[1] // size)


def _cholesky_upper(A: np.ndarray) -> bool:
    """Overwrite the upper triangle of the float32 or float64 n x n array
    ``A``, laid out as ``_factor_layout`` takes it, with its Cholesky factor
    U (A = U^T U), ``CHOLESKY_BLOCK`` columns per step, leaving the strict
    lower triangle as it is. Each diagonal block is inverted in one scratch
    array of at most ``CHOLESKY_BLOCK``^2 entries in A's precision. False if
    a pivot is not positive.
    """
    (potrf, trtri, trmm, syrk, _, one, minus_one), base, lda = _factor_layout(A)
    n, size, info = A.shape[0], A.itemsize, c_int64(0)
    blocks = np.empty(min(n, CHOLESKY_BLOCK) ** 2, A.dtype)

    def at(i, j):
        return base + size * i + A.strides[1] * j

    for j in range(0, n, CHOLESKY_BLOCK):
        w = min(CHOLESKY_BLOCK, n - j)
        m, k = c_int64(n - j - w), c_int64(w)
        potrf(b"U", k, at(j, j), lda, info)
        if info.value:
            return False
        if m.value:
            # Panel right of the block: P <- U^-T P, by a product with the
            # inverse of the block's factor U; trailing upper triangle:
            # T <- T - P^T P. trtri and trmm read the copy's upper triangle only.
            inverse = blocks[: w * w].reshape(w, w, order="F")
            np.copyto(inverse, A[j:j + w, j:j + w])
            trtri(b"U", b"N", k, inverse.ctypes.data, k, info)
            trmm(b"L", b"U", b"T", b"N", k, m, one, inverse.ctypes.data, k, at(j, j + w), lda)
            syrk(b"U", b"T", m, k, minus_one, at(j, j + w), lda, one, at(j + w, j + w), lda)
    return True


def _cholesky_solve(U: np.ndarray, r: np.ndarray) -> np.ndarray:
    """H^-1 r in double precision, for H = P U^T U P with P reversing the
    row order and the Cholesky factor U in the upper triangle of the
    float32 or float64 array ``U``, laid out as ``_factor_layout`` takes it:
    two triangular solves in U's precision on the reversed vector."""
    (*_, trsv, _, _), base, lda = _factor_layout(U)
    if r.shape != (len(U),):
        raise ValueError(f"need a vector of length {len(U)}, got shape {r.shape}")
    z, n = r[::-1].astype(U.dtype), c_int64(len(r))
    for trans in (b"T", b"N"):
        trsv(b"U", trans, b"N", n, base, lda, z.ctypes.data, _UNIT_STRIDE)
    return z[::-1].astype(np.float64)


def _symv(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x for the symmetric, Fortran-ordered n x n array ``H``, read from its
    lower triangle."""
    if not (H.flags.f_contiguous and H.dtype == np.float64 and H.shape == (len(x), len(x))):
        raise ValueError("need a square, Fortran-ordered float64 array of x's length")
    x = np.ascontiguousarray(x, dtype=np.float64)
    n, out = c_int64(len(x)), np.empty(len(x))
    _DSYMV(b"L", n, _ONE, H.ctypes.data, n, x.ctypes.data, _UNIT_STRIDE,
           _ZERO, out.ctypes.data, _UNIT_STRIDE)
    return out


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


def buffer_bytes(n: int) -> int:
    """The size of a ``TrainingSet``'s buffer for n training rows."""
    return 8 * n * (n + 1)


# Where ``memory_limit_bytes`` finds proc/self/cgroup and sys/fs/cgroup.
SYSTEM_ROOT = "/"


def memory_limit_bytes() -> tuple[int, str | None]:
    """The memory this process may use and the file that sets it (None for
    the machine's physical memory): the smaller of physical memory and the
    process's memory-cgroup limit. Under cgroup v2 that limit is the smallest
    numeric ``memory.max`` from the process's cgroup up to the root ("max"
    sets none); under v1 it is ``hierarchical_memory_limit`` in
    ``memory.stat``. A file that cannot be read sets no limit."""
    limit = (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), None)
    cgroups = _split_lines(os.path.join(SYSTEM_ROOT, "proc/self/cgroup"), ":", 2)
    for _, controllers, path in cgroups:
        if controllers == "":
            mount, name, key = "", "memory.max", []
        elif "memory" in controllers.split(","):
            mount, name, key = "memory", "memory.stat", ["hierarchical_memory_limit"]
        else:
            continue
        # A cgroup outside the mount's view (a namespaced "/.." path) is
        # read from the mount's root only.
        parts = [] if ".." in path.split("/") else [p for p in path.split("/") if p]
        for i in range(len(parts), -1, -1):
            file = os.path.join(SYSTEM_ROOT, "sys/fs/cgroup", mount, *parts[:i], name)
            for *words, value in filter(None, _split_lines(file)):
                if words == key and value.isdigit() and int(value) < limit[0]:
                    limit = (int(value), file)
    return limit


def _split_lines(file: str, sep: str | None = None, maxsplit: int = -1) -> list[list[str]]:
    """Each line of ``file`` split by ``sep``; none if it cannot be read."""
    try:
        with open(file) as fh:
            return [line.split(sep, maxsplit) for line in fh.read().splitlines()]
    except OSError:
        return []


class TrainingSet:
    """Checked training inputs, their ``KernelProduct`` with themselves and
    the one Fortran-ordered n x (n + 1) buffer that every ``solve``
    overwrites, so a solve allocates no n x n array. Solves on one instance
    must not run concurrently. A buffer larger than ``memory_limit_bytes``
    is a ValueError, raised before it is allocated.

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
        need, (have, source) = buffer_bytes(n), memory_limit_bytes()
        if need > have:
            limit = (f"the machine's {have} bytes of physical memory" if source is None
                     else f"the {have}-byte memory cgroup limit in {source}")
            raise ValueError(f"a training block of {n} rows needs a {need}-byte kernel buffer, "
                             f"more than {limit}; use a shorter series or a lower --train-frac")
        self._kernel = KernelProduct(X, X)
        buffer = np.empty((n, n + 1), order="F")
        self._H = buffer[:, :n]
        # G = P H P lies in the upper triangle of the buffer's columns 1..n,
        # clear of H's lower triangle: in double precision with columns n
        # doubles apart, in single precision 2n floats apart (see the module
        # docstring).
        self._G = buffer[:, 1:]
        self._R = np.ndarray((n, n), np.float32, buffer=buffer, offset=buffer.strides[1],
                             strides=(4, buffer.strides[1]))
        self.counts = dict.fromkeys(SOLVE_COUNTS, 0)

    def solve(self, hp: Hyperparams) -> tuple[np.ndarray, float]:
        """Dual coefficients and bias of the LSSVM at ``hp``: the fast path
        where ``_single_precision_suffices``, then the dense path if it was
        not taken or fell back, each as fill, factor, solve and gate (see
        the module docstring).

        Raises
        ------
        NumericError
            If H is not numerically positive definite (the pivot gate) or the
            KKT residual exceeds ``RESIDUAL_RTOL``.
        """
        y, H, G, R = self.y, self._H, self._G, self._R
        n = y.shape[0]
        if n == 1:
            # 1^T a = 0 forces a = 0, and then b = y_0.
            return np.zeros(1), float(y[0])
        # K <= 1 with a unit diagonal, so H's diagonal, and max|H|, is 1 + 1/gamma.
        scale = 1.0 + 1.0 / hp.gamma
        counts = self.counts
        if _single_precision_suffices(n, hp.gamma):
            # CG on H, preconditioned by the single-precision factor R of
            # G = P H P: H^-1 ~ P (R^T R)^-1 P.
            self._kernel.fill_kernel(hp.sigma2, scale, H, R)
            reason = "factor"
            if _cholesky_upper(R):
                alpha, b, iterations = _pcg(H, lambda r: _cholesky_solve(R, r), y)
                counts["cg_iterations"] += iterations
                if alpha is None:
                    reason = "cg_cap"
                elif self._rel_residual(alpha, b) <= RESIDUAL_RTOL:
                    counts["fast"] += 1
                    return alpha, float(b)
                else:
                    reason = "gate"
            counts[reason] += 1
        self._kernel.fill_kernel(hp.sigma2, scale, H, G)
        counts["dense"] += 1
        # U overwrites G's upper triangle; H's lower triangle stays as filled.
        min_pivot = float(G.diagonal().min()) ** 2 if _cholesky_upper(G) else 0.0
        if not min_pivot >= PIVOT_RTOL * scale:
            raise NumericError(
                f"near-singular KKT system: min pivot {min_pivot:.3e} "
                f"< {PIVOT_RTOL:.0e} * max|H| ({scale:.3e}); "
                f"gamma={hp.gamma:.6g} sigma2={hp.sigma2:.6g} n={n}"
            )
        alpha, b = _dual(_cholesky_solve(G, np.ones(n)), _cholesky_solve(G, y))
        rel_residual = self._rel_residual(alpha, b)
        if not rel_residual <= RESIDUAL_RTOL:
            raise NumericError(
                f"KKT solve residual {rel_residual:.3e} exceeds {RESIDUAL_RTOL:.0e} "
                f"(min pivot {min_pivot:.3e}, gamma={hp.gamma:.6g}, sigma2={hp.sigma2:.6g}, n={n})"
            )
        return alpha, float(b)

    def _rel_residual(self, alpha: np.ndarray, b: float) -> float:
        """Residual of the bordered system [1^T a ; H a + b - y] relative to
        ||y||, with H read from its lower triangle. Not finite if a or b is
        not."""
        y = self.y
        r = _symv(self._H, alpha) + b - y
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
    stop = CG_RTOL * np.linalg.norm(y)
    a, r, b = np.zeros(n), -y, y.mean()
    residual = r + b
    if np.linalg.norm(residual) <= stop:
        return a, b, 0  # constant y, zero included: a = 0 and b = y's mean
    w = precondition(np.ones(n))
    w_sum = w.sum()

    def project(r):
        z = precondition(r)
        z -= z.sum() / w_sum * w
        return z

    g = project(residual)
    rg = residual @ g
    p = -g
    for iterations in range(1, CG_MAX_ITER + 1):
        q = _symv(H, p)
        pq = p @ q
        if not (pq > 0 and rg > 0):
            break
        step = rg / pq
        a += step * p
        r += step * q
        b = -r.mean()
        residual = r + b
        if np.linalg.norm(residual) <= stop:
            return a, b, iterations
        g = project(residual)
        rg, rg_old = residual @ g, rg
        p = rg / rg_old * p - g
    return None, 0.0, iterations


def _dual(eta: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, float]:
    """a and b from eta = H^-1 1 and nu = H^-1 y."""
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
        # Flat, so that every (m, w) block viewed from its head is contiguous
        # and dgemm writes it with a leading dimension of m.
        self._scratch = np.empty(n * min(PREDICT_BLOCK_ROWS, nq))

    def _scaled_sq_dists(self, sigma2: float, first: int, start: int, stop: int):
        """-||s - q||^2 / (2 sigma2) for the support rows from ``first`` on and
        the query rows start:stop, clamped at 0 against rounding, as a
        Fortran-ordered view of the scratch array."""
        (k, n), w = self._Sa.shape, stop - start
        m, ld = n - first, c_int64(k)
        block = self._scratch[: m * w].reshape(m, w, order="F")
        _DGEMM(b"T", b"N", c_int64(m), c_int64(w), ld, c_double(-0.5 / sigma2),
               self._Sa[:, first].ctypes.data, ld, self._Qa[:, start].ctypes.data, ld,
               _ZERO, block.ctypes.data, c_int64(m))
        return np.minimum(block, 0.0, out=block)

    def matvec(self, sigma2: float, coeffs) -> np.ndarray:
        """sum_i coeffs_i exp(-||q - s_i||^2 / (2 sigma2)) at each query row q.

        A row's last bits depend on its position in its ``PREDICT_BLOCK_ROWS``
        block: the ``dgemm`` of the distances and the ``coeffs @ block``
        product both round with the block's width. So the same row, queried
        among other rows, may differ in its last bits; the tests bound the
        difference by an ulp of sum_i |coeffs_i|, the largest magnitude the
        sum reaches.
        """
        nq = self._Qa.shape[1]
        out = np.empty(nq)
        for start in range(0, nq, PREDICT_BLOCK_ROWS):
            stop = min(start + PREDICT_BLOCK_ROWS, nq)
            block = self._scaled_sq_dists(sigma2, 0, start, stop)
            np.exp(block, out=block)
            np.matmul(coeffs, block, out=out[start:stop])
        return out

    def fill_kernel(self, sigma2: float, diagonal: float, lower: np.ndarray, upper: np.ndarray):
        """Write K = K(S, S) with ``diagonal`` in place of its unit diagonal,
        H = K + (diagonal - 1) I, into the lower triangle of the float64
        n x n array ``lower``, and G = P H P, P reversing the row order, into
        the upper triangle of the float32 or float64 n x n array ``upper``,
        rounded to its precision; the query rows must be the support rows.

        Each pair is computed once, on or below the diagonal, one column
        panel at a time, and turned into kernel values in the scratch array.
        Column n - 1 - j of G is column j of H's lower triangle read
        bottom-up, so each panel reaches G by one reversed copy. Nothing
        else of either array is written, so they may share memory with
        disjoint triangles, as in ``TrainingSet``; every copy reads the
        scratch array, so numpy makes no temporary copy of an overlapping
        source.
        """
        n = self._Sa.shape[1]
        for start in range(0, n, PREDICT_BLOCK_ROWS):
            stop = min(start + PREDICT_BLOCK_ROWS, n)
            w, first, last = stop - start, n - stop, n - start
            panel = self._scaled_sq_dists(sigma2, start, start, stop)
            np.exp(panel, out=panel)
            top, below = panel[:w], panel[w:]
            np.fill_diagonal(top, diagonal)
            tri = _LOWER_BLOCK[:w, :w]
            np.copyto(lower[start:stop, start:stop], top, where=tri)
            np.copyto(upper[first:last, first:last], top[::-1, ::-1], where=tri.T,
                      casting="same_kind")
            np.copyto(lower[stop:, start:stop], below)
            np.copyto(upper[:first, first:last], below[::-1, ::-1], casting="same_kind")


def predict(model: LssvmModel, Xq) -> np.ndarray:
    """Evaluate f(x) = sum_i a_i k(x, x_i) + b at each query row of Xq.

    The kernel is taken ``PREDICT_BLOCK_ROWS`` query rows at a time (see
    ``KernelProduct``), so a call holds no n_query x n_support array. A
    forecast's last bits depend on its row's position in its block
    (``KernelProduct.matvec``), so the same row predicted among other rows
    may differ in its last bits, within an ulp of sum_i |a_i|.
    """
    product = KernelProduct(model.support_inputs, Xq)
    out = product.matvec(model.hyperparams.sigma2, model.dual_coeffs)
    out += model.bias
    return out
