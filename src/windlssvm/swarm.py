"""Box-constrained swarm minimizers: PSO, QPSO, and QPSO with elitist breeding.

The quantum-behaved update samples each new coordinate around an attractor

    p_c = phi * pbest_j + (1 - phi) * gbest_j
    x_j <- p_c +/- alpha * |mbest_j - x_j| * ln(1/u)

with phi, u uniform draws, a 50/50 sign, and alpha the contraction-expansion
coefficient. The elitist-breeding variant periodically pools the personal
bests plus the global best, normalizes the pool to the unit box, relocates
single genes within or between chromosomes (cut-and-paste or copy-and-paste),
denormalizes, and keeps any bred row that improves its particle's best.

All three optimizers run one loop: each iteration moves the whole (m, d)
swarm, scores the batch, and keeps each row that beats its particle's best.

Reproducibility contract: every optimizer draws from one ``numpy`` Generator
seeded from its config, in a fixed order -- the (m, d) initial positions
row-major, then one draw block per iteration, row-major: per particle, for
QPSO the phi vector, the u vector and the sign vector, for PSO the cognitive
then the social vector. On breeding iterations the breeding pass draws first,
per pool row: the activation uniform, then if activated the partner-row
uniform, the operator-choice uniform, and the two gene loci per transposon.
The fitness is called once per particle in index order (bred rows first,
only those the operator changed). mbest is taken from the iteration-start
personal bests, before breeding; gbest and the personal bests that the move
reads are taken after it. Identical (config, fitness) therefore yield
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Standard constriction parameterization for the PSO baseline.
PSO_INERTIA = 0.729
PSO_COGNITIVE = 1.49445
PSO_SOCIAL = 1.49445


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box with strictly ordered finite bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape or lo.size == 0:
            raise ValueError("lower and upper must be non-empty vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be strictly below its upper bound")
        lo = lo.copy()
        hi = hi.copy()
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass(frozen=True)
class SwarmConfig:
    """Optimizer settings; the defaults are the reference configuration
    (20 particles, 50 iterations, jumping rate 0.2, one single-gene
    transposon, breeding every 3 iterations). The problem dimension is the
    search space's.

    ``ce_alpha`` is the contraction-expansion coefficient: ``None`` decays
    it linearly from 1.0 to 0.5 over the run, a number holds it fixed.
    """

    population: int = 20
    max_iter: int = 50
    jumping_rate: float = 0.2
    n_transposons: int = 1
    lam: int = 3
    seed: int = 0
    ce_alpha: float | None = None

    def __post_init__(self):
        if self.population < 1 or self.max_iter < 1:
            raise ValueError("population and max_iter must be positive")
        if not 0.0 <= self.jumping_rate <= 1.0:
            raise ValueError(f"jumping_rate must lie in [0, 1], got {self.jumping_rate}")
        if self.n_transposons < 1 or self.lam < 1:
            raise ValueError("n_transposons and lam must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.ce_alpha is not None and not 0 < self.ce_alpha < np.inf:
            raise ValueError(f"ce_alpha must be a finite positive real, got {self.ce_alpha}")


@dataclass
class OptimizeResult:
    best_position: np.ndarray
    best_fitness: float
    history: np.ndarray  # best fitness after each iteration, non-increasing
    evaluations: int
    nonfinite_evals: int = 0


@dataclass
class SwarmSnapshot:
    """Per-iteration state handed to optimizer callbacks (copies, safe to keep)."""

    iteration: int
    positions: np.ndarray
    pbest_positions: np.ndarray
    pbest_fitness: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: float


Callback = Callable[[SwarmSnapshot], None]


def compute_mbest(pbests: np.ndarray) -> np.ndarray:
    """Coordinate-wise mean of the personal best positions."""
    pbests = np.atleast_2d(np.asarray(pbests, dtype=float))
    if pbests.shape[0] < 1 or pbests.size == 0:
        raise ValueError("need at least one personal best")
    return pbests.mean(axis=0)


def ce_coefficient(t: int, max_iter: int, alpha: float | None = None) -> float:
    """Contraction-expansion coefficient at iteration t of max_iter.

    With ``alpha`` None it decays linearly: 0.5 + 0.5 * (max_iter - t) / max_iter,
    i.e. 1.0 at t=0 down to 0.5 at t=max_iter. Otherwise it is ``alpha``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if t < 0 or t > max_iter:
        raise ValueError(f"iteration index {t} outside [0, {max_iter}]")
    if alpha is None:
        return 0.5 + 0.5 * (max_iter - t) / max_iter
    return float(alpha)


def qpso_update_position(
    position: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    mbest: np.ndarray,
    alpha: float,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """Quantum-behaved update of one position (d,) or a swarm (m, d), clamped
    to the search box; ``pbest`` has the shape of ``position``.

    Draws one block of 3 * position.size uniforms: per row, the phi vector,
    the u vector and the sign vector, each of length d, so a swarm draws
    exactly what m row-by-row calls would. u is taken as 1 - U[0, 1) so that
    ln(1/u) stays finite.
    """
    position = np.asarray(position, dtype=float)
    d = position.shape[-1]
    if np.shape(pbest) != position.shape or not (np.size(gbest) == np.size(mbest) == d):
        raise ValueError("position, pbest, gbest and mbest must share one dimension")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    r = rng.random(3 * position.size).reshape(position.shape[:-1] + (3, d))
    phi = r[..., 0, :]
    u = 1.0 - r[..., 1, :]
    s = r[..., 2, :]
    # p_c = phi*pbest + (1-phi)*gbest, arranged so pbest == gbest is an
    # exact fixed point.
    p_c = gbest + phi * (pbest - gbest)
    step = alpha * np.abs(mbest - position) * np.log(1.0 / u)
    new = p_c + np.where(s < 0.5, step, -step)
    return space.clip(new)


def normalize(x: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Map an in-bounds point to the unit box: (x - lower) / (upper - lower)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space.dimension:
        raise ValueError(f"dimension {x.shape[-1]} != search space dimension {space.dimension}")
    if not (np.all(x >= space.lower) and np.all(x <= space.upper)):
        raise ValueError("point lies outside the search space")
    return (x - space.lower) / space.span


def denormalize(xn: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Inverse of :func:`normalize`: xn * (upper - lower) + lower."""
    xn = np.asarray(xn, dtype=float)
    if xn.shape[-1] != space.dimension:
        raise ValueError(f"dimension {xn.shape[-1]} != search space dimension {space.dimension}")
    if np.any(xn < 0.0) or np.any(xn > 1.0):
        raise ValueError("normalized point lies outside the unit box")
    return xn * space.span + space.lower


def cut_and_paste(row_a: np.ndarray, row_b: np.ndarray | None, src: int, dst: int):
    """Relocate one gene from (row_a, src) to (row_b, dst).

    With ``row_b is None`` the move happens inside ``row_a``: the gene is
    excised, the remaining genes close ranks, and the gene is reinserted at
    ``dst``. Across two rows the displaced target gene moves back to the
    vacated source locus, so both rows keep their length and the combined
    gene multiset is preserved. Returns the new row, or ``(new_a, new_b)``
    for the two-row form. Inputs are never mutated.
    """
    row_a = np.asarray(row_a, dtype=float)
    if row_b is None or row_b is row_a:
        _check_locus(src, row_a.size)
        _check_locus(dst, row_a.size)
        gene = row_a[src]
        rest = np.delete(row_a, src)
        return np.insert(rest, dst, gene)
    row_b = np.asarray(row_b, dtype=float)
    _check_locus(src, row_a.size)
    _check_locus(dst, row_b.size)
    new_a = row_a.copy()
    new_b = row_b.copy()
    new_a[src] = row_b[dst]
    new_b[dst] = row_a[src]
    return new_a, new_b


def copy_and_paste(row_a: np.ndarray, row_b: np.ndarray | None, src: int, dst: int):
    """Overwrite the gene at (row_b, dst) with a copy of the gene at (row_a, src).

    ``row_b is None`` applies the overwrite inside ``row_a``. Returns the new
    row, or ``(new_a, new_b)`` for the two-row form (new_a is an unchanged
    copy). Inputs are never mutated.
    """
    row_a = np.asarray(row_a, dtype=float)
    if row_b is None or row_b is row_a:
        _check_locus(src, row_a.size)
        _check_locus(dst, row_a.size)
        new = row_a.copy()
        new[dst] = row_a[src]
        return new
    row_b = np.asarray(row_b, dtype=float)
    _check_locus(src, row_a.size)
    _check_locus(dst, row_b.size)
    new_b = row_b.copy()
    new_b[dst] = row_a[src]
    return row_a.copy(), new_b


def _check_locus(idx: int, size: int):
    if not 0 <= idx < size:
        raise ValueError(f"locus {idx} outside [0, {size})")


def transposon_operator(
    epool: np.ndarray,
    config: SwarmConfig,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """Breed an elitist pool (M personal bests plus the global best as rows).

    Each row, with probability ``jumping_rate``, initiates a transposon
    operation with a uniformly drawn partner row (possibly itself); the
    operation is cut-and-paste or copy-and-paste with equal probability and
    acts on the pool normalized to the unit box. Rows never touched by an
    operation are returned bit-identical; touched rows are denormalized back
    into the search space. The input pool is not mutated.
    """
    epool = np.atleast_2d(np.asarray(epool, dtype=float))
    n_rows, d = epool.shape
    if n_rows < 2:
        raise ValueError("elitist pool needs at least two rows (pbests plus gbest)")
    if d != space.dimension:
        raise ValueError(f"pool dimension {d} != search space dimension {space.dimension}")

    norm = normalize(epool, space)
    touched = np.zeros(n_rows, dtype=bool)
    for i in range(n_rows):
        if rng.random() >= config.jumping_rate:
            continue
        c2 = int(np.ceil(rng.random() * n_rows))
        c2 = min(max(c2, 1), n_rows) - 1
        op = cut_and_paste if rng.random() > 0.5 else copy_and_paste
        for _ in range(config.n_transposons):
            src = int(rng.integers(d))
            dst = int(rng.integers(d))
            if c2 == i:
                norm[i] = op(norm[i], None, src, dst)
            else:
                norm[i], norm[c2] = op(norm[i], norm[c2], src, dst)
        touched[i] = True
        touched[c2] = True

    out = epool.copy()
    if touched.any():
        out[touched] = denormalize(norm[touched], space)
    return out


class _Evaluator:
    """Scores a batch: calls the per-point objective once per row, in row
    order, maps non-finite values to +inf and counts calls and non-finite
    values."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0
        self.nonfinite = 0

    def __call__(self, X: np.ndarray) -> np.ndarray:
        f = np.array([float(self.fn(x)) for x in X])
        bad = ~np.isfinite(f)
        f[bad] = np.inf
        self.count += f.size
        self.nonfinite += int(bad.sum())
        return f


def _optimize(fitness, space, config, callback, move, breed=False) -> OptimizeResult:
    """The swarm loop shared by the three optimizers.

    ``move`` takes the arguments of :func:`qpso_update_position` and returns
    the swarm's new (m, d) positions. With ``breed``, every ``config.lam``-th
    iteration first breeds the elitist pool and offers the changed rows to
    their particles' bests.
    """
    rng = np.random.default_rng(config.seed)
    evaluate = _Evaluator(fitness)
    m = config.population
    x = space.lower + rng.random((m, space.dimension)) * space.span
    pbest, pbest_f = x.copy(), evaluate(x)

    def keep_better(rows, candidates):
        f = evaluate(candidates)
        better = f < pbest_f[rows]
        pbest[rows[better]] = candidates[better]
        pbest_f[rows[better]] = f[better]
        return int(np.argmin(pbest_f))

    g = int(np.argmin(pbest_f))
    history = []
    for t in range(1, config.max_iter + 1):
        alpha = ce_coefficient(t, config.max_iter, config.ce_alpha)
        mbest = compute_mbest(pbest)
        if breed and t % config.lam == 0:
            bred = transposon_operator(np.vstack([pbest, pbest[g]]), config, space, rng)[:m]
            # Rows the operator left bit-identical keep their cached fitness;
            # re-evaluating them cannot change the outcome.
            rows = np.flatnonzero(np.any(bred != pbest, axis=1))
            g = keep_better(rows, bred[rows])
        x = move(x, pbest, pbest[g], mbest, alpha, space, rng)
        g = keep_better(np.arange(m), x)
        history.append(float(pbest_f[g]))
        if callback is not None:
            callback(SwarmSnapshot(t, x.copy(), pbest.copy(), pbest_f.copy(),
                                   pbest[g].copy(), float(pbest_f[g])))

    return OptimizeResult(pbest[g].copy(), float(pbest_f[g]), np.array(history),
                          evaluate.count, evaluate.nonfinite)


def optimize_pso(
    fitness: Callable[[np.ndarray], float],
    space: SearchSpace,
    config: SwarmConfig,
    callback: Callback | None = None,
) -> OptimizeResult:
    """Global-best PSO with constriction constants and clamped velocities."""
    vmax = 0.5 * space.span
    v = np.zeros((config.population, space.dimension))

    def move(x, pbest, gbest, mbest, alpha, space, rng):
        r = rng.random(2 * x.size).reshape(x.shape[0], 2, -1)
        v[:] = (
            PSO_INERTIA * v
            + PSO_COGNITIVE * r[:, 0] * (pbest - x)
            + PSO_SOCIAL * r[:, 1] * (gbest - x)
        )
        np.clip(v, -vmax, vmax, out=v)
        return space.clip(x + v)

    return _optimize(fitness, space, config, callback, move)


def optimize_qpso(
    fitness: Callable[[np.ndarray], float],
    space: SearchSpace,
    config: SwarmConfig,
    callback: Callback | None = None,
) -> OptimizeResult:
    """Quantum-behaved PSO without elitist breeding."""
    return _optimize(fitness, space, config, callback, qpso_update_position)


def optimize_ebqpso(
    fitness: Callable[[np.ndarray], float],
    space: SearchSpace,
    config: SwarmConfig,
    callback: Callback | None = None,
) -> OptimizeResult:
    """Quantum-behaved PSO with transposon breeding of the elitist pool
    every ``config.lam`` iterations."""
    return _optimize(fitness, space, config, callback, qpso_update_position, breed=True)
