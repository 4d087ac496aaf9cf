"""Box-constrained swarm minimizers: PSO, QPSO, and QPSO with elitist breeding.

The quantum-behaved update samples each new coordinate around an attractor

    p_c = phi * pbest_j + (1 - phi) * gbest_j
    x_j <- p_c +/- alpha * |mbest_j - x_j| * ln(1/u)

with phi, u uniform draws, a 50/50 sign, and alpha the contraction-expansion
coefficient, which decays linearly from 1.0 to 0.5 over the run. The
elitist-breeding variant periodically pools the personal bests plus the
global best, normalizes the pool to the unit box, relocates single genes
within or between chromosomes (cut-and-paste or copy-and-paste),
denormalizes, and keeps any bred row that improves its particle's best.

All three optimizers run one loop: each iteration moves the whole (m, d)
swarm, scores the batch, and keeps each row that beats its particle's best.
The transposon operators edit the normalized pool in place; a row paired
with itself is the within-row case.

Checks: ``SearchSpace`` and ``SwarmConfig`` validate what they are given,
since they read outside input, and ``normalize``/``denormalize`` refuse a
point outside the box. The step helpers (``ce_coefficient``,
``qpso_update_position`` and the operators) do not re-check the values the
loop itself builds.

Reproducibility contract: every optimizer draws from one ``numpy`` Generator
seeded from its config, in a fixed order -- the (m, d) initial positions
row-major, then one draw block per iteration, row-major: per particle, for
QPSO the phi vector, the u vector and the sign vector, for PSO the cognitive
then the social vector. On breeding iterations the breeding pass draws first,
per pool row: the activation uniform, then if activated the partner-row
uniform, the operator-choice uniform, and the transposon's two gene loci.
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

# EBQPSO's breeding rule: every BREEDING_PERIOD iterations each pooled best
# starts one single-gene transposon with probability JUMPING_RATE.
JUMPING_RATE = 0.2
BREEDING_PERIOD = 3


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


@dataclass(frozen=True)
class SwarmConfig:
    """Optimizer settings; the defaults are the reference configuration
    (20 particles, 50 iterations). Neither EBQPSO's breeding rule
    (``JUMPING_RATE`` and ``BREEDING_PERIOD``) nor the contraction-expansion
    schedule (:func:`ce_coefficient`) is a setting. The problem dimension is
    the search space's.
    """

    population: int = 20
    max_iter: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.population < 1 or self.max_iter < 1:
            raise ValueError("population and max_iter must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


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


def ce_coefficient(t: int, max_iter: int) -> float:
    """Contraction-expansion coefficient at iteration t of max_iter: it decays
    linearly, 0.5 + 0.5 * (max_iter - t) / max_iter, from 1.0 at t=0 to 0.5
    at t=max_iter."""
    return 0.5 + 0.5 * (max_iter - t) / max_iter


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
    r = rng.random(3 * position.size).reshape(position.shape[:-1] + (3, -1))
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
    if not (np.all(x >= space.lower) and np.all(x <= space.upper)):
        raise ValueError("point lies outside the search space")
    return (x - space.lower) / space.span


def denormalize(xn: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Inverse of :func:`normalize`: xn * (upper - lower) + lower, clipped to
    the box, since lower + (upper - lower) can round above upper."""
    if np.any(xn < 0.0) or np.any(xn > 1.0):
        raise ValueError("normalized point lies outside the unit box")
    return space.clip(xn * space.span + space.lower)


def cut_and_paste(pool: np.ndarray, i: int, j: int, src: int, dst: int):
    """Move the gene at (i, src) of the normalized pool to (j, dst), in place.

    With ``i == j`` the gene is excised, the row's other genes close ranks,
    and the gene is reinserted at ``dst``. Across two rows the displaced
    gene at (j, dst) moves back to the vacated (i, src), so the pool's gene
    multiset is preserved either way.
    """
    if i == j:
        pool[i] = np.insert(np.delete(pool[i], src), dst, pool[i, src])
    else:
        pool[i, src], pool[j, dst] = pool[j, dst], pool[i, src]


def copy_and_paste(pool: np.ndarray, i: int, j: int, src: int, dst: int):
    """Overwrite the gene at (j, dst) of the normalized pool with a copy of
    the gene at (i, src), in place; ``i == j`` copies within one row."""
    pool[j, dst] = pool[i, src]


def transposon_operator(
    epool: np.ndarray,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """Breed an elitist pool (M personal bests plus the global best as rows).

    Each row i, with probability ``JUMPING_RATE``, initiates one single-gene
    transposon with a uniformly drawn partner row j (possibly i itself); the
    operation is cut-and-paste or copy-and-paste with equal probability and
    acts on the pool normalized to the unit box. Rows never touched by an
    operation are returned bit-identical; touched rows are denormalized back
    into the search space. The input pool is not mutated.
    """
    n_rows, d = epool.shape
    pool = normalize(epool, space)
    touched = np.zeros(n_rows, dtype=bool)
    for i in range(n_rows):
        if rng.random() >= JUMPING_RATE:
            continue
        j = int(np.ceil(rng.random() * n_rows))
        j = min(max(j, 1), n_rows) - 1
        op = cut_and_paste if rng.random() > 0.5 else copy_and_paste
        src = int(rng.integers(d))
        dst = int(rng.integers(d))
        op(pool, i, j, src, dst)
        touched[[i, j]] = True
    out = epool.copy()
    out[touched] = denormalize(pool[touched], space)
    return out


def _optimize(fitness, space, config, callback, move, breed=False) -> OptimizeResult:
    """The swarm loop shared by the three optimizers.

    ``move`` takes the arguments of :func:`qpso_update_position` and returns
    the swarm's new (m, d) positions. With ``breed``, every
    ``BREEDING_PERIOD``-th iteration first breeds the elitist pool and
    offers the changed rows to their particles' bests.
    """
    rng = np.random.default_rng(config.seed)
    m = config.population
    x = space.lower + rng.random((m, space.dimension)) * space.span
    # The personal bests start at +inf, so the first scoring keeps every
    # finite value.
    pbest, pbest_f = x.copy(), np.full(m, np.inf)
    calls = nonfinite = 0

    def keep_better(rows, candidates):
        # Score the candidates in row order, a non-finite value as +inf, and
        # keep each that beats its particle's best; return gbest's index.
        nonlocal calls, nonfinite
        f = np.array([float(fitness(c)) for c in candidates])
        bad = ~np.isfinite(f)
        f[bad] = np.inf
        calls += f.size
        nonfinite += int(bad.sum())
        better = f < pbest_f[rows]
        pbest[rows[better]] = candidates[better]
        pbest_f[rows[better]] = f[better]
        return int(np.argmin(pbest_f))

    g = keep_better(np.arange(m), x)
    history = []
    for t in range(1, config.max_iter + 1):
        alpha = ce_coefficient(t, config.max_iter)
        mbest = pbest.mean(axis=0)
        if breed and t % BREEDING_PERIOD == 0:
            bred = transposon_operator(np.vstack([pbest, pbest[g]]), space, rng)[:m]
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
                          calls, nonfinite)


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
    every ``BREEDING_PERIOD`` iterations."""
    return _optimize(fitness, space, config, callback, qpso_update_position, breed=True)
