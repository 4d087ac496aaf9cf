"""Box-constrained swarm minimizers: PSO, QPSO, and QPSO with elitist breeding.

The quantum-behaved update samples each new coordinate around an attractor

    p_c = phi * pbest_j + (1 - phi) * gbest_j
    x_j <- p_c +/- alpha * |mbest_j - x_j| * ln(1/u)

with phi, u uniform draws, a 50/50 sign, and alpha the contraction-expansion
coefficient. The elitist-breeding variant periodically pools the personal
bests plus the global best, normalizes the pool to the unit box, relocates
single genes within or between chromosomes (cut-and-paste or copy-and-paste),
denormalizes, and keeps any bred row that improves its particle's best.

Reproducibility contract: every optimizer draws from one ``numpy`` Generator
seeded from its config, in a fixed order -- initialization row by row, then
per iteration / per particle / per coordinate (for QPSO: the phi vector, the
u vector, the sign vector; for PSO: the cognitive then social vectors). The
breeding pass draws, per pool row: the activation uniform, then if activated
the partner-row uniform, the operator-choice uniform, and the two gene loci.
Identical (config, fitness) therefore yield bit-identical results.
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

    ``ce_mode`` selects the contraction-expansion coefficient rule:
    "scheduled" decays linearly from 1.0 to 0.5 over the run, "fixed" uses
    ``ce_alpha`` throughout.
    """

    population: int = 20
    max_iter: int = 50
    jumping_rate: float = 0.2
    n_transposons: int = 1
    lam: int = 3
    seed: int = 0
    ce_mode: str = "scheduled"
    ce_alpha: float = 0.5

    def __post_init__(self):
        if self.population < 1 or self.max_iter < 1:
            raise ValueError("population and max_iter must be positive")
        if not 0.0 <= self.jumping_rate <= 1.0:
            raise ValueError(f"jumping_rate must lie in [0, 1], got {self.jumping_rate}")
        if self.n_transposons < 1 or self.lam < 1:
            raise ValueError("n_transposons and lam must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.ce_mode not in ("scheduled", "fixed"):
            raise ValueError(f"ce_mode must be 'scheduled' or 'fixed', got {self.ce_mode!r}")
        if not np.isfinite(self.ce_alpha) or self.ce_alpha <= 0:
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


def ce_coefficient(t: int, max_iter: int, mode: str = "scheduled", alpha: float = 0.5) -> float:
    """Contraction-expansion coefficient at iteration t of max_iter.

    Scheduled mode decays linearly: 0.5 + 0.5 * (max_iter - t) / max_iter,
    i.e. 1.0 at t=0 down to 0.5 at t=max_iter. Fixed mode returns ``alpha``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if t < 0 or t > max_iter:
        raise ValueError(f"iteration index {t} outside [0, {max_iter}]")
    if mode == "scheduled":
        return 0.5 + 0.5 * (max_iter - t) / max_iter
    if mode == "fixed":
        return float(alpha)
    raise ValueError(f"unknown ce mode {mode!r}")


def qpso_update_position(
    position: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    mbest: np.ndarray,
    alpha: float,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """One quantum-behaved position update, clamped to the search box.

    Draws, in order, the phi vector, the u vector and the sign vector, each
    of length d. u is taken as 1 - U[0, 1) so that ln(1/u) stays finite.
    """
    position = np.asarray(position, dtype=float)
    d = position.size
    if not (pbest.size == gbest.size == mbest.size == d):
        raise ValueError("position, pbest, gbest and mbest must share one dimension")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    phi = rng.random(d)
    u = 1.0 - rng.random(d)
    s = rng.random(d)
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
        use_cut = rng.random() > 0.5
        for _ in range(config.n_transposons):
            src = int(rng.integers(d))
            dst = int(rng.integers(d))
            if c2 == i:
                op = cut_and_paste if use_cut else copy_and_paste
                norm[i] = op(norm[i], None, src, dst)
            else:
                op = cut_and_paste if use_cut else copy_and_paste
                norm[i], norm[c2] = op(norm[i], norm[c2], src, dst)
        touched[i] = True
        touched[c2] = True

    out = epool.copy()
    if touched.any():
        out[touched] = denormalize(norm[touched], space)
    return out


class _CountingFitness:
    """Wraps the objective: counts calls, maps non-finite values to +inf."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0
        self.nonfinite = 0

    def __call__(self, x: np.ndarray) -> float:
        self.count += 1
        v = float(self.fn(x))
        if not np.isfinite(v):
            self.nonfinite += 1
            return np.inf
        return v


def _init_swarm(fitness, space, config, rng):
    m, d = config.population, space.dimension
    positions = space.lower + rng.random((m, d)) * space.span
    pbest = positions.copy()
    pbest_f = np.array([fitness(positions[i]) for i in range(m)])
    return positions, pbest, pbest_f


def _gbest(pbest, pbest_f):
    i = int(np.argmin(pbest_f))
    return pbest[i].copy(), float(pbest_f[i])


def optimize_pso(
    fitness: Callable[[np.ndarray], float],
    space: SearchSpace,
    config: SwarmConfig,
    callback: Callback | None = None,
) -> OptimizeResult:
    """Global-best PSO with constriction constants and clamped velocities."""
    rng = np.random.default_rng(config.seed)
    fit = _CountingFitness(fitness)
    m, d = config.population, space.dimension
    vmax = 0.5 * space.span

    positions, pbest, pbest_f = _init_swarm(fit, space, config, rng)
    velocities = np.zeros((m, d))
    gbest, gbest_f = _gbest(pbest, pbest_f)

    history = []
    for t in range(1, config.max_iter + 1):
        for i in range(m):
            r1 = rng.random(d)
            r2 = rng.random(d)
            velocities[i] = (
                PSO_INERTIA * velocities[i]
                + PSO_COGNITIVE * r1 * (pbest[i] - positions[i])
                + PSO_SOCIAL * r2 * (gbest - positions[i])
            )
            np.clip(velocities[i], -vmax, vmax, out=velocities[i])
            positions[i] = space.clip(positions[i] + velocities[i])
            fx = fit(positions[i])
            if fx < pbest_f[i]:
                pbest[i] = positions[i]
                pbest_f[i] = fx
        gbest, gbest_f = _gbest(pbest, pbest_f)
        history.append(gbest_f)
        if callback is not None:
            callback(_snapshot(t, positions, pbest, pbest_f, gbest, gbest_f))

    return OptimizeResult(gbest, gbest_f, np.array(history), fit.count, fit.nonfinite)


def optimize_qpso(
    fitness: Callable[[np.ndarray], float],
    space: SearchSpace,
    config: SwarmConfig,
    callback: Callback | None = None,
) -> OptimizeResult:
    """Quantum-behaved PSO without elitist breeding."""
    return _run_qpso(fitness, space, config, breed=False, callback=callback)


def optimize_ebqpso(
    fitness: Callable[[np.ndarray], float],
    space: SearchSpace,
    config: SwarmConfig,
    callback: Callback | None = None,
) -> OptimizeResult:
    """Quantum-behaved PSO with transposon breeding of the elitist pool
    every ``config.lam`` iterations."""
    return _run_qpso(fitness, space, config, breed=True, callback=callback)


def _run_qpso(fitness, space, config, breed, callback):
    rng = np.random.default_rng(config.seed)
    fit = _CountingFitness(fitness)
    m = config.population

    positions, pbest, pbest_f = _init_swarm(fit, space, config, rng)
    gbest, gbest_f = _gbest(pbest, pbest_f)

    history = []
    for t in range(1, config.max_iter + 1):
        alpha = ce_coefficient(t, config.max_iter, config.ce_mode, config.ce_alpha)
        mbest = compute_mbest(pbest)

        if breed and t % config.lam == 0:
            epool = np.vstack([pbest, gbest[None, :]])
            bred = transposon_operator(epool, config, space, rng)
            for i in range(m):
                # Rows the operator left bit-identical keep their cached
                # fitness; re-evaluating them cannot change the outcome.
                if np.array_equal(bred[i], pbest[i]):
                    continue
                fx = fit(bred[i])
                if fx < pbest_f[i]:
                    pbest[i] = bred[i]
                    pbest_f[i] = fx
            gbest, gbest_f = _gbest(pbest, pbest_f)

        for i in range(m):
            positions[i] = qpso_update_position(
                positions[i], pbest[i], gbest, mbest, alpha, space, rng
            )
            fx = fit(positions[i])
            if fx < pbest_f[i]:
                pbest[i] = positions[i]
                pbest_f[i] = fx
        gbest, gbest_f = _gbest(pbest, pbest_f)
        history.append(gbest_f)
        if callback is not None:
            callback(_snapshot(t, positions, pbest, pbest_f, gbest, gbest_f))

    return OptimizeResult(gbest, gbest_f, np.array(history), fit.count, fit.nonfinite)


def _snapshot(t, positions, pbest, pbest_f, gbest, gbest_f):
    return SwarmSnapshot(
        iteration=t,
        positions=positions.copy(),
        pbest_positions=pbest.copy(),
        pbest_fitness=pbest_f.copy(),
        gbest_position=gbest.copy(),
        gbest_fitness=gbest_f,
    )
