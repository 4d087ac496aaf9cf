import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from windlssvm.swarm import (
    PSO_COGNITIVE,
    PSO_INERTIA,
    PSO_SOCIAL,
    OptimizeResult,
    SearchSpace,
    SwarmSnapshot,
    SwarmConfig,
    ce_coefficient,
    compute_mbest,
    copy_and_paste,
    cut_and_paste,
    denormalize,
    normalize,
    optimize_ebqpso,
    optimize_pso,
    optimize_qpso,
    qpso_update_position,
    transposon_operator,
)

SPHERE_SPACE = SearchSpace(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))


def sphere(x):
    return float(np.dot(x, x))


class ScriptedRng:
    """Replays queued uniform and integer draws; fails loudly when exhausted."""

    def __init__(self, uniforms=(), integers=()):
        self.uniforms = list(uniforms)
        self.ints = list(integers)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        return np.array([self.uniforms.pop(0) for _ in range(size)])

    def integers(self, high):
        return self.ints.pop(0)


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            SearchSpace(np.array([1.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            SearchSpace(np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SearchSpace(np.array([-np.inf]), np.array([0.0]))

    def test_clip_and_contains(self):
        sp = SearchSpace(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(sp.clip(np.array([2.0, -5.0])), [1.0, -1.0])
        assert sp.contains(np.array([0.5, 0.0]))
        assert not sp.contains(np.array([1.5, 0.0]))


class TestMbest:
    def test_mean_of_two(self):
        np.testing.assert_array_equal(compute_mbest([[1.0, 3.0], [3.0, 5.0]]), [2.0, 4.0])

    def test_single_particle(self):
        np.testing.assert_array_equal(compute_mbest([[7.0, -1.0]]), [7.0, -1.0])

    def test_three_particles(self):
        np.testing.assert_array_equal(
            compute_mbest([[0.0, 0.0], [0.0, 0.0], [3.0, 6.0]]), [1.0, 2.0]
        )

    def test_empty_swarm(self):
        with pytest.raises(ValueError):
            compute_mbest(np.empty((0, 2)))


class TestCeCoefficient:
    def test_schedule_endpoints(self):
        assert ce_coefficient(0, 50) == 1.0
        assert ce_coefficient(50, 50) == 0.5

    def test_schedule_midpoint(self):
        assert ce_coefficient(25, 50) == pytest.approx(0.75)

    def test_fixed_alpha(self):
        for t in (0, 3, 50):
            assert ce_coefficient(t, 50, alpha=0.5) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ce_coefficient(51, 50)
        with pytest.raises(ValueError):
            ce_coefficient(-1, 50)


class TestQpsoUpdate:
    def test_fixed_point_any_seed(self):
        x = np.array([1.25, -3.5])
        for seed in range(10):
            rng = np.random.default_rng(seed)
            new = qpso_update_position(x, x, x, x, 0.8, SPHERE_SPACE, rng)
            np.testing.assert_array_equal(new, x)

    def test_phi_one_gives_pbest(self):
        # phi=1, u=1 (ln term zero): the attractor collapses onto pbest
        pbest = np.array([5.0, 5.0])
        gbest = np.array([1.0, 1.0])
        x = np.array([2.0, 2.0])
        rng = ScriptedRng(uniforms=[1.0, 1.0, 0.0, 0.0, 0.3, 0.7])
        sp = SearchSpace(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
        new = qpso_update_position(x, pbest, gbest, compute_mbest([x]), 1.0, sp, rng)
        np.testing.assert_array_equal(new, pbest)

    def test_replay_oracle(self):
        seed = 314
        pbest = np.array([0.0, 0.0])
        gbest = np.array([1.0, 1.0])
        mbest = np.array([0.5, 0.5])
        x = np.array([0.0, 0.0])
        got = qpso_update_position(x, pbest, gbest, mbest, 1.0, SPHERE_SPACE,
                                   np.random.default_rng(seed))
        # independent scalar recomputation from the same recorded draws
        rng = np.random.default_rng(seed)
        phi = rng.random(2)
        u = 1.0 - rng.random(2)
        s = rng.random(2)
        expected = np.empty(2)
        for j in range(2):
            p_c = phi[j] * pbest[j] + (1.0 - phi[j]) * gbest[j]
            step = 1.0 * abs(mbest[j] - x[j]) * math.log(1.0 / u[j])
            expected[j] = p_c + (step if s[j] < 0.5 else -step)
        expected = np.clip(expected, SPHERE_SPACE.lower, SPHERE_SPACE.upper)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_result_clamped(self):
        rng = np.random.default_rng(0)
        sp = SearchSpace(np.array([-1.0]), np.array([1.0]))
        for _ in range(100):
            new = qpso_update_position(
                np.array([0.9]), np.array([-0.9]), np.array([0.9]), np.array([-0.5]),
                2.0, sp, rng,
            )
            assert sp.contains(new)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qpso_update_position(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2),
                                 1.0, SPHERE_SPACE, np.random.default_rng(0))

    def test_swarm_matches_row_by_row(self):
        rng = np.random.default_rng(3)
        x = SPHERE_SPACE.lower + rng.random((6, 2)) * SPHERE_SPACE.span
        pbest = SPHERE_SPACE.lower + rng.random((6, 2)) * SPHERE_SPACE.span
        gbest, mbest = pbest[2], compute_mbest(pbest)
        for seed in range(5):
            got = qpso_update_position(x, pbest, gbest, mbest, 0.9, SPHERE_SPACE,
                                       np.random.default_rng(seed))
            row_rng = np.random.default_rng(seed)
            expected = np.array([
                qpso_update_position(x[i], pbest[i], gbest, mbest, 0.9, SPHERE_SPACE, row_rng)
                for i in range(6)
            ])
            assert got.shape == (6, 2)
            assert np.array_equal(got, expected)

    def test_swarm_pbest_shape_mismatch(self):
        with pytest.raises(ValueError):
            qpso_update_position(np.zeros((3, 2)), np.zeros(2), np.zeros(2), np.zeros(2),
                                 1.0, SPHERE_SPACE, np.random.default_rng(0))
        with pytest.raises(ValueError):
            qpso_update_position(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros(2),
                                 1.0, SPHERE_SPACE, np.random.default_rng(0))


class TestNormalization:
    SP = SearchSpace(np.array([-4.0, 0.0]), np.array([6.0, 10.0]))

    def test_endpoints(self):
        np.testing.assert_array_equal(normalize(self.SP.lower, self.SP), [0.0, 0.0])
        np.testing.assert_array_equal(normalize(self.SP.upper, self.SP), [1.0, 1.0])

    def test_midpoint(self):
        mid = (self.SP.lower + self.SP.upper) / 2
        np.testing.assert_array_equal(normalize(mid, self.SP), [0.5, 0.5])

    def test_denormalize_endpoints(self):
        np.testing.assert_array_equal(denormalize(np.zeros(2), self.SP), self.SP.lower)
        np.testing.assert_array_equal(denormalize(np.ones(2), self.SP), self.SP.upper)

    def test_denormalize_half_on_asymmetric_bounds(self):
        sp = SearchSpace(np.array([-4.0]), np.array([6.0]))
        assert denormalize(np.array([0.5]), sp)[0] == 1.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_round_trip(self, fracs):
        x = self.SP.lower + np.array(fracs) * self.SP.span
        np.testing.assert_allclose(denormalize(normalize(x, self.SP), self.SP), x, atol=1e-12)
        u = np.array(fracs)
        np.testing.assert_allclose(normalize(denormalize(u, self.SP), self.SP), u, atol=1e-12)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([7.0, 5.0]), self.SP)
        with pytest.raises(ValueError):
            denormalize(np.array([1.1, 0.0]), self.SP)


class TestCutAndPaste:
    def test_same_row_swaps_two_genes(self):
        np.testing.assert_array_equal(
            cut_and_paste(np.array([1.0, 2.0]), None, 0, 1), [2.0, 1.0]
        )

    def test_same_row_src_equals_dst_unchanged(self):
        row = np.array([3.0, 4.0])
        np.testing.assert_array_equal(cut_and_paste(row, None, 1, 1), row)

    def test_cross_row_gene_exchange(self):
        a, b = cut_and_paste(np.array([10.0, 20.0]), np.array([30.0, 40.0]), 0, 1)
        np.testing.assert_array_equal(a, [40.0, 20.0])
        np.testing.assert_array_equal(b, [30.0, 10.0])

    def test_longer_row_close_ranks(self):
        out = cut_and_paste(np.array([1.0, 2.0, 3.0]), None, 0, 2)
        np.testing.assert_array_equal(out, [2.0, 3.0, 1.0])

    def test_inputs_not_mutated(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        cut_and_paste(a, b, 0, 0)
        cut_and_paste(a, None, 0, 1)
        np.testing.assert_array_equal(a, [1.0, 2.0])
        np.testing.assert_array_equal(b, [3.0, 4.0])

    def test_invalid_locus(self):
        with pytest.raises(ValueError):
            cut_and_paste(np.array([1.0, 2.0]), None, 2, 0)

    @given(
        arrays(np.float64, 5, elements=st.floats(-10, 10)),
        arrays(np.float64, 5, elements=st.floats(-10, 10)),
        st.integers(0, 4), st.integers(0, 4), st.booleans(),
    )
    def test_multiset_conserved(self, a, b, src, dst, same_row):
        if same_row:
            out = cut_and_paste(a, None, src, dst)
            assert sorted(out) == sorted(a)
        else:
            na, nb = cut_and_paste(a, b, src, dst)
            assert sorted(np.concatenate([na, nb])) == sorted(np.concatenate([a, b]))


class TestCopyAndPaste:
    def test_same_row_src_equals_dst_unchanged(self):
        row = np.array([5.0, 6.0])
        np.testing.assert_array_equal(copy_and_paste(row, None, 0, 0), row)

    def test_cross_row_overwrite(self):
        a, b = copy_and_paste(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0, 0)
        np.testing.assert_array_equal(a, [1.0, 2.0])
        np.testing.assert_array_equal(b, [1.0, 4.0])

    def test_same_row_duplicate(self):
        np.testing.assert_array_equal(
            copy_and_paste(np.array([1.0, 2.0]), None, 1, 0), [2.0, 2.0]
        )

    @given(
        arrays(np.float64, 4, elements=st.floats(-10, 10)),
        arrays(np.float64, 4, elements=st.floats(-10, 10)),
        st.integers(0, 3), st.integers(0, 3), st.booleans(),
    )
    def test_closure(self, a, b, src, dst, same_row):
        pool = set(a) | set(b)
        if same_row:
            out = set(copy_and_paste(a, None, src, dst))
            assert out <= set(a)
        else:
            na, nb = copy_and_paste(a, b, src, dst)
            assert set(na) | set(nb) <= pool


class TestTransposonOperator:
    SP = SearchSpace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def _pool(self, rng, rows=5):
        return rng.random((rows, 2))

    def test_zero_jumping_rate_is_identity(self):
        rng = np.random.default_rng(1)
        pool = self._pool(rng)
        cfg = SwarmConfig(population=4, jumping_rate=0.0)
        out = transposon_operator(pool, cfg, self.SP, rng)
        assert np.array_equal(out, pool)

    def test_input_never_mutated(self):
        rng = np.random.default_rng(2)
        pool = self._pool(rng)
        before = pool.copy()
        transposon_operator(pool, SwarmConfig(population=4, jumping_rate=1.0), self.SP, rng)
        assert np.array_equal(pool, before)

    def test_untouched_rows_bit_identical(self):
        # script: only row 0 activates, same-row cut-and-paste of loci (0, 1)
        pool = np.array([[0.2, 0.8], [0.3, 0.4], [0.5, 0.6]])
        rng = ScriptedRng(
            uniforms=[0.1, 0.1, 0.9, 0.5, 0.5],  # activate row0; c2=ceil(.1*3)=1; cut
            integers=[0, 1],
        )
        cfg = SwarmConfig(population=2, jumping_rate=0.2)
        out = transposon_operator(pool, cfg, self.SP, rng)
        np.testing.assert_array_equal(out[0], [0.8, 0.2])  # unit box: swap survives denorm
        assert np.array_equal(out[1], pool[1])
        assert np.array_equal(out[2], pool[2])

    def test_same_row_copy_paste_semantics(self):
        pool = np.array([[0.2, 0.8], [0.3, 0.4], [0.5, 0.6]])
        rng = ScriptedRng(
            uniforms=[0.1, 0.1, 0.2, 0.5, 0.5],  # activate row0; c2=1 (itself); copy
            integers=[0, 1],  # src locus 0, dst locus 1
        )
        cfg = SwarmConfig(population=2, jumping_rate=0.2)
        out = transposon_operator(pool, cfg, self.SP, rng)
        np.testing.assert_array_equal(out[0], [0.2, 0.2])

    def test_cross_row_normalized_transfer(self):
        # gene moves between dimensions with different scales: relative
        # position is what transfers
        sp = SearchSpace(np.array([0.0, 10.0]), np.array([1.0, 20.0]))
        pool = np.array([[0.25, 18.0], [0.75, 12.0], [0.5, 15.0]])
        rng = ScriptedRng(
            uniforms=[0.1, 0.5, 0.2, 0.9, 0.9],  # activate row0; c2=ceil(.5*3)=2; copy
            integers=[0, 1],  # src locus 0 of row0, dst locus 1 of row1
        )
        cfg = SwarmConfig(population=2, jumping_rate=0.2)
        out = transposon_operator(pool, cfg, sp, rng)
        # row0 gene0 sits at 25% of its axis; row1 gene1 lands at 25% of (10, 20)
        np.testing.assert_allclose(out[1], [0.75, 12.5], atol=1e-12)
        np.testing.assert_allclose(out[0], pool[0], atol=1e-12)
        assert np.array_equal(out[2], pool[2])

    def test_all_rows_stay_in_bounds(self):
        sp = SearchSpace(np.array([-3.0, 2.0]), np.array([4.0, 9.0]))
        rng = np.random.default_rng(17)
        pool = sp.lower + rng.random((8, 2)) * sp.span
        cfg = SwarmConfig(population=7, jumping_rate=1.0)
        out = transposon_operator(pool, cfg, sp, rng)
        assert np.all(out >= sp.lower) and np.all(out <= sp.upper)

    def test_out_of_bounds_pool_rejected(self):
        cfg = SwarmConfig(population=1)
        with pytest.raises(ValueError):
            transposon_operator(np.array([[2.0, 0.5], [0.5, 0.5]]), cfg, self.SP,
                                np.random.default_rng(0))


def _invariant_callback(space, record):
    def cb(snap):
        assert np.all(snap.positions >= space.lower) and np.all(snap.positions <= space.upper)
        assert np.all(snap.pbest_positions >= space.lower)
        assert np.all(snap.pbest_positions <= space.upper)
        i = int(np.argmin(snap.pbest_fitness))
        assert snap.gbest_fitness == snap.pbest_fitness[i]
        np.testing.assert_array_equal(snap.gbest_position, snap.pbest_positions[i])
        if record:
            prev = record[-1]
            assert np.all(snap.pbest_fitness <= prev + 1e-300)
        record.append(snap.pbest_fitness.copy())
    return cb


@pytest.mark.parametrize("optimize", [optimize_pso, optimize_qpso, optimize_ebqpso])
class TestOptimizers:
    def test_sphere_converges(self, optimize):
        hits = 0
        for seed in (11, 22, 33, 44, 55):
            cfg = SwarmConfig(max_iter=100, seed=seed)
            res = optimize(sphere, SPHERE_SPACE, cfg)
            hits += res.best_fitness < 1e-3
        assert hits >= 4

    def test_history_contract(self, optimize):
        cfg = SwarmConfig(max_iter=30, seed=7)
        res = optimize(sphere, SPHERE_SPACE, cfg)
        assert len(res.history) == 30
        assert np.all(np.diff(res.history) <= 0)
        assert res.best_fitness == res.history.min() == res.history[-1]
        assert SPHERE_SPACE.contains(res.best_position)

    def test_single_iteration_history(self, optimize):
        res = optimize(sphere, SPHERE_SPACE, SwarmConfig(max_iter=1, seed=1))
        assert len(res.history) == 1

    def test_constant_fitness(self, optimize):
        res = optimize(lambda x: 42.0, SPHERE_SPACE, SwarmConfig(max_iter=5, seed=3))
        assert res.best_fitness == 42.0
        assert SPHERE_SPACE.contains(res.best_position)

    def test_deterministic_rerun(self, optimize):
        cfg = SwarmConfig(max_iter=20, seed=99)
        r1 = optimize(sphere, SPHERE_SPACE, cfg)
        r2 = optimize(sphere, SPHERE_SPACE, cfg)
        assert np.array_equal(r1.best_position, r2.best_position)
        assert r1.best_fitness == r2.best_fitness
        assert np.array_equal(r1.history, r2.history)
        assert r1.evaluations == r2.evaluations

    def test_invariants_every_iteration(self, optimize):
        record = []
        cfg = SwarmConfig(max_iter=25, seed=5, population=12)
        optimize(sphere, SPHERE_SPACE, cfg, callback=_invariant_callback(SPHERE_SPACE, record))
        assert len(record) == 25

    def test_all_evaluated_positions_in_bounds(self, optimize):
        seen = []

        def probe(x):
            seen.append(x.copy())
            return sphere(x)

        optimize(probe, SPHERE_SPACE, SwarmConfig(max_iter=15, seed=13))
        pts = np.array(seen)
        assert np.all(pts >= SPHERE_SPACE.lower) and np.all(pts <= SPHERE_SPACE.upper)

    def test_nonfinite_fitness_rejected(self, optimize):
        def spiky(x):
            return np.nan if x[0] > 0 else sphere(x)

        res = optimize(spiky, SPHERE_SPACE, SwarmConfig(max_iter=10, seed=2))
        assert res.nonfinite_evals > 0
        assert np.isfinite(res.best_fitness)


class TestEbqpsoSpecifics:
    def test_lam_beyond_horizon_matches_qpso(self):
        cfg = SwarmConfig(max_iter=12, seed=31, lam=13)
        r_eb = optimize_ebqpso(sphere, SPHERE_SPACE, cfg)
        r_q = optimize_qpso(sphere, SPHERE_SPACE, cfg)
        assert np.array_equal(r_eb.best_position, r_q.best_position)
        assert r_eb.best_fitness == r_q.best_fitness
        assert np.array_equal(r_eb.history, r_q.history)
        assert r_eb.evaluations == r_q.evaluations

    def test_zero_jumping_rate_breeding_is_noop(self):
        cfg = SwarmConfig(max_iter=12, seed=31, jumping_rate=0.0)
        record = []
        res = optimize_ebqpso(sphere, SPHERE_SPACE, cfg,
                              callback=_invariant_callback(SPHERE_SPACE, record))
        assert np.isfinite(res.best_fitness)

    def test_breeding_adds_evaluations(self):
        cfg = SwarmConfig(max_iter=30, seed=4, jumping_rate=1.0, lam=2)
        r_eb = optimize_ebqpso(sphere, SPHERE_SPACE, cfg)
        r_q = optimize_qpso(sphere, SPHERE_SPACE, cfg)
        assert r_eb.evaluations > r_q.evaluations

    def test_single_particle_swarm(self):
        cfg = SwarmConfig(population=1, max_iter=10, seed=8)
        res = optimize_ebqpso(sphere, SPHERE_SPACE, cfg)
        assert SPHERE_SPACE.contains(res.best_position)


class TestSwarmConfig:
    def test_reference_defaults(self):
        cfg = SwarmConfig()
        assert cfg.population == 20
        assert cfg.max_iter == 50
        assert cfg.jumping_rate == 0.2
        assert cfg.n_transposons == 1
        assert cfg.lam == 3
        assert cfg.ce_alpha is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population=0),
            dict(jumping_rate=1.5),
            dict(lam=0),
            dict(ce_alpha=0.0),
            dict(ce_alpha=-1.0),
            dict(seed=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SwarmConfig(**kwargs)


# ---------------------------------------------------------------------------
# Per-particle reference loops: the optimizers as they were written before
# the swarm was moved and scored as one batch per iteration, built from the
# public helpers. The batched optimizers must reproduce them bit for bit.


def _ref_counting(fn):
    state = {"count": 0, "nonfinite": 0}

    def fit(x):
        state["count"] += 1
        v = float(fn(x))
        if not np.isfinite(v):
            state["nonfinite"] += 1
            return np.inf
        return v

    return fit, state


def _ref_run(fitness, space, config, callback, breed, pso):
    rng = np.random.default_rng(config.seed)
    fit, state = _ref_counting(fitness)
    m, d = config.population, space.dimension
    positions = space.lower + rng.random((m, d)) * space.span
    pbest = positions.copy()
    pbest_f = np.array([fit(positions[i]) for i in range(m)])
    velocities = np.zeros((m, d))
    vmax = 0.5 * space.span
    g = int(np.argmin(pbest_f))
    history = []
    for t in range(1, config.max_iter + 1):
        alpha = ce_coefficient(t, config.max_iter, config.ce_alpha)
        mbest = compute_mbest(pbest)
        if breed and t % config.lam == 0:
            bred = transposon_operator(np.vstack([pbest, pbest[g][None, :]]), config, space, rng)
            for i in range(m):
                if np.array_equal(bred[i], pbest[i]):
                    continue
                fx = fit(bred[i])
                if fx < pbest_f[i]:
                    pbest[i] = bred[i]
                    pbest_f[i] = fx
            g = int(np.argmin(pbest_f))
        gbest = pbest[g].copy()
        for i in range(m):
            if pso:
                r1 = rng.random(d)
                r2 = rng.random(d)
                velocities[i] = (
                    PSO_INERTIA * velocities[i]
                    + PSO_COGNITIVE * r1 * (pbest[i] - positions[i])
                    + PSO_SOCIAL * r2 * (gbest - positions[i])
                )
                np.clip(velocities[i], -vmax, vmax, out=velocities[i])
                positions[i] = space.clip(positions[i] + velocities[i])
            else:
                positions[i] = qpso_update_position(
                    positions[i], pbest[i], gbest, mbest, alpha, space, rng
                )
            fx = fit(positions[i])
            if fx < pbest_f[i]:
                pbest[i] = positions[i]
                pbest_f[i] = fx
        g = int(np.argmin(pbest_f))
        history.append(float(pbest_f[g]))
        if callback is not None:
            callback(SwarmSnapshot(t, positions.copy(), pbest.copy(), pbest_f.copy(),
                                   pbest[g].copy(), float(pbest_f[g])))
    return OptimizeResult(pbest[g].copy(), float(pbest_f[g]), np.array(history),
                          state["count"], state["nonfinite"])


REFERENCES = {
    optimize_pso: dict(breed=False, pso=True),
    optimize_qpso: dict(breed=False, pso=False),
    optimize_ebqpso: dict(breed=True, pso=False),
}


def _rastrigin(x):
    return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))


def _nan_right_half(x):
    return np.nan if x[0] > 1.0 else _rastrigin(x)


def _recorded(optimize, fitness, space, config, **ref):
    points, snaps = [], []

    def probe(x):
        points.append(np.array(x, dtype=float))
        return fitness(x)

    if ref:
        res = _ref_run(probe, space, config, snaps.append, **ref)
    else:
        res = optimize(probe, space, config, snaps.append)
    return res, points, snaps


@pytest.mark.parametrize("optimize", list(REFERENCES), ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "fitness, kwargs",
    [
        (sphere, dict(population=7, max_iter=12)),
        (_rastrigin, dict(population=5, max_iter=9, jumping_rate=1.0, lam=1)),
        (_rastrigin, dict(population=1, max_iter=8, jumping_rate=1.0, lam=2)),
        (_rastrigin, dict(population=6, max_iter=10, ce_alpha=0.7,
                          n_transposons=3, jumping_rate=0.6, lam=2)),
        (_nan_right_half, dict(population=8, max_iter=10, jumping_rate=0.5, lam=3)),
    ],
    ids=["sphere", "breed-every-iteration", "one-particle", "fixed-ce-3-transposons", "nan"],
)
@pytest.mark.parametrize("seed", [0, 17, 123])
def test_batched_loop_matches_per_particle_reference(optimize, fitness, kwargs, seed):
    space = SearchSpace(np.array([-5.12, -5.12, -2.0]), np.array([5.12, 5.12, 3.0]))
    config = SwarmConfig(seed=seed, **kwargs)
    got, got_points, got_snaps = _recorded(optimize, fitness, space, config)
    ref, ref_points, ref_snaps = _recorded(optimize, fitness, space, config,
                                           **REFERENCES[optimize])

    assert np.array_equal(got.best_position, ref.best_position)
    assert got.best_fitness == ref.best_fitness
    assert np.array_equal(got.history, ref.history)
    assert (got.evaluations, got.nonfinite_evals) == (ref.evaluations, ref.nonfinite_evals)
    assert got.evaluations == len(got_points)
    assert len(got_points) == len(ref_points)
    for a, b in zip(got_points, ref_points):
        assert np.array_equal(a, b)
    assert len(got_snaps) == len(ref_snaps) == config.max_iter
    for a, b in zip(got_snaps, ref_snaps):
        assert a.iteration == b.iteration
        for name in ("positions", "pbest_positions", "pbest_fitness", "gbest_position"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.gbest_fitness == b.gbest_fitness
    if fitness is _nan_right_half:
        assert ref.nonfinite_evals > 0
