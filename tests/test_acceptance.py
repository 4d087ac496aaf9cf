"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line. Run `pytest tests/test_acceptance.py -s` to see them.

The full-scale benchmark profile is included under the `slow` marker
(deselected by default; enable with `-m slow`).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from windlssvm.experiment import ExperimentConfig, PERSISTENCE, run_experiment, write_report
from windlssvm.lssvm import Hyperparams, NumericError, predict, train
from windlssvm.metrics import mae, mape, rmse
from windlssvm.pipeline import SplitSpec, TimeSeries, make_lagged_dataset, mi_ranking, split
from windlssvm.swarm import (
    SearchSpace,
    SwarmConfig,
    copy_and_paste,
    cut_and_paste,
    denormalize,
    normalize,
    optimize_ebqpso,
    optimize_pso,
    optimize_qpso,
)
from windlssvm.synthetic import SyntheticSpec

from test_lssvm import build_kernel_matrix, kkt_oracle
from test_pipeline import entropy_oracle


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _dual_constraint_ok(model):
    a = model.dual_coeffs
    tol = 1e-6 * a.size * max(float(np.abs(a).max()), 1e-300)
    return abs(float(a.sum())) <= max(tol, 1e-12)


def _solver_instances(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 6))
        X = rng.uniform(0, 5, (n, d))
        y = rng.uniform(-5, 5, n)
        gamma = 10.0 ** rng.uniform(-3, 3)
        sigma2 = rng.uniform(0.5, 50.0)
        yield X, y, gamma, sigma2


def _interpolation_instances(rng, count):
    for _ in range(count):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(5, 31))
        for _ in range(500):
            X = rng.uniform(0, 5, (n, d))
            diff = X[:, None, :] - X[None, :, :]
            sq = (diff * diff).sum(-1)
            np.fill_diagonal(sq, np.inf)
            if sq.min() >= 0.25**2:
                break
        sigma2 = rng.uniform(0.5, 2.0)
        y = rng.uniform(-2, 2, n)
        yield X, y, sigma2


def test_solver_correctness_vs_dense_inversion_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_res, worst_diff = 0.0, 0.0
    for X, y, gamma, sigma2 in _solver_instances(rng, 100):
        model = train(X, y, Hyperparams(gamma, sigma2))
        n = len(y)
        K = build_kernel_matrix(X, sigma2)
        A = np.zeros((n + 1, n + 1))
        A[0, 1:] = 1.0
        A[1:, 0] = 1.0
        A[1:, 1:] = K + np.eye(n) / gamma
        rhs = np.concatenate(([0.0], y))
        sol = np.concatenate(([model.bias], model.dual_coeffs))
        worst_res = max(worst_res, np.linalg.norm(A @ sol - rhs) / np.linalg.norm(rhs))

        a_ref, b_ref, _ = kkt_oracle(X, y, gamma, sigma2)
        ref = np.concatenate(([b_ref], a_ref))
        scale = max(1.0, float(np.abs(ref).max()))
        worst_diff = max(worst_diff, float(np.abs(sol - ref).max()) / scale)
        assert _dual_constraint_ok(model)
    elapsed = time.perf_counter() - t0
    _report(
        "solver correctness: residual <= 1e-8 and oracle match <= 1e-8 on 100 instances, < 5 s",
        worst_res <= 1e-8 and worst_diff <= 1e-8 and elapsed < 5.0,
        f"worst residual {worst_res:.2e}, worst oracle diff {worst_diff:.2e}, {elapsed:.2f}s",
    )


def test_interpolation_limit():
    rng = np.random.default_rng(2024)
    hits = 0
    worst = 0.0
    for X, y, sigma2 in _interpolation_instances(rng, 100):
        try:
            model = train(X, y, Hyperparams(1e10, sigma2))
        except NumericError:
            continue
        assert _dual_constraint_ok(model)
        err = float(np.abs(predict(model, X) - y).max())
        worst = max(worst, err)
        hits += err <= 1e-4
    _report(
        "interpolation limit: gamma=1e10 reproduces targets within 1e-4 on >= 99/100",
        hits >= 99,
        f"{hits}/100 within tolerance, worst error {worst:.2e}",
    )


def test_dual_constraint_always_holds():
    rng = np.random.default_rng(31337)
    checked = 0
    for X, y, gamma, sigma2 in _solver_instances(rng, 40):
        assert _dual_constraint_ok(train(X, y, Hyperparams(gamma, sigma2)))
        checked += 1
    for X, y, sigma2 in _interpolation_instances(rng, 20):
        try:
            model = train(X, y, Hyperparams(1e10, sigma2))
        except NumericError:
            continue
        assert _dual_constraint_ok(model)
        checked += 1
    _report(
        "dual constraint: sum(a) within 1e-6*N*max|a| on every trained model",
        checked >= 55,
        f"{checked} models checked",
    )


def test_transposon_conservation_10k():
    # The operators edit a normalized pool in place: a one-row pool is the
    # within-row case, a two-row pool the cross-row one.
    rng = np.random.default_rng(777)
    for _ in range(10_000):
        d = int(rng.integers(2, 8))
        a = rng.random(d)
        if rng.random() < 0.5:
            pool = a[None, :].copy()
            cut_and_paste(pool, 0, 0, int(rng.integers(d)), int(rng.integers(d)))
            out = pool[0]
            assert sorted(out.tolist()) == sorted(a.tolist())
        else:
            b = rng.random(d)
            pool = np.vstack([a, b])
            cut_and_paste(pool, 0, 1, int(rng.integers(d)), int(rng.integers(d)))
            na, nb = pool
            assert sorted(np.concatenate([na, nb]).tolist()) == sorted(
                np.concatenate([a, b]).tolist()
            )
    for _ in range(10_000):
        d = int(rng.integers(2, 8))
        a = rng.random(d)
        if rng.random() < 0.5:
            pool = a[None, :].copy()
            copy_and_paste(pool, 0, 0, int(rng.integers(d)), int(rng.integers(d)))
            out = pool[0]
            assert set(out.tolist()) <= set(a.tolist())
        else:
            b = rng.random(d)
            pool = np.vstack([a, b])
            copy_and_paste(pool, 0, 1, int(rng.integers(d)), int(rng.integers(d)))
            na, nb = pool
            assert set(na.tolist()) | set(nb.tolist()) <= set(a.tolist()) | set(b.tolist())
    _report(
        "transposon conservation: 10k cut-and-paste preserve gene multisets, "
        "10k copy-and-paste stay within input genes",
        True,
        "20000 seeded applications",
    )


def test_normalize_denormalize_round_trip_10k():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 7))
        lower = rng.uniform(-100, 100, d)
        span = rng.uniform(0.1, 200.0, d)
        space = SearchSpace(lower, lower + span)
        x = lower + rng.random(d) * span
        back = denormalize(normalize(x, space), space)
        worst = max(worst, float(np.abs(back - x).max()))
        u = rng.random(d)
        back_u = normalize(denormalize(u, space), space)
        worst = max(worst, float(np.abs(back_u - u).max()))
    _report(
        "normalize/denormalize round trip: 10k points, max error <= 1e-12",
        worst <= 1e-12,
        f"max error {worst:.2e}",
    )


def test_optimizers_minimize_sphere():
    space = SearchSpace(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    sphere = lambda x: float(np.dot(x, x))
    t0 = time.perf_counter()
    results = {}
    for name, opt in (("pso", optimize_pso), ("qpso", optimize_qpso), ("ebqpso", optimize_ebqpso)):
        hits = sum(
            opt(sphere, space, SwarmConfig(max_iter=100, seed=s)).best_fitness < 1e-3
            for s in (11, 22, 33, 44, 55)
        )
        results[name] = hits
    elapsed = time.perf_counter() - t0
    _report(
        "sphere: PSO, QPSO and EBQPSO reach < 1e-3 on >= 4/5 seeds, < 10 s total",
        all(h >= 4 for h in results.values()) and elapsed < 10.0,
        f"hits {results}, {elapsed:.2f}s",
    )


def test_ebqpso_non_inferior_on_rastrigin():
    def rastrigin(x):
        return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))

    space = SearchSpace(np.array([-5.12, -5.12]), np.array([5.12, 5.12]))
    qpso_best, eb_best = [], []
    for seed in range(30):
        cfg = SwarmConfig(seed=seed)  # reference settings: M=20, T=50
        qpso_best.append(optimize_qpso(rastrigin, space, cfg).best_fitness)
        eb_best.append(optimize_ebqpso(rastrigin, space, cfg).best_fitness)
    med_q, med_e = float(np.median(qpso_best)), float(np.median(eb_best))
    _report(
        "EBQPSO non-inferiority: Rastrigin median over 30 paired seeds <= QPSO median",
        med_e <= med_q,
        f"ebqpso {med_e:.3e} vs qpso {med_q:.3e}",
    )


def test_optimizer_invariants_hold_everywhere():
    space = SearchSpace(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    sphere = lambda x: float(np.dot(x, x))
    checks = 0
    for opt in (optimize_pso, optimize_qpso, optimize_ebqpso):
        for seed in (0, 1, 2):
            seen = []

            def probe(x):
                seen.append(x.copy())
                return sphere(x)

            prev = {}

            def cb(snap):
                i = int(np.argmin(snap.pbest_fitness))
                assert snap.gbest_fitness == snap.pbest_fitness[i]
                np.testing.assert_array_equal(snap.gbest_position, snap.pbest_positions[i])
                if prev:
                    assert np.all(snap.pbest_fitness <= prev["pf"])
                prev["pf"] = snap.pbest_fitness.copy()

            cfg = SwarmConfig(max_iter=20, seed=seed)
            r1 = opt(probe, space, cfg, callback=cb)
            pts = np.array(seen)
            assert np.all(pts >= space.lower) and np.all(pts <= space.upper)
            r2 = opt(sphere, space, cfg)
            assert np.array_equal(r1.best_position, r2.best_position)
            assert r1.best_fitness == r2.best_fitness
            assert np.array_equal(r1.history, r2.history)
            assert np.all(np.diff(r1.history) <= 0)
            checks += 1
    _report(
        "optimizer invariants: pbest monotone, gbest = argmin(pbest), bounded positions, "
        "bit-identical reruns",
        checks == 9,
        f"{checks} optimizer runs audited",
    )


def test_metric_identities():
    ok = (
        abs(mae([2.0, 4.0], [1.0, 6.0]) - 1.5) <= 1e-12
        and abs(rmse([2.0, 4.0], [1.0, 6.0]) - math.sqrt(2.5)) <= 1e-12
        and abs(mape([2.0, 4.0], [1.0, 6.0]) - 50.0) <= 1e-12
        and mae([5.0], [3.0]) == 2.0
        and rmse([1.0], [1.0]) == 0.0
    )
    rng = np.random.default_rng(55)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        y = rng.uniform(-100, 100, n)
        yhat = rng.uniform(-100, 100, n)
        ok = ok and rmse(y, yhat) >= mae(y, yhat) - 1e-12
    _report(
        "metric identities: hand values match to 1e-12; rmse >= mae on 1000 random pairs",
        ok,
    )


def test_mutual_information_sanity():
    # Values repeating with period 100: lag 100's window is a copy of the
    # targets. The i.i.d. series' train block holds 10,000 rows.
    rng = np.random.default_rng(88)
    periodic = TimeSeries(np.resize(rng.normal(size=100), 5100))
    targets = split(make_lagged_dataset(periodic, 100), SplitSpec())[0].targets
    ident_diff = abs(dict(mi_ranking(periodic, 100, SplitSpec()))[100] - entropy_oracle(targets))
    indep = max(mi for _, mi in mi_ranking(TimeSeries(rng.normal(size=16_675)), 8, SplitSpec()))
    _report(
        "MI sanity: a lag that copies the targets has MI equal to their binned entropy to "
        "1e-9; i.i.d. MI < 0.02 at N=10k",
        ident_diff <= 1e-9 and indep < 0.02,
        f"identity diff {ident_diff:.2e}, largest independent MI {indep:.4f}",
    )


REDUCED_CONFIG = dict(
    synthetic=SyntheticSpec(n=1000, seed=7),
    n_lags=20,
    select_fraction=0.1,
    swarm=SwarmConfig(max_iter=15),
    trials=5,
    base_seed=42,
)


def _silent(*a, **k):
    pass


@pytest.fixture(scope="module")
def reduced_benchmark(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("reduced")
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig(**REDUCED_CONFIG), log=_silent)
    elapsed = time.perf_counter() - t0
    write_report(report, str(outdir))
    return report, str(outdir), elapsed


def _check_protocol_assertions(report):
    pers_rmse = report.aggregates[PERSISTENCE]["rmse"][0]
    eb_rows = [t for t in report.trials if t.strategy == "ebqpso"]
    wins = sum(1 for t in eb_rows if t.ok and t.metrics.rmse < pers_rmse)
    shaped = all(
        strat in report.aggregates
        and all(
            metric in report.aggregates[strat]
            and len(report.aggregates[strat][metric]) == 2
            for metric in ("rmse", "mae", "mape")
        )
        for strat in ("pso", "qpso", "ebqpso")
    )
    return wins, shaped, pers_rmse


def test_end_to_end_reduced_profile(reduced_benchmark):
    report, outdir, elapsed = reduced_benchmark
    wins, shaped, pers_rmse = _check_protocol_assertions(report)
    assert os.path.exists(os.path.join(outdir, "report.csv"))
    _report(
        "end-to-end reduced profile: EBQPSO beats persistence in >= 4/5 trials, "
        "three-strategy mean±std report, < 120 s",
        wins >= 4 and shaped and elapsed < 120.0,
        f"{wins}/5 wins vs persistence rmse {pers_rmse:.4f}, {elapsed:.1f}s",
    )


def test_end_to_end_determinism(reduced_benchmark, tmp_path):
    report1, outdir1, _ = reduced_benchmark
    report2 = run_experiment(ExperimentConfig(**REDUCED_CONFIG), log=_silent)
    outdir2 = str(tmp_path / "rerun")
    write_report(report2, outdir2)
    names1 = sorted(os.listdir(outdir1))
    names2 = sorted(os.listdir(outdir2))
    identical = names1 == names2 and all(
        Path(os.path.join(outdir1, n)).read_bytes() == Path(os.path.join(outdir2, n)).read_bytes()
        for n in names1
    )
    _report(
        "determinism: rerunning the reduced benchmark reproduces every report file "
        "byte for byte",
        identical,
        f"{len(names1)} files compared",
    )


@pytest.mark.slow
def test_end_to_end_full_profile(tmp_path):
    """Full-scale protocol: n=4393, 100 lags, 50 iterations, 5 trials.

    About 15–18 minutes serial on 2 vCPU by estimate (not measured end to
    end); run explicitly with `-m slow`.
    """
    config = ExperimentConfig(
        synthetic=SyntheticSpec(n=4393, seed=7),
        n_lags=100,
        select_fraction=0.1,
        swarm=SwarmConfig(max_iter=50),
        trials=5,
        base_seed=42,
    )
    report = run_experiment(config)
    write_report(report, str(tmp_path / "full"))
    wins, shaped, pers_rmse = _check_protocol_assertions(report)
    _report(
        "end-to-end full profile: EBQPSO beats persistence in >= 4/5 trials, "
        "three-strategy mean±std report",
        wins >= 4 and shaped,
        f"{wins}/5 wins vs persistence rmse {pers_rmse:.4f}",
    )
