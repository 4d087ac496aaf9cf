import csv
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from windlssvm import experiment, swarm
from windlssvm.cli import config_from_dict
from windlssvm.experiment import (
    OPTIMIZERS,
    ExperimentConfig,
    ExperimentReport,
    ModelMeta,
    PERSISTENCE,
    TrialResult,
    model_rows,
    prepare_data,
    recompute_aggregates,
    run_experiment,
    run_job,
    summary_table,
    write_report,
)
from windlssvm.data_io import load_csv, write_series_csv
from windlssvm.metrics import LssvmFitness, MetricReport
from windlssvm.pipeline import (
    SplitSpec,
    TimeSeries,
    make_lagged_dataset,
    split,
    take_lags,
)
from windlssvm.swarm import SearchSpace, SwarmConfig
from windlssvm.synthetic import SyntheticSpec, generate_synthetic

from test_pipeline import histogram2d_ranking


def tiny_config(**over):
    """Small but real experiment: seconds, not minutes."""
    base = dict(
        synthetic=SyntheticSpec(n=600, seed=3),
        n_lags=8,
        select_fraction=0.25,
        swarm=SwarmConfig(population=6, max_iter=4),
        trials=2,
        base_seed=10,
        strategies=("qpso",),
    )
    base.update(over)
    return ExperimentConfig(**base)


def silent(*args, **kwargs):
    pass


# A box deep in singular territory: gamma in [1e15, 1e16], sigma2 in
# [1e14, 1e15]. Every KKT solve in it fails.
SINGULAR_SPACE = SearchSpace(lower=np.log10([1e15, 1e14]), upper=np.log10([1e16, 1e15]))


class TestConfigValidation:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig()
        with pytest.raises(ValueError):
            ExperimentConfig(input_csv="x.csv", synthetic=SyntheticSpec())

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            tiny_config(strategies=("qpso", "annealing"))

    def test_duplicate_strategies(self):
        with pytest.raises(ValueError):
            tiny_config(strategies=("qpso", "qpso"))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            tiny_config(select_fraction=0.0)

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), 0.0])
    def test_bad_z_threshold(self, z):
        with pytest.raises(ValueError, match="z_threshold"):
            tiny_config(z_threshold=z)

    @pytest.mark.parametrize("field, value, complaint", [
        ("n_lags", 0, "n_lags must be positive"),
        ("strategies", (), "at least one strategy required"),
        ("trials", 0, "trials must be positive"),
        ("base_seed", -1, "base_seed must be non-negative"),
        ("n_lags", 600, "n_lags 600 must be below synthetic.n 600"),
    ])
    def test_bad_setting_refused(self, field, value, complaint):
        with pytest.raises(ValueError) as info:
            tiny_config(**{field: value})
        assert str(info.value) == complaint

    def test_swarm_seed_refused(self):
        # trial t seeds its swarm with base_seed + t, so a swarm seed would be ignored
        with pytest.raises(ValueError, match="base_seed"):
            tiny_config(swarm=SwarmConfig(population=6, max_iter=4, seed=3))


class TestConfigFromDict:
    def test_round_trip_fields(self):
        cfg = config_from_dict(
            {
                "synthetic": {"n": 700, "seed": 1},
                "n_lags": 12,
                "swarm": {"max_iter": 9, "population": 7},
                "split": {"train_frac": 0.5, "val_frac": 0.25},
                "strategies": ["qpso"],
                "trials": 1,
            }
        )
        assert cfg.synthetic.n == 700
        assert cfg.swarm.max_iter == 9
        assert cfg.split.train_frac == 0.5
        assert cfg.strategies == ("qpso",)

    def test_values_kept_as_read(self):
        # No float() pass: lists become tuples and numbers keep their type.
        cfg = config_from_dict({"synthetic": {}, "strategies": ["pso", "qpso"],
                                "z_threshold": 4, "select_fraction": 1, "input_csv": None})
        assert cfg.strategies == ("pso", "qpso")
        assert cfg.z_threshold == 4 and type(cfg.z_threshold) is int
        assert cfg.select_fraction == 1 and type(cfg.select_fraction) is int
        assert cfg.input_csv is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config keys.*bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ValueError, match="SwarmConfig"):
            config_from_dict({"swarm": {"poplation": 3}})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict([1, 2])


class TestPrepareData:
    def test_blocks_and_selection(self):
        data = prepare_data(tiny_config())
        total = data.train.n_rows + data.val.n_rows + data.test.n_rows
        assert total == 600 - 8
        assert len(data.model_meta.lags) == 2  # ceil(0.25 * 8)
        assert data.train.lag_indices == data.val.lag_indices == data.test.lag_indices
        assert data.persistence_pred.shape == data.test.targets.shape
        # Persistence is each test target's previous value: bit for bit the
        # lag-1 column of the test block of all n_lags lags.
        test_full = split(make_lagged_dataset(data.cleaned, 8), tiny_config().split)[2]
        assert data.persistence_pred.tobytes() == test_full.features[:, 0].tobytes()

    def test_selection_fit_on_train_block_only(self, tmp_path):
        # 600 samples, 8 lags: 592 rows, of which the first 355 train, so the
        # ranking reads v[0 : 8 + 355] and no later sample
        v = generate_synthetic(SyntheticSpec(n=600, seed=3)).values
        last = 8 + 355 - 1

        def ranking(values):
            path = str(tmp_path / "s.csv")
            write_series_csv(TimeSeries(values), path)
            return prepare_data(tiny_config(synthetic=None, input_csv=path)).ranking

        base = ranking(v)
        assert base == prepare_data(tiny_config()).ranking
        later = v.copy()
        later[last + 1:] = later[last + 1:][::-1] + 1.0
        assert ranking(later) == base
        # the last train target does count
        moved = v.copy()
        moved[last] = 0.0
        assert ranking(moved) != base

    def test_select_fraction_counts_exactly(self):
        # 0.07 * 100 is 7.000000000000001 as a float
        data = prepare_data(tiny_config(synthetic=SyntheticSpec(n=1000, seed=7),
                                        n_lags=100, select_fraction=0.07))
        assert len(data.model_meta.lags) == 7

    @pytest.mark.parametrize("source", ["blanks and spikes", "reduced profile"])
    def test_equals_the_lag_matrix_pipeline(self, tmp_path, source):
        if source == "reduced profile":
            cfg = ExperimentConfig(synthetic=SyntheticSpec(n=1000, seed=7), n_lags=20)
        else:
            # 1470 rows, 735 of them train: a calm at sample 3 and a gust on
            # the last train target's lag-1 sample give the lag windows
            # three ranges
            v = generate_synthetic(SyntheticSpec(n=1500, seed=11)).values
            rng = np.random.default_rng(5)
            v[rng.random(v.size) < 0.01] = np.nan
            v[rng.random(v.size) < 0.005] = 40.0
            v[3], v[30 + 735 - 2] = 1.0, 15.0
            path = str(tmp_path / "spiky.csv")
            write_series_csv(TimeSeries(v), path)
            cfg = ExperimentConfig(input_csv=path, n_lags=30, select_fraction=0.2,
                                   split=SplitSpec(0.5, 0.25))
        data = prepare_data(cfg)

        # The chain that built the whole lag matrix: lag every lag, split,
        # rank each train column, keep the top lags, split again.
        ds = make_lagged_dataset(data.cleaned, cfg.n_lags)
        train_all = split(ds, cfg.split)[0]
        ranking = histogram2d_ranking(train_all)
        selected = tuple(lag for lag, _ in ranking[:math.ceil(cfg.select_fraction * cfg.n_lags)])
        blocks = split(take_lags(ds, selected), cfg.split)
        if source == "blanks and spikes":
            assert data.n_replaced > 0 and data.cleaned.values[[3, 763]].tolist() == [1.0, 15.0]
            ranges = set(zip(train_all.features.min(axis=0), train_all.features.max(axis=0)))
            assert len(ranges) == 3

        assert data.ranking == ranking
        assert data.model_meta.lags == selected
        for got, want in zip((data.train, data.val, data.test), blocks):
            assert got.lag_indices == want.lag_indices
            assert got.features.tobytes() == want.features.tobytes()
            assert got.targets.tobytes() == want.targets.tobytes()
        persistence = np.concatenate((blocks[1].targets[-1:], blocks[2].targets[:-1]))
        assert data.persistence_pred.tobytes() == persistence.tobytes()

    @pytest.mark.parametrize("settings", [
        {},
        {"z_threshold": 3.0, "split": SplitSpec(0.5, 0.25)},
    ], ids=["default", "split-and-gate"])
    def test_model_rows_of_the_series_are_the_blocks(self, tmp_path, settings):
        # What predict and evaluate build from the training CSV and the
        # sidecar is, split, what the model was trained and scored on.
        v = generate_synthetic(SyntheticSpec(n=1000, seed=7)).values
        v[40], v[700] = np.nan, 60.0
        path = str(tmp_path / "series.csv")
        write_series_csv(TimeSeries(v), path)
        data = prepare_data(ExperimentConfig(input_csv=path, **settings))
        assert data.n_replaced >= 2
        meta = data.model_meta
        assert meta.split == settings.get("split", SplitSpec())
        blocks = split(model_rows(load_csv(path), meta), meta.split)
        for got, want in zip(blocks, (data.train, data.val, data.test)):
            assert got.lag_indices == want.lag_indices == meta.lags
            assert got.features.tobytes() == want.features.tobytes()
            assert got.targets.tobytes() == want.targets.tobytes()

    def test_peak_memory_below_lag_matrix(self):
        # 19900 rows of 100 lags: the lag matrix alone takes 15.9 MB
        cfg = ExperimentConfig(synthetic=SyntheticSpec(n=20000, seed=7), n_lags=100)
        tracemalloc.start()
        try:
            prepare_data(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 19900 * 100 * 8 / 2


_SPLIT = SplitSpec()


class TestModelMeta:
    # The sidecar reader's own cases are in test_cli's malformed-sidecar rows.
    @pytest.mark.parametrize("fields, complaint", [
        (((), 1, 20, 4.0, _SPLIT), "sidecar 'lags' must be distinct positive integers, got []"),
        (((0, 1), 1, 20, 4.0, _SPLIT),
         "sidecar 'lags' must be distinct positive integers, got [0, 1]"),
        (((1,), 1, 20, float("inf"), _SPLIT), "sidecar 'z_threshold' must be a finite positive real"),
        (((1,), 1, 20, float("nan"), _SPLIT), "sidecar 'z_threshold' must be a finite positive real"),
    ])
    def test_refused(self, fields, complaint):
        with pytest.raises(ValueError) as info:
            ModelMeta(*fields)
        assert str(info.value).startswith(complaint)


class TestRunExperiment:
    def test_single_trial_report_shape(self):
        cfg = tiny_config(trials=1)
        logged = []
        rep = run_experiment(cfg, log=logged.append)
        # 355 train rows: an 8 * 355 * 356-byte kernel buffer.
        assert logged[0].endswith(", kernel buffer 1.0 MB")
        strat_rows = [t for t in rep.trials if t.strategy == "qpso"]
        pers_rows = [t for t in rep.trials if t.strategy == PERSISTENCE]
        assert len(strat_rows) == 1 and len(pers_rows) == 1
        t = strat_rows[0]
        assert t.ok
        assert np.isfinite([t.metrics.rmse, t.metrics.mae, t.metrics.mape]).all()
        assert t.gamma > 0 and t.sigma2 > 0
        assert t.evaluations > 0
        assert t.wall_time is not None

    def test_deterministic_reports(self, tmp_path):
        cfg = tiny_config()
        rep1 = run_experiment(cfg, log=silent)
        rep2 = run_experiment(cfg, log=silent)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_report(rep1, str(d1))
        write_report(rep2, str(d2))
        files1 = sorted(os.listdir(d1))
        assert files1 == sorted(os.listdir(d2))
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_aggregates_recomputable_from_csv(self, tmp_path):
        rep = run_experiment(tiny_config(), log=silent)
        write_report(rep, str(tmp_path))
        by_strategy = {}
        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["kind"] == "trial" and row["error"] == "" and row["rmse"]:
                by_strategy.setdefault(row["strategy"], []).append(
                    {m: float(row[m]) for m in ("rmse", "mae", "mape")}
                )
        for row in rows:
            if row["kind"] in ("mean", "std"):
                vals = by_strategy[row["strategy"]]
                for m in ("rmse", "mae", "mape"):
                    arr = np.array([v[m] for v in vals])
                    expected = arr.mean() if row["kind"] == "mean" else (
                        arr.std(ddof=1) if arr.size > 1 else 0.0
                    )
                    assert abs(float(row[m]) - expected) <= 1e-12

    def test_predictions_row_count_is_test_block(self, tmp_path):
        cfg = tiny_config(trials=1)
        rep = run_experiment(cfg, log=silent)
        write_report(rep, str(tmp_path))
        with open(tmp_path / "predictions_qpso_0.csv") as fh:
            n_rows = sum(1 for _ in fh) - 1
        assert n_rows == rep.test_targets.size

    def test_predictions_file_is_predict_of_saved_model(self, tmp_path):
        from windlssvm import lssvm
        from windlssvm.data_io import load_model, write_forecast_csv

        cfg = tiny_config(trials=1)
        write_report(run_experiment(cfg, log=silent), str(tmp_path / "run"))
        model, _ = load_model(str(tmp_path / "run" / "model_qpso_0"))
        test = prepare_data(cfg).test
        direct = tmp_path / "direct.csv"
        write_forecast_csv(str(direct), test.targets, lssvm.predict(model, test.features))
        written = (tmp_path / "run" / "predictions_qpso_0.csv").read_bytes()
        assert written == direct.read_bytes()

    def test_model_files_written(self, tmp_path):
        from windlssvm.data_io import load_model

        cfg = tiny_config(trials=1)
        rep = run_experiment(cfg, log=silent)
        write_report(rep, str(tmp_path))
        model, meta = load_model(str(tmp_path / "model_qpso_0"))
        t = [t for t in rep.trials if t.strategy == "qpso"][0]
        assert model.hyperparams.gamma == t.gamma
        assert model.hyperparams.sigma2 == t.sigma2
        assert meta == rep.model_meta

    def test_failed_strategy_recorded_and_isolated(self, monkeypatch):
        # every solve in the box fails: the trial is recorded as an error,
        # persistence still reports
        monkeypatch.setattr(experiment, "HYPERPARAM_SPACE", SINGULAR_SPACE)
        cfg = tiny_config(trials=1, swarm=SwarmConfig(population=4, max_iter=2))
        rep = run_experiment(cfg, log=silent)
        failed = [t for t in rep.trials if t.strategy == "qpso"][0]
        assert not failed.ok
        assert "NumericError" in failed.error or "inf" in failed.error.lower()
        pers = [t for t in rep.trials if t.strategy == PERSISTENCE][0]
        assert pers.ok
        assert "qpso" not in rep.aggregates
        assert PERSISTENCE in rep.aggregates

    def test_paired_seeds_across_strategies(self):
        cfg = tiny_config(strategies=("qpso", "ebqpso"), trials=2)
        rep = run_experiment(cfg, log=silent)
        for trial in (0, 1):
            seeds = {t.seed for t in rep.trials if t.trial == trial}
            assert seeds == {cfg.base_seed + trial}

    def test_summary_table_lists_all_strategies(self):
        rep = run_experiment(tiny_config(strategies=("pso", "qpso")), log=silent)
        table = summary_table(rep)
        for name in ("pso", "qpso", PERSISTENCE, "RMSE", "MAE", "MAPE"):
            assert name in table


def _job(cfg, strategy, trial):
    """``run_job`` alone on freshly prepared data and a fresh fitness."""
    data = prepare_data(cfg)
    swarm_cfg = dataclasses.replace(cfg.swarm, seed=cfg.base_seed + trial)
    return run_job(data, LssvmFitness(data.train, data.val), experiment.HYPERPARAM_SPACE,
                   swarm_cfg, strategy, trial)


class TestRunJob:
    def test_job_alone_matches_run_experiment(self):
        cfg = tiny_config(strategies=("pso", "ebqpso"), trials=2)
        (recorded,) = [
            t for t in run_experiment(cfg, log=silent).trials
            if t.strategy == "ebqpso" and t.trial == 1
        ]
        alone = _job(cfg, "ebqpso", 1)
        assert alone.ok and recorded.ok
        for name in ("strategy", "trial", "seed", "gamma", "sigma2", "metrics", "evaluations",
                     "error"):
            assert getattr(alone, name) == getattr(recorded, name), name
        assert alone.predictions.tobytes() == recorded.predictions.tobytes()
        assert alone.model.dual_coeffs.tobytes() == recorded.model.dual_coeffs.tobytes()
        assert alone.model.bias == recorded.model.bias
        assert alone.model.hyperparams == recorded.model.hyperparams
        assert alone.model.support_inputs.tobytes() == recorded.model.support_inputs.tobytes()

    def test_singular_box_gives_error_result(self, monkeypatch):
        monkeypatch.setattr(experiment, "HYPERPARAM_SPACE", SINGULAR_SPACE)
        cfg = tiny_config(trials=1, swarm=SwarmConfig(population=4, max_iter=2))
        result = _job(cfg, "qpso", 0)
        assert not result.ok
        assert result.error.startswith("NumericError: ")
        assert (result.seed, result.trial, result.strategy) == (cfg.base_seed, 0, "qpso")
        assert result.metrics is result.model is result.predictions is None
        assert result.wall_time is not None


class TestFitnessStore:
    """A trial's fitness answers a (gamma, sigma2) it scored before from its
    store; every output is that of a run that solves on every call."""

    @staticmethod
    def _run(outdir, monkeypatch, store):
        fits, scored = [], []  # scored: the (gamma, sigma2) of each trial

        class Recording(LssvmFitness):
            def __init__(self, *args):
                super().__init__(*args)
                fits.append(self)

            def forget(self):
                super().forget()
                scored.append(set())

            def __call__(self, position):
                scored[-1].add(self.decode(position))
                if not store:
                    super().forget()
                return super().__call__(position)

        monkeypatch.setattr(experiment, "LssvmFitness", Recording)
        cfg = tiny_config(strategies=("pso", "qpso", "ebqpso"),
                          swarm=SwarmConfig(population=5, max_iter=3))
        report = run_experiment(cfg, log=silent)
        write_report(report, str(outdir))
        (fit,) = fits
        evaluations = sum(t.evaluations for t in report.trials if t.strategy != PERSISTENCE)
        return fit.training_set.counts, scored, evaluations

    def test_same_outputs_fewer_solves(self, tmp_path, monkeypatch):
        counts, scored, evaluations = self._run(tmp_path / "store", monkeypatch, store=True)
        counts_off, _, evaluations_off = self._run(tmp_path / "solve", monkeypatch, store=False)
        names = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "solve").iterdir())
        assert any(n.startswith("predictions_") for n in names)
        for name in names:
            assert (tmp_path / "store" / name).read_bytes() == (tmp_path / "solve" / name).read_bytes()

        # Two trials of three strategies: six winners retrained.
        assert len(scored) == 2
        assert evaluations == evaluations_off
        assert counts["fast"] + counts["dense"] == sum(map(len, scored)) + 6
        assert counts_off["fast"] + counts_off["dense"] == evaluations + 6
        assert sum(map(len, scored)) < evaluations


class TestReportRows:
    """report.csv rows that a real run rarely writes, pinned line by line."""

    def _write(self, tmp_path, trials):
        rep = ExperimentReport(
            trials=trials,
            aggregates=recompute_aggregates(trials),
            selected_lags=(1, 2),
            n_replaced=0,
            test_targets=np.array([1.0, 2.0]),
            model_meta=ModelMeta((1, 2), 2, 20, 4.0, SplitSpec()),
        )
        write_report(rep, str(tmp_path))
        return (tmp_path / "report.csv").read_text().splitlines()

    def test_failed_trial_and_persistence_rows(self, tmp_path):
        failed = TrialResult("qpso", 0, 10, error="NumericError: pivot 0.0 at row 3")
        pers = TrialResult(
            PERSISTENCE, 0, 10, metrics=MetricReport(mae=0.5, rmse=0.75, mape=6.25), evaluations=0
        )
        assert self._write(tmp_path, [failed, pers]) == [
            "kind,strategy,trial,seed,gamma,sigma2,rmse,mae,mape,evaluations,error",
            "trial,qpso,0,10,,,,,,,NumericError: pivot 0.0 at row 3",
            "trial,persistence,0,10,,,0.75,0.5,6.25,0,",
            "mean,persistence,,,,,0.75,0.5,6.25,,",
            "std,persistence,,,,,0.0,0.0,0.0,,",
        ]
        assert sorted(os.listdir(tmp_path)) == ["report.csv"]

    def test_tuned_trial_row_with_undefined_mape(self, tmp_path):
        tuned = TrialResult(
            "pso", 1, 11, gamma=100.0, sigma2=2.5,
            metrics=MetricReport(mae=0.25, rmse=0.5, mape=None), evaluations=36,
        )
        assert self._write(tmp_path, [tuned])[1:] == [
            "trial,pso,1,11,100.0,2.5,0.5,0.25,,36,",
            "mean,pso,,,,,0.5,0.25,,,",
            "std,pso,,,,,0.0,0.0,,,",
        ]


class TestAggregates:
    def test_single_trial_std_zero(self):
        rep = run_experiment(tiny_config(trials=1), log=silent)
        for metric, (mean, std) in rep.aggregates["qpso"].items():
            assert std == 0.0
            assert np.isfinite(mean)

    def test_recompute_matches(self):
        rep = run_experiment(tiny_config(), log=silent)
        assert recompute_aggregates(rep.trials) == rep.aggregates

    def test_undefined_mape_left_out(self):
        def trial(mape):
            return TrialResult("qpso", 0, 0, metrics=MetricReport(mae=1.0, rmse=2.0, mape=mape))

        agg = recompute_aggregates([trial(None), trial(4.0), trial(6.0)])["qpso"]
        assert agg["mape"] == (5.0, pytest.approx(np.sqrt(2.0)))
        assert agg["rmse"] == (2.0, 0.0)
        assert recompute_aggregates([trial(None)])["qpso"]["mape"] == (None, None)


@pytest.mark.parametrize("strategy", sorted(OPTIMIZERS))
def test_optimizer_call_contract(strategy, monkeypatch):
    # Benchmark harnesses wrap each OPTIMIZERS entry, call it positionally,
    # count the per-point fitness calls and read pbest_fitness per iteration.
    monkeypatch.setattr(swarm, "JUMPING_RATE", 1.0)
    monkeypatch.setattr(swarm, "BREEDING_PERIOD", 2)
    calls = []

    def fitness(x):
        calls.append(x.copy())
        return np.nan if x[0] > 0.8 else float(np.sum((x - 0.3) ** 2))

    space = SearchSpace(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    config = SwarmConfig(population=5, max_iter=6, seed=4)
    snaps = []
    result = OPTIMIZERS[strategy](fitness, space, config, snaps.append)
    assert len(calls) == result.evaluations >= config.population * (config.max_iter + 1)
    assert len(snaps) == config.max_iter
    assert [s.iteration for s in snaps] == list(range(1, config.max_iter + 1))
    assert all(s.pbest_fitness.shape == (config.population,) for s in snaps)
