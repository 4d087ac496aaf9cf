"""Multi-trial benchmark runner: pipeline, tuning, retraining, report emission.

Each trial reruns the optimizer with seed = base_seed + trial index; the data
pipeline itself is deterministic, so trials differ only through the optimizer
RNG. Seeds are shared across strategies, making the comparison paired. Report
files carry no wall-clock times (those are logged to stdout), so rerunning an
identical config reproduces every output file byte for byte.

``model_rows`` is the one place that builds a model's input rows from a
series and the model's sidecar: training (``prepare_data``), ``predict`` and
``evaluate`` all call it, and it lags only the sidecar's lags.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import lssvm
from .data_io import ModelMeta, atomic_write_text, save_model, write_forecast_csv
from .metrics import HYPERPARAM_SPACE, LssvmFitness, MetricReport, format_mape, metric_report
from .pipeline import (
    LaggedDataset,
    SplitSpec,
    TimeSeries,
    check_z_threshold,
    clean,
    make_lagged_dataset,
    mi_ranking,
    split,
    take_lags,  # noqa: F401 -- not called here; perfbench's traced runs patch it
    top_lags,
)
from .swarm import SwarmConfig, optimize_ebqpso, optimize_pso, optimize_qpso
from .synthetic import SyntheticSpec, generate_synthetic

OPTIMIZERS = {
    "pso": optimize_pso,
    "qpso": optimize_qpso,
    "ebqpso": optimize_ebqpso,
}

PERSISTENCE = "persistence"

REPORT_COLUMNS = (
    "kind",
    "strategy",
    "trial",
    "seed",
    "gamma",
    "sigma2",
    "rmse",
    "mae",
    "mape",
    "evaluations",
    "error",
)


@dataclass
class ExperimentConfig:
    input_csv: str | None = None
    synthetic: SyntheticSpec | None = None
    n_lags: int = 100
    select_fraction: float = 0.1
    z_threshold: float = 4.0
    split: SplitSpec = field(default_factory=SplitSpec)
    strategies: tuple[str, ...] = ("pso", "qpso", "ebqpso")
    swarm: SwarmConfig = field(default_factory=SwarmConfig)
    trials: int = 5
    base_seed: int = 42
    outdir: str = "results"

    def __post_init__(self):
        if (self.input_csv is None) == (self.synthetic is None):
            raise ValueError("exactly one of input_csv or synthetic must be set")
        if self.n_lags < 1:
            raise ValueError("n_lags must be positive")
        if self.synthetic is not None and self.n_lags >= self.synthetic.n:
            raise ValueError(f"n_lags {self.n_lags} must be below synthetic.n {self.synthetic.n}")
        if not 0.0 < self.select_fraction <= 1.0:
            raise ValueError(f"select_fraction must lie in (0, 1], got {self.select_fraction}")
        check_z_threshold(self.z_threshold)
        if not self.strategies:
            raise ValueError("at least one strategy required")
        for s in self.strategies:
            if s not in OPTIMIZERS:
                raise ValueError(f"unknown strategy {s!r}; choose from {sorted(OPTIMIZERS)}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("duplicate strategies")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.swarm.seed != 0:
            raise ValueError(f"swarm seed {self.swarm.seed} would be ignored: trial t seeds "
                             "its swarm with base_seed + t, so set base_seed instead")


@dataclass
class TrialResult:
    strategy: str
    trial: int
    seed: int
    gamma: float | None = None
    sigma2: float | None = None
    metrics: MetricReport | None = None
    evaluations: int | None = None
    wall_time: float | None = None
    error: str | None = None
    predictions: np.ndarray | None = None
    model: lssvm.LssvmModel | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ExperimentReport:
    trials: list[TrialResult]
    aggregates: dict[str, dict[str, tuple[float, float]]]
    selected_lags: tuple[int, ...]
    n_replaced: int
    test_targets: np.ndarray
    model_meta: ModelMeta


def recompute_aggregates(trials) -> dict[str, dict[str, tuple[float, float]]]:
    """Mean and sample standard deviation per metric per strategy over the
    successful trials (std is 0 for a single trial). An undefined MAPE is
    left out; with none defined the pair is (None, None)."""
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for strat in dict.fromkeys(tr.strategy for tr in trials):
        rows = [tr for tr in trials if tr.strategy == strat and tr.ok]
        if not rows:
            continue
        out[strat] = {}
        for name in ("rmse", "mae", "mape"):
            vals = np.array([v for v in (getattr(tr.metrics, name) for tr in rows) if v is not None])
            if vals.size == 0:
                out[strat][name] = (None, None)
                continue
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            out[strat][name] = (float(vals.mean()), std)
    return out


def load_series(config: ExperimentConfig) -> TimeSeries:
    """The configured input CSV, or else the synthetic series."""
    if config.input_csv is not None:
        from .data_io import load_csv

        return load_csv(config.input_csv)
    return generate_synthetic(config.synthetic)


@dataclass
class PreparedData:
    """Pipeline output shared by every trial and strategy, and the sidecar
    of every model trained on it. ``ranking`` is the train block's full
    ``mi_ranking``, of which ``model_meta.lags`` are the top lags, and
    ``cleaned`` the cleaned series the blocks were lagged from."""

    train: LaggedDataset
    val: LaggedDataset
    test: LaggedDataset
    n_replaced: int
    persistence_pred: np.ndarray
    model_meta: ModelMeta
    ranking: list[tuple[int, float]]
    cleaned: TimeSeries


def model_rows(series: TimeSeries, meta: ModelMeta) -> LaggedDataset:
    """The input rows of a model with sidecar ``meta`` over ``series``: the
    series cleaned by the sidecar's outlier gate, lagged to its lags only.
    Training, ``predict`` and ``evaluate`` all build a model's rows here.
    Raises ValueError on a series whose cadence is not the sidecar's, since
    its lags would span other time steps."""
    if series.cadence_minutes != meta.cadence_minutes:
        raise ValueError(f"{series.cadence_minutes}-minute cadence, but the model "
                         f"was trained on a {meta.cadence_minutes}-minute series")
    cleaned, _ = clean(series, meta.z_threshold)
    return make_lagged_dataset(cleaned, meta.n_lags, meta.lags)


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """clean -> MI ranking of every lag on the train block -> the model's
    rows (``model_rows``), split. The only place that decides which lags a
    model reads."""
    series = load_series(config)
    cleaned, n_replaced = clean(series, config.z_threshold)
    ranking = mi_ranking(cleaned, config.n_lags, config.split)
    meta = ModelMeta(top_lags(ranking, config.select_fraction), config.n_lags,
                     series.cadence_minutes, config.z_threshold, config.split)
    train, val, test = split(model_rows(series, meta), config.split)
    # Naive one-step persistence: each test target's previous value.
    persistence_pred = np.concatenate((val.targets[-1:], test.targets[:-1]))
    return PreparedData(train, val, test, n_replaced, persistence_pred, meta, ranking, cleaned)


def run_job(data, fitness, space, swarm_cfg, strategy, trial) -> TrialResult:
    """One (trial, strategy) job: tune with ``OPTIMIZERS[strategy]``, retrain
    the winner on the train block and score it on the test block. A
    ``NumericError`` or ``ValueError`` becomes the result's error. Every
    field but ``wall_time`` depends only on the arguments."""
    t0 = time.perf_counter()
    try:
        # Looked up on each call: benchmark harnesses wrap the dict entries.
        opt = OPTIMIZERS[strategy](fitness, space, swarm_cfg)
        model = fitness.model(opt.best_position)
        pred = lssvm.predict(model, data.test.features)
        hp = model.hyperparams
        result = TrialResult(strategy, trial, swarm_cfg.seed, hp.gamma, hp.sigma2,
                             metrics=metric_report(data.test.targets, pred),
                             evaluations=opt.evaluations, predictions=pred, model=model)
    except (lssvm.NumericError, ValueError) as exc:
        result = TrialResult(strategy, trial, swarm_cfg.seed, error=f"{type(exc).__name__}: {exc}")
    result.wall_time = time.perf_counter() - t0
    return result


def run_experiment(config: ExperimentConfig, log=print,
                   data: PreparedData | None = None) -> ExperimentReport:
    """Prepare the data, unless ``data`` is ``prepare_data(config)`` already,
    run the (trial, strategy) jobs in that fixed order, seeding trial t with
    base_seed + t, and merge the results. A failed job is recorded with its
    error; the other jobs still run."""
    data = prepare_data(config) if data is None else data
    log(
        f"data ready: {data.train.n_rows}/{data.val.n_rows}/{data.test.n_rows} rows, "
        f"lags {list(data.model_meta.lags)}, {data.n_replaced} samples replaced, "
        f"kernel buffer {lssvm.buffer_bytes(data.train.n_rows) / 1e6:.1f} MB"
    )

    fitness = LssvmFitness(data.train, data.val)
    persistence = TrialResult(PERSISTENCE, 0, config.base_seed, evaluations=0, wall_time=0.0,
                              metrics=metric_report(data.test.targets, data.persistence_pred))

    trials: list[TrialResult] = []
    for trial in range(config.trials):
        # The trial's strategies share a seed, so they score many of the
        # same positions; the fitness keeps one trial's values at a time.
        fitness.forget()
        swarm_cfg = dataclasses.replace(config.swarm, seed=config.base_seed + trial)
        for strat in config.strategies:
            result = run_job(data, fitness, HYPERPARAM_SPACE, swarm_cfg, strat, trial)
            trials.append(result)
            if result.ok:
                log(
                    f"trial {trial} {strat}: rmse={result.metrics.rmse:.4f} "
                    f"mae={result.metrics.mae:.4f} mape={format_mape(result.metrics.mape)} "
                    f"gamma={result.gamma:.4g} sigma2={result.sigma2:.4g} "
                    f"evals={result.evaluations} ({result.wall_time:.1f}s)"
                )
            else:
                log(f"trial {trial} {strat}: FAILED: {result.error}")
        trials.append(dataclasses.replace(persistence, trial=trial, seed=swarm_cfg.seed))

    return ExperimentReport(
        trials=trials,
        aggregates=recompute_aggregates(trials),
        selected_lags=data.model_meta.lags,
        n_replaced=data.n_replaced,
        test_targets=data.test.targets.copy(),
        model_meta=data.model_meta,
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr round-trips exactly
    return str(v)


def write_report(report: ExperimentReport, outdir: str):
    """Emit report.csv, per-trial prediction CSVs and model files with their
    sidecars."""
    os.makedirs(outdir, exist_ok=True)
    # TrialResult and MetricReport fields are named after their columns.
    rows = [
        {"kind": "trial", **vars(tr), **(vars(tr.metrics) if tr.metrics else {})}
        for tr in report.trials
    ]
    rows += [
        {"kind": kind, "strategy": strat, **{name: pair[i] for name, pair in agg.items()}}
        for strat, agg in report.aggregates.items()
        for i, kind in enumerate(("mean", "std"))
    ]
    # Minimal quoting: only cells holding a comma, a quote or a newline,
    # such as a failed trial's error text, are quoted.
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    writer.writerows([_fmt(row.get(col)) for col in REPORT_COLUMNS] for row in rows)
    atomic_write_text(os.path.join(outdir, "report.csv"), text.getvalue())

    for tr in report.trials:
        if tr.predictions is None:  # a failed trial or persistence
            continue
        write_forecast_csv(
            os.path.join(outdir, f"predictions_{tr.strategy}_{tr.trial}.csv"),
            report.test_targets,
            tr.predictions,
        )
        if tr.model is not None:
            path = os.path.join(outdir, f"model_{tr.strategy}_{tr.trial}")
            save_model(tr.model, path, report.model_meta)


def summary_table(report: ExperimentReport) -> str:
    """Three-strategies-by-three-metrics table of mean +/- std, plus baseline."""
    lines = [f"{'strategy':<12} {'RMSE':>20} {'MAE':>20} {'MAPE (%)':>20}"]
    for strat, agg in report.aggregates.items():
        cells = [
            "n/a" if agg[name][0] is None else f"{agg[name][0]:.4f} +/- {agg[name][1]:.4f}"
            for name in ("rmse", "mae", "mape")
        ]
        lines.append(f"{strat:<12} {cells[0]:>20} {cells[1]:>20} {cells[2]:>20}")
    return "\n".join(lines)
