"""Short-term wind speed forecasting: LSSVM regression with swarm-tuned
hyperparameters (PSO, QPSO, and QPSO with elitist transposon breeding)."""

from .lssvm import (
    Hyperparams,
    LssvmModel,
    NumericError,
    predict,
    train,
)
from .metrics import HYPERPARAM_SPACE, LssvmFitness, MetricReport, mae, mape, metric_report, rmse
from .pipeline import (
    LaggedDataset,
    SplitSpec,
    TimeSeries,
    autocorrelation,
    clean,
    make_lagged_dataset,
    mi_ranking,
    split,
    top_lags,
)
from .swarm import (
    OptimizeResult,
    SearchSpace,
    SwarmConfig,
    optimize_ebqpso,
    optimize_pso,
    optimize_qpso,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .data_io import DataError, ModelMeta, load_csv, load_model, save_model, write_series_csv
from .experiment import ExperimentConfig, ExperimentReport, run_experiment, write_report

__version__ = "0.1.0"
