"""Short-term wind speed forecasting: LSSVM regression with swarm-tuned
hyperparameters (PSO, QPSO, and QPSO with elitist transposon breeding)."""

from .lssvm import (
    Hyperparams,
    LssvmModel,
    NumericError,
    predict,
    train,
)
from .metrics import LssvmFitness, MetricReport, hyperparam_space, mae, mape, metric_report, rmse
from .pipeline import (
    LaggedDataset,
    SplitSpec,
    TimeSeries,
    autocorrelation,
    clean,
    make_lagged_dataset,
    mi_ranking,
    mutual_information,
    split,
    take_lags,
    top_lags,
)
from .swarm import (
    OptimizeResult,
    SearchSpace,
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
from .synthetic import SyntheticSpec, generate_synthetic
from .data_io import DataError, load_csv, load_model, save_model, write_series_csv
from .experiment import ExperimentConfig, ExperimentReport, run_experiment, write_report

__version__ = "0.1.0"
