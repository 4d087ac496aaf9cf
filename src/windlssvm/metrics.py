"""Forecast error metrics and the validation-RMSE fitness for hyperparameter search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lssvm
from .pipeline import LaggedDataset
from .swarm import SearchSpace

# Targets with magnitude at or below this floor make MAPE meaningless.
MAPE_EPSILON_FLOOR = 1e-6

# The hyperparameter search box: gamma in GAMMA_RANGE and sigma2 in
# SIGMA2_RANGE, searched on a log10 scale.
GAMMA_RANGE = (1e-4, 1e6)
SIGMA2_RANGE = (8.0, 4e4)
HYPERPARAM_SPACE = SearchSpace(
    lower=np.log10([GAMMA_RANGE[0], SIGMA2_RANGE[0]]),
    upper=np.log10([GAMMA_RANGE[1], SIGMA2_RANGE[1]]),
)


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    mape: float | None  # None where MAPE is undefined (some |y_i| at or below the floor)


def _check_pair(y, yhat):
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty input")
    if y.size != yhat.size:
        raise ValueError(f"length mismatch: {y.size} vs {yhat.size}")
    return y, yhat


def mae(y, yhat) -> float:
    """Mean absolute error."""
    y, yhat = _check_pair(y, yhat)
    return float(np.abs(y - yhat).mean())


def rmse(y, yhat) -> float:
    """Root mean squared error."""
    y, yhat = _check_pair(y, yhat)
    d = y - yhat
    return float(np.sqrt((d * d).mean()))


def mape(y, yhat) -> float:
    """Mean absolute percentage error, in percent.

    Raises if any |y_i| <= MAPE_EPSILON_FLOOR, naming the first offending index.
    """
    y, yhat = _check_pair(y, yhat)
    tiny = np.abs(y) <= MAPE_EPSILON_FLOOR
    if tiny.any():
        i = int(np.flatnonzero(tiny)[0])
        raise ValueError(
            f"|y[{i}]| = {abs(y[i]):.3e} <= {MAPE_EPSILON_FLOOR:.0e}; MAPE undefined"
        )
    return float((np.abs(y - yhat) / np.abs(y)).mean() * 100.0)


def metric_report(y, yhat) -> MetricReport:
    """MAE, RMSE and MAPE; a calm spell (some |y_i| at or below the MAPE
    floor) leaves MAPE undefined rather than failing the report."""
    try:
        pct = mape(y, yhat)
    except ValueError:
        pct = None  # a calm spell; empty or mismatched input still raises in mae
    return MetricReport(mae=mae(y, yhat), rmse=rmse(y, yhat), mape=pct)


def format_mape(v) -> str:
    """A MAPE as printed: two decimals and a percent sign, or ``n/a``."""
    return "n/a" if v is None else f"{v:.2f}%"


class LssvmFitness:
    """Validation RMSE of an LSSVM trained at a log10-encoded hyperparameter point.

    A position (p0, p1) decodes to gamma = 10**p0, sigma2 = 10**p1. The
    fitness holds an ``lssvm.TrainingSet`` of the training block, which owns
    the augmented training rows and the n x n buffer of the dual solve, and
    an ``lssvm.KernelProduct`` of the validation rows against the training
    rows, the path ``lssvm.predict`` takes. It holds no distances, and no
    (n_val, n) kernel: the product walks the validation rows in
    cache-sized blocks, so a call's value equals the RMSE of ``predict`` on
    ``model(position)`` bit for bit. Solver failures yield +inf.
    ``model(position)`` retrains at a position in the same buffer. The
    buffers make calls on one instance unsafe to issue concurrently: use one
    instance per thread or process.

    A call's value depends only on its position, so each call stores it (inf
    included) under the decoded ``Hyperparams``, and a repeated (gamma,
    sigma2) returns the stored float without a solve. The strategies of one trial share their
    seed, so they draw the same initial swarm, and QPSO and EBQPSO move in
    lockstep until EBQPSO first breeds. ``forget()`` empties the store;
    ``experiment.run_experiment`` calls it at the start of each trial, so it
    holds one trial's distinct positions: at most ≈3.2k entries of ≈200 bytes
    (≈0.7 MB) at the default 20 x 50 swarm and three strategies.
    """

    def __init__(self, train: LaggedDataset, val: LaggedDataset):
        if train.lag_indices != val.lag_indices:
            raise ValueError("train and validation datasets use different lags")
        self.val = val
        self.training_set = lssvm.TrainingSet(train.features, train.targets)
        self._val_kernel = lssvm.KernelProduct(self.training_set.X, val.features)
        self._values: dict[lssvm.Hyperparams, float] = {}

    def forget(self):
        """Empty the store of values by position."""
        self._values.clear()

    def decode(self, position) -> lssvm.Hyperparams:
        position = np.asarray(position, dtype=float).ravel()
        if position.size != 2 or not np.isfinite(position).all():
            raise ValueError(f"position must be two finite log10 values, got {position!r}")
        return lssvm.Hyperparams(gamma=10.0 ** position[0], sigma2=10.0 ** position[1])

    def __call__(self, position) -> float:
        hp = self.decode(position)
        if hp not in self._values:
            try:
                alpha, b = self.training_set.solve(hp)
            except lssvm.NumericError:
                self._values[hp] = np.inf
            else:
                pred = self._val_kernel.matvec(hp.sigma2, alpha) + b
                self._values[hp] = rmse(self.val.targets, pred)
        return self._values[hp]

    def model(self, position) -> lssvm.LssvmModel:
        """The training block's model at ``position``; raises ``lssvm.NumericError``."""
        return self.training_set.model(self.decode(position))

