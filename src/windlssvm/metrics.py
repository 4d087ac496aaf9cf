"""Forecast error metrics and the validation-RMSE fitness for hyperparameter search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from . import lssvm
from .pipeline import LaggedDataset
from .swarm import SearchSpace

# Targets with magnitude at or below this floor make MAPE meaningless.
MAPE_EPSILON_FLOOR = 1e-6

# The default hyperparameter search box.
GAMMA_RANGE = (1e-4, 1e6)
SIGMA2_RANGE = (8.0, 4e4)


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


def mape(y, yhat, epsilon_floor: float = MAPE_EPSILON_FLOOR) -> float:
    """Mean absolute percentage error, in percent.

    Raises if any |y_i| <= epsilon_floor, naming the first offending index.
    """
    y, yhat = _check_pair(y, yhat)
    tiny = np.abs(y) <= epsilon_floor
    if tiny.any():
        i = int(np.flatnonzero(tiny)[0])
        raise ValueError(
            f"|y[{i}]| = {abs(y[i]):.3e} <= {epsilon_floor:.0e}; MAPE undefined"
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
    the squared distances and the n x n buffer of the dual solve, and makes
    the validation-to-training distances and the (n_val, n) validation
    kernel buffer once. The validation prediction goes through
    ``scipy.linalg.blas``, like the solve, so a call uses one BLAS library.
    Solver failures yield +inf. ``model(position)`` retrains at a position
    in the same buffer. A call's value depends only on its position, but
    the buffers make calls on one instance unsafe to issue concurrently:
    use one instance per thread or process.
    """

    def __init__(self, train: LaggedDataset, val: LaggedDataset):
        if train.lag_indices != val.lag_indices:
            raise ValueError("train and validation datasets use different lags")
        self.train = train
        self.val = val
        self.training_set = lssvm.TrainingSet(train.features, train.targets)
        self.sq_val = lssvm.pairwise_sq_dists(val.features, train.features)
        self._Kv = np.empty((val.n_rows, train.n_rows))

    def decode(self, position) -> lssvm.Hyperparams:
        position = np.asarray(position, dtype=float).ravel()
        if position.size != 2 or not np.isfinite(position).all():
            raise ValueError(f"position must be two finite log10 values, got {position!r}")
        return lssvm.Hyperparams(gamma=10.0 ** position[0], sigma2=10.0 ** position[1])

    def __call__(self, position) -> float:
        hp = self.decode(position)
        try:
            alpha, b = self.training_set.solve(hp)
        except lssvm.NumericError:
            return np.inf
        Kv = lssvm.kernel_from_sq_dists(self.sq_val, hp.sigma2, out=self._Kv)
        # Kv.T is Fortran-ordered, so f2py passes it without a copy.
        pred = blas.dgemv(1.0, Kv.T, alpha, trans=1) + b
        return rmse(self.val.targets, pred)

    def model(self, position) -> lssvm.LssvmModel:
        """The training block's model at ``position``; raises ``lssvm.NumericError``."""
        return self.training_set.model(self.decode(position))


def hyperparam_space(gamma_range=GAMMA_RANGE, sigma2_range=SIGMA2_RANGE) -> SearchSpace:
    """Log10-scale search box over (gamma, sigma2)."""
    g_lo, g_hi = gamma_range
    s_lo, s_hi = sigma2_range
    if g_lo <= 0 or s_lo <= 0 or g_lo >= g_hi or s_lo >= s_hi:
        raise ValueError("hyperparameter ranges must be positive and ordered")
    return SearchSpace(
        lower=np.log10([g_lo, s_lo]),
        upper=np.log10([g_hi, s_hi]),
    )
