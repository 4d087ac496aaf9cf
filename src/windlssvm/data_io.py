"""CSV ingestion/emission and versioned binary model persistence.

Series CSV format: one ``timestamp,value`` pair per line, UTF-8 with or
without a leading byte-order mark, optional ``timestamp,value`` header. An
empty value field marks a missing sample.
Timestamps are ISO 8601 (``2015-04-01T00:20``) and strictly increasing in
whole multiples of the cadence: the most common step between stamps (the
smaller on a tie), in whole minutes. A step of k cadences marks the k - 1
samples in between as missing. An outage is one long step, but
``CADENCE_CHANGE_STEPS`` (3) or more equal long steps in a row mean that
the logger changed its cadence part way, and the file is refused.

Model files are little-endian binary: magic ``LSVM``, format version (u32),
support row/column counts (u64 each), gamma and sigma2 (f64), the support
matrix row-major (f64), the dual coefficients (f64) and the bias (f64).

A model file's sidecar, ``<model>.meta.json``, tells ``predict`` and
``evaluate`` how to rebuild the model's input rows from a series. Its keys:
``format`` (1), ``cadence_minutes`` (the series cadence), ``lags`` (the
selected lags, in feature order), ``n_lags`` (the lag window length),
``z_threshold`` (the outlier gate of ``clean``) and ``split`` (the train,
validation and test fractions).
"""

from __future__ import annotations

import json
import os
import struct
from datetime import datetime, timedelta

import numpy as np

from .lssvm import Hyperparams, LssvmModel
from .pipeline import TimeSeries

MODEL_MAGIC = b"LSVM"
MODEL_VERSION = 1

DEFAULT_START = datetime(2015, 4, 1, 0, 0)
# Consecutive equal steps longer than the cadence that mark a cadence change.
CADENCE_CHANGE_STEPS = 3
_TIMESTAMP_FMT = "%Y-%m-%dT%H:%M"


class DataError(ValueError):
    """Malformed input file or un-ingestable data."""


def _atomic_write_bytes(path: str, payload: bytes):
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def atomic_write_text(path: str, text: str):
    _atomic_write_bytes(path, text.encode("utf-8"))


def load_csv(path: str) -> TimeSeries:
    """Parse a series CSV at the cadence of its stamps; blank value fields
    and timestamp gaps become missing samples.

    Raises DataError naming the offending 1-based line for malformed rows,
    unparseable, duplicate, out-of-order or off-cadence timestamps and the
    first stamp after a change of cadence, and for files that are empty or
    not UTF-8 text or whose cadence is not a whole number of minutes.
    """
    stamps = []
    linenos = []
    values = []
    mask = []
    first_content = True
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise DataError(f"{path}: line {lineno}: expected 'timestamp,value', got {line!r}")
        stamp, value = fields[0].strip(), fields[1].strip()
        if first_content:
            first_content = False
            if stamp.lower() == "timestamp":
                continue  # header row
        if stamp == "":
            raise DataError(f"{path}: line {lineno}: empty timestamp field")
        stamps.append(stamp)
        linenos.append(lineno)
        if value == "":
            values.append(np.nan)
            mask.append(True)
            continue
        try:
            v = float(value)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparseable value {value!r}") from None
        if not np.isfinite(v):
            raise DataError(f"{path}: line {lineno}: non-finite value {value!r}")
        values.append(v)
        mask.append(False)
    if not values:
        raise DataError(f"{path}: no samples")

    t = _stamp_seconds(path, stamps, linenos)
    step = np.diff(t)
    # The mode, not the smallest step: a stray stamp must not halve the cadence.
    steps, counts = np.unique(step[step > 0], return_counts=True)
    cadence = int(steps[np.argmax(counts)]) if steps.size else 60 * TimeSeries.cadence_minutes
    if cadence % 60:
        raise DataError(f"{path}: cadence of {cadence} s is not a whole number of minutes")
    bad = (step <= 0) | (step % cadence != 0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        what = (
            "duplicate" if step[i] == 0
            else "out-of-order" if step[i] < 0
            else f"off-cadence ({step[i] / 60:g} min after the previous, cadence {cadence // 60} min)"
        )
        raise DataError(f"{path}: line {linenos[i + 1]}: {what} timestamp {stamps[i + 1]!r}")
    if step.size >= CADENCE_CHANGE_STEPS:
        runs = np.lib.stride_tricks.sliding_window_view(step, CADENCE_CHANGE_STEPS)
        changed = (runs[:, 0] > cadence) & (runs == runs[:, :1]).all(axis=1)
        if changed.any():
            i = int(np.flatnonzero(changed)[0])
            raise DataError(
                f"{path}: line {linenos[i + 1]}: cadence changes at timestamp {stamps[i + 1]!r}: "
                f"{CADENCE_CHANGE_STEPS} or more steps of {step[i] / 60:g} min in a row, "
                f"cadence {cadence // 60} min"
            )
    # Place each row on its cadence slot; slots no row fills are missing.
    slot = (t - t[0]) // cadence
    filled = np.full(slot[-1] + 1, np.nan)
    filled[slot] = values
    missing = np.ones(slot[-1] + 1, dtype=bool)
    missing[slot] = mask
    start = np.datetime64(int(t[0]), "s").astype(datetime)
    return TimeSeries(filled, cadence // 60, missing, start)


def _stamp_seconds(path: str, stamps: list[str], linenos: list[int]) -> np.ndarray:
    """Timestamps as int64 seconds, parsed in one vectorized call; only a
    failed parse goes stamp by stamp to name the first bad line."""
    try:
        t = np.array(stamps, dtype="datetime64[s]")
    except ValueError:
        t = None
    if t is None or np.isnat(t).any():
        i = next(i for i, stamp in enumerate(stamps) if not _is_timestamp(stamp))
        raise DataError(f"{path}: line {linenos[i]}: unparseable timestamp {stamps[i]!r}")
    return t.astype(np.int64)


def _is_timestamp(stamp: str) -> bool:
    try:
        return not np.isnat(np.datetime64(stamp, "s"))
    except ValueError:
        return False


def write_series_csv(series: TimeSeries, path: str, start: datetime | None = None):
    """Emit a series CSV with a header; missing samples get empty value fields.

    Stamps run from ``start``, else from ``series.start``, else from
    ``DEFAULT_START``; seconds are written only when the start has any.
    """
    start = start or series.start or DEFAULT_START
    fmt = _TIMESTAMP_FMT + (":%S" if start.second else "")
    step = timedelta(minutes=series.cadence_minutes)
    rows = ["timestamp,value"]
    for i in range(len(series)):
        stamp = (start + i * step).strftime(fmt)
        if series.missing_mask[i]:
            rows.append(f"{stamp},")
        else:
            rows.append(f"{stamp},{float(series.values[i])!r}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_forecast_csv(path: str, actual: np.ndarray, forecast: np.ndarray):
    """Emit ``index,actual,forecast,abs_error`` rows for aligned arrays."""
    columns = zip(actual.tolist(), forecast.tolist(), np.abs(actual - forecast).tolist())
    rows = [f"{i},{a!r},{f!r},{e!r}" for i, (a, f, e) in enumerate(columns)]
    atomic_write_text(path, "\n".join(["index,actual,forecast,abs_error", *rows]) + "\n")


def save_model(model: LssvmModel, path: str, meta: dict | None = None):
    """Write the versioned binary model file (atomic: temp file then rename),
    and ``meta`` as its ``.meta.json`` sidecar when given."""
    X = np.ascontiguousarray(model.support_inputs, dtype="<f8")
    a = np.ascontiguousarray(model.dual_coeffs, dtype="<f8")
    n, m = X.shape
    head = MODEL_MAGIC + struct.pack(
        "<IQQdd", MODEL_VERSION, n, m, model.hyperparams.gamma, model.hyperparams.sigma2
    )
    payload = head + X.tobytes() + a.tobytes() + struct.pack("<d", model.bias)
    _atomic_write_bytes(path, payload)
    if meta is not None:
        atomic_write_text(path + ".meta.json", json.dumps(meta, sort_keys=True) + "\n")


def load_model(path: str) -> LssvmModel:
    """Read a model file; corrupt or future-versioned files raise DataError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    head_size = 4 + struct.calcsize("<IQQdd")
    if len(blob) < head_size:
        raise DataError(f"{path}: truncated model file")
    version, n, m, gamma, sigma2 = struct.unpack("<IQQdd", blob[4:head_size])
    if version != MODEL_VERSION:
        raise DataError(f"{path}: unsupported model format version {version}")
    expected = head_size + 8 * (n * m + n + 1)
    if len(blob) != expected:
        raise DataError(f"{path}: corrupt model file: {len(blob)} bytes, expected {expected}")
    body = blob[head_size:]
    X = np.frombuffer(body[: 8 * n * m], dtype="<f8").reshape(n, m)
    a = np.frombuffer(body[8 * n * m : 8 * n * (m + 1)], dtype="<f8")
    (bias,) = struct.unpack("<d", body[8 * n * (m + 1) :])
    try:
        return LssvmModel(X, a, bias, Hyperparams(gamma, sigma2))
    except ValueError as exc:
        raise DataError(f"{path}: corrupt model file: {exc}") from None
