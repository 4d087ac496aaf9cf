"""CSV ingestion/emission and versioned binary model persistence.

Series CSV format: one ``timestamp,value`` pair per line, UTF-8 with or
without a leading byte-order mark, optional ``timestamp,value`` header. An
empty value field marks a missing sample.
Timestamps are naive ISO 8601 (``2015-04-01T00:20``; one with a zone
designator such as ``Z`` or ``+02:00`` is refused) and strictly increasing in
whole multiples of the cadence: the most common step between stamps (the
smaller on a tie), in whole minutes. A step of k cadences marks the k - 1
samples in between as missing. An outage is one long step, but
``CADENCE_CHANGE_STEPS`` (3) or more equal long steps in a row mean that
the logger changed its cadence part way, and the file is refused.

Model files are little-endian binary: magic ``LSVM``, format version (u32),
support row/column counts (u64 each), gamma and sigma2 (f64), the support
matrix row-major (f64), the dual coefficients (f64) and the bias (f64).

Every model file has a sidecar, ``<model>.meta.json``, a ``ModelMeta``
written with it by ``save_model`` as a JSON object with sorted keys; it
tells ``predict`` and ``evaluate`` how to rebuild the model's input rows
from a series. ``load_model`` reads a model only with its sidecar, by the
rule the CLI reads a config file by: each value is checked against the type
``ModelMeta`` declares for its key, then by ``ModelMeta``'s own checks. An
unknown or missing key, a value that does not fit and a lag count other
than the model's column count each raise a DataError naming the sidecar.
The sidecar is format 2: its ``split`` is a ``SplitSpec`` object, such as
``{"train_frac": 0.6, "val_frac": 0.2}``, read as a config's ``split`` is,
except that no key may be left out for its default. Its ``format`` is read
first: a format-1 sidecar, whose split is a list of three fractions, raises
a DataError that names its format and says to retrain.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
import typing
import warnings
from datetime import datetime

import numpy as np

from .lssvm import Hyperparams, LssvmModel
from .pipeline import SplitSpec, TimeSeries, check_z_threshold

MODEL_MAGIC = b"LSVM"
MODEL_VERSION = 1

DEFAULT_START = datetime(2015, 4, 1, 0, 0)
# Consecutive equal steps longer than the cadence that mark a cadence change.
CADENCE_CHANGE_STEPS = 3


class DataError(ValueError):
    """Malformed input file or un-ingestable data."""


def _atomic_write_bytes(path: str, payload: bytes):
    """Write ``payload`` to a temp file and rename it to ``path``; if either
    step fails, the temp file is removed and the error re-raised."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


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
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    # float() also reads digit-group underscores and non-ASCII digits; only a
    # file that holds one has its values searched for them.
    searched = "_" in text or not text.isascii()
    lines = text.split("\n")
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
            if searched and ("_" in value or not value.isascii()):
                raise ValueError
            v = float(value)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparseable value {value!r}") from None
        if not math.isfinite(v):
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
    failed parse goes stamp by stamp to name the first bad line. numpy would
    shift a stamp with a zone designator to UTC with only a warning, so the
    warning fails the parse. numpy also reads "now" and "today", in any case,
    as the wall clock, so a file that reaches today is searched stamp by stamp
    for them too."""
    today = np.datetime64("today")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = np.array(stamps, dtype="datetime64[s]")
    except (ValueError, Warning):
        t = None
    if t is None or np.isnat(t).any() or t.max() >= today:
        bad = next(((i, p) for i, p in enumerate(map(_stamp_problem, stamps)) if p), None)
        if bad is not None:
            raise DataError(f"{path}: line {linenos[bad[0]]}: {bad[1]}")
    return t.astype(np.int64)


def _stamp_problem(stamp: str) -> str | None:
    """Why ``stamp`` is refused, or None for a naive ISO 8601 stamp."""
    if stamp.lower() in ("now", "today"):
        return f"unparseable timestamp {stamp!r}"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.isnat(np.datetime64(stamp, "s")):
                return None
    except Warning:
        return f"timestamp {stamp!r} has a time zone; stamps must be naive, with no Z or UTC offset"
    except ValueError:
        pass
    return f"unparseable timestamp {stamp!r}"


def write_series_csv(series: TimeSeries, path: str, start: datetime | None = None):
    """Emit a series CSV with a header; missing samples get empty value fields.

    Stamps run from ``start``, else from ``series.start``, else from
    ``DEFAULT_START``; seconds are written only when the start has any.
    """
    start = start or series.start or DEFAULT_START
    unit = "s" if start.second else "m"
    steps = np.arange(len(series)) * np.timedelta64(series.cadence_minutes, "m")
    stamps = np.datetime_as_string(np.datetime64(start, unit) + steps, unit=unit).tolist()
    rows = [f"{stamp}," if missing else f"{stamp},{value!r}"
            for stamp, value, missing in zip(stamps, series.values.tolist(),
                                             series.missing_mask.tolist())]
    atomic_write_text(path, "\n".join(["timestamp,value", *rows]) + "\n")


def write_forecast_csv(path: str, actual: np.ndarray, forecast: np.ndarray):
    """Emit ``index,actual,forecast,abs_error`` rows for aligned arrays."""
    columns = zip(actual.tolist(), forecast.tolist(), np.abs(actual - forecast).tolist())
    rows = [f"{i},{a!r},{f!r},{e!r}" for i, (a, f, e) in enumerate(columns)]
    atomic_write_text(path, "\n".join(["index,actual,forecast,abs_error", *rows]) + "\n")


# What a field of each scalar type takes: (the JSON types, in words). A
# JSON true or false is a Python bool, an int, and is refused.
_SCALARS = {int: (int, "an integer"), float: ((int, float), "a real number"), str: (str, "a string")}
_field_types = functools.cache(typing.get_type_hints)


def _read(tp, value, what: str, or_null: str = "", defaults: bool = True):
    """``value`` read from JSON as the declared type ``tp``: a settings
    dataclass from an object (by ``_dataclass_from_dict`` with
    ``defaults``), ``tuple[X, ...]`` of a scalar X from a list, ``X | None``
    also from null, a scalar as it is. Raises ValueError naming ``what``
    when the value does not fit."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        wanted = "a list"
        if isinstance(value, list):
            return tuple(_read(args[0], v, f"{what} item {i}") for i, v in enumerate(value))
    elif args:  # X | None, X first
        return None if value is None else _read(args[0], value, what, " or null", defaults)
    elif dataclasses.is_dataclass(tp):
        if isinstance(value, dict):
            return _dataclass_from_dict(tp, value, tp.__name__, defaults)
        wanted = f"a {tp.__name__} object"
    else:
        kinds, wanted = _SCALARS[tp]
        if isinstance(value, kinds) and not isinstance(value, bool):
            return value
    raise ValueError(f"{what} must be {wanted}{or_null}, got {value!r}")


def _dataclass_from_dict(cls, d: dict, label: str, defaults: bool = True):
    """``cls`` from the JSON object ``d``, each value read as its field's
    declared type; an unknown key, a value that does not fit and a missing
    key are each a ValueError naming the key and ``label``. With
    ``defaults`` (a config) a key whose field has a default may be left
    out, at any depth; without (a sidecar, which records every value it was
    written with) none may."""
    types = _field_types(cls)
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ValueError(f"unknown {label} keys: {unknown}")
    for f in dataclasses.fields(cls):
        if f.name not in d and (not defaults or f.default is dataclasses.MISSING is f.default_factory):
            raise ValueError(f"{label} has no {f.name!r}")
    return cls(**{k: _read(types[k], v, f"{label} key {k!r}", defaults=defaults) for k, v in d.items()})


def _read_json_object(path: str, label: str) -> dict:
    """The JSON object in the file ``path``. Raises DataError, naming the
    file, if it is not UTF-8 text, not JSON, or not a JSON object (the
    ``label`` file's root)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: {label} root must be a JSON object")
    return raw


@dataclasses.dataclass(frozen=True)
class ModelMeta:
    """A model's sidecar, ``<model>.meta.json``: what ``predict`` and
    ``evaluate`` need to rebuild its input rows from a series. ``lags`` are
    the selected lags in feature order, ``n_lags`` the lag window,
    ``cadence_minutes`` the training series' cadence, ``z_threshold`` the
    outlier gate of ``clean`` and ``split`` the config's ``SplitSpec``, read
    as the config's ``split`` object is."""

    format: int
    lags: tuple[int, ...]
    n_lags: int
    cadence_minutes: int
    z_threshold: float
    split: SplitSpec

    def __post_init__(self):
        if self.format != 2:
            raise ValueError(f"sidecar 'format' must be 2, got {self.format!r}")
        if not self.lags or len(set(self.lags)) != len(self.lags) or min(self.lags) < 1:
            raise ValueError(f"sidecar 'lags' must be distinct positive integers, got {list(self.lags)}")
        if max(self.lags) > self.n_lags:
            raise ValueError(f"sidecar 'lags' reach lag {max(self.lags)}, "
                             f"past its 'n_lags' of {self.n_lags}")
        if self.cadence_minutes < 1:
            raise ValueError("sidecar 'cadence_minutes' must be a positive integer, "
                             f"got {self.cadence_minutes!r}")
        check_z_threshold(self.z_threshold, "sidecar 'z_threshold'")


def save_model(model: LssvmModel, path: str, meta: ModelMeta):
    """Write the versioned binary model file (atomic: temp file then rename)
    and ``meta`` as its ``.meta.json`` sidecar.
    If the sidecar write fails, the model file is removed too, so it cannot
    be read beside an older sidecar."""
    X = np.ascontiguousarray(model.support_inputs, dtype="<f8")
    a = np.ascontiguousarray(model.dual_coeffs, dtype="<f8")
    n, m = X.shape
    head = MODEL_MAGIC + struct.pack(
        "<IQQdd", MODEL_VERSION, n, m, model.hyperparams.gamma, model.hyperparams.sigma2
    )
    payload = head + X.tobytes() + a.tobytes() + struct.pack("<d", model.bias)
    _atomic_write_bytes(path, payload)
    try:
        atomic_write_text(path + ".meta.json",
                          json.dumps(dataclasses.asdict(meta), sort_keys=True) + "\n")
    except BaseException:
        os.remove(path)
        raise


def load_model(path: str) -> tuple[LssvmModel, ModelMeta]:
    """Read a model file and its sidecar. A corrupt or future-versioned
    model file, then a sidecar of another format, a malformed one (a key
    left out, nested ones included) or one whose lag count differs from the
    model's column count, raises DataError; a missing sidecar is an OSError
    naming its path."""
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
        model = LssvmModel(X, a, bias, Hyperparams(gamma, sigma2))
    except ValueError as exc:
        raise DataError(f"{path}: corrupt model file: {exc}") from None
    meta_path = path + ".meta.json"
    raw = _read_json_object(meta_path, "sidecar")
    # The format first: an older sidecar's keys need not fit this one's.
    if "format" in raw and raw["format"] != 2:
        raise DataError(f"{meta_path}: sidecar 'format' is {raw['format']!r}, not 2; "
                        "retrain the model to write a format-2 sidecar")
    try:
        meta = _dataclass_from_dict(ModelMeta, raw, "sidecar", defaults=False)
    except ValueError as exc:
        raise DataError(f"{meta_path}: {exc}") from None
    if len(meta.lags) != m:
        raise DataError(f"{meta_path}: model expects {m} features but metadata lists {len(meta.lags)} lags")
    return model, meta
