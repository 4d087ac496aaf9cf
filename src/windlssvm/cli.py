"""Command-line interface.

Subcommands: synth, clean, features, tune, train, predict, evaluate,
benchmark. Exit codes: 0 success, 1 usage error (a config file that cannot
be read is one), 2 data error (any other file that cannot be read or
written is one), 3 numeric failure. Each command takes only the experiment
flags it reads: train the data flags (input, lag window, MI selection,
outlier gate, split), features those and --outdir, tune and benchmark those
and the tuning flags (trials, seed, swarm, search box). A JSON config file
(--config) may supply any experiment field, so one file serves every
command; explicit flags take precedence over it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import lssvm
from .data_io import (
    DataError,
    atomic_write_text,
    load_csv,
    load_model,
    save_model,
    write_forecast_csv,
    write_series_csv,
)
from .experiment import (
    OPTIMIZERS,
    ExperimentConfig,
    PERSISTENCE,
    load_series,
    prepare_data,
    run_experiment,
    summary_table,
    write_report,
)
from .metrics import format_mape, metric_report, rmse
from .pipeline import (
    SplitSpec,
    autocorrelation,
    clean,
    make_lagged_dataset,
    mi_ranking,
    split,
    take_lags,
    top_lags,
)
from .swarm import SwarmConfig
from .synthetic import SyntheticSpec, generate_synthetic


class UsageError(Exception):
    """Bad flags or bad configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _dataclass_from_dict(cls, d: dict, label: str | None = None):
    label = label or cls.__name__
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ValueError(f"unknown {label} keys: {unknown}")
    for name, value in d.items():
        # The config modules postpone annotations, so a type is its source text.
        if types[name] == "int" and not _is_int(value):
            raise ValueError(f"{label} key {name!r} must be an integer, got {value!r}")
    return cls(**d)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from plain JSON data; unknown keys are rejected."""
    if not isinstance(d, dict):
        raise ValueError("config root must be a JSON object")
    d = dict(d)
    if isinstance(d.get("synthetic"), dict):
        d["synthetic"] = _dataclass_from_dict(SyntheticSpec, d["synthetic"])
    if isinstance(d.get("split"), dict):
        d["split"] = _dataclass_from_dict(SplitSpec, d["split"])
    if isinstance(d.get("swarm"), dict):
        d["swarm"] = _dataclass_from_dict(SwarmConfig, d["swarm"])
    if isinstance(d.get("strategies"), list):
        d["strategies"] = tuple(d["strategies"])
    for key in ("gamma_range", "sigma2_range"):
        if isinstance(d.get(key), list):
            d[key] = tuple(float(v) for v in d[key])
    return _dataclass_from_dict(ExperimentConfig, d, "config")


# Experiment flags: (flag, config path, type, help). A path is the chain of
# keys into the config JSON that the flag's value is written to; an integer
# key indexes a (lo, hi) range. Help texts gain the resolved default.

# The data flags: what ``prepare_data`` reads.
DATA_FLAGS = (
    ("--in", ("input_csv",), str, "input series CSV"),
    ("--synth-n", ("synthetic", "n"), int, "synthetic series length (when no --in)"),
    ("--synth-seed", ("synthetic", "seed"), int, "synthetic generator seed"),
    ("--n-lags", ("n_lags",), int, "lag window length"),
    ("--select-fraction", ("select_fraction",), float, "fraction of lags kept by MI"),
    ("--mi-bins", ("mi_bins",), int, "histogram bins for MI"),
    ("--z-threshold", ("z_threshold",), float, "outlier gate width"),
    ("--train-frac", ("split", "train_frac"), float, None),
    ("--val-frac", ("split", "val_frac"), float, None),
    ("--test-frac", ("split", "test_frac"), float, None),
)
OUTDIR_FLAG = ("--outdir", ("outdir",), str, "output directory")
# The tuning flags: trials, output, swarm settings and search box.
TUNING_FLAGS = (
    ("--trials", ("trials",), int, "number of trials"),
    ("--base-seed", ("base_seed",), int, "seed of trial 0"),
    OUTDIR_FLAG,
    ("--population", ("swarm", "population"), int, "swarm size"),
    ("--iterations", ("swarm", "max_iter"), int, "optimizer iterations"),
    ("--jumping-rate", ("swarm", "jumping_rate"), float, None),
    ("--n-transposons", ("swarm", "n_transposons"), int, None),
    ("--lam", ("swarm", "lam"), int, "breeding period"),
    ("--ce-alpha", ("swarm", "ce_alpha"), float,
     "fixed contraction-expansion coefficient; unset, it decays from 1.0 to 0.5"),
    ("--gamma-min", ("gamma_range", 0), float, None),
    ("--gamma-max", ("gamma_range", 1), float, None),
    ("--sigma2-min", ("sigma2_range", 0), float, None),
    ("--sigma2-max", ("sigma2_range", 1), float, None),
)
EXPERIMENT_FLAGS = DATA_FLAGS + TUNING_FLAGS


def _dest(flag: str) -> str:
    return "input" if flag == "--in" else flag[2:].replace("-", "_")


def _add_experiment_args(p, flags, defaults: dict | None = None):
    p.add_argument("--config", metavar="JSON", help="config file; flags take precedence")
    resolved = config_from_dict({**(defaults or {}), "synthetic": {}})
    for flag, path, kind, help_text in flags:
        default = resolved
        for key in path:
            default = default[key] if isinstance(key, int) else getattr(default, key)
        if default is not None:
            help_text = f"{help_text or ''} (default {default})".lstrip()
        p.add_argument(flag, dest=_dest(flag), type=kind, help=help_text)


def _read_config(path) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    return raw


def _write_flag(raw: dict, path: tuple, value):
    key, *rest = path
    if not rest:
        raw[key] = value
    elif isinstance(rest[0], int):
        pair = list(raw.get(key, getattr(ExperimentConfig, key)))
        pair[rest[0]] = value
        raw[key] = pair
    else:
        raw[key] = {**raw.get(key, {}), rest[0]: value}


def _resolve_config(args, defaults: dict | None = None) -> ExperimentConfig:
    """Write each given flag into the --config JSON (or an empty one), then
    build the config from it. ``defaults`` holds a command's own top-level
    defaults, which the config file and the flags override."""
    try:
        raw = {**(defaults or {}), **_read_config(args.config)}
        # The synthetic series is the source unless a CSV is named; the
        # --synth-* flags are ignored when one is.
        if args.input is not None:
            raw["synthetic"] = None
        elif raw.get("input_csv") is None:
            raw["synthetic"] = raw.get("synthetic") or {}
        # A command's parser holds only the flags it reads.
        for flag, path, _, _ in EXPERIMENT_FLAGS:
            value = getattr(args, _dest(flag), None)
            if value is not None and (path[0] != "synthetic" or raw.get("synthetic") is not None):
                _write_flag(raw, path, value)
        if getattr(args, "strategy", None):
            raw["strategies"] = [args.strategy]
        return config_from_dict(raw)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from None
    except OSError as exc:
        raise UsageError(f"cannot read config file {args.config}: {exc.strerror or exc}") from None


def _distinct_positive_ints(lags) -> bool:
    return (isinstance(lags, list) and bool(lags) and len(set(lags)) == len(lags)
            and all(_is_int(v) and v >= 1 for v in lags))


def _lag_list(text: str) -> list[int]:
    """``--lags``: distinct positive integers separated by commas."""
    lags = [int(tok) if tok.strip().isdecimal() else 0 for tok in text.split(",")]
    if not _distinct_positive_ints(lags):
        raise argparse.ArgumentTypeError(f"expected distinct positive integers, got {text!r}")
    return lags


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Model sidecar keys: (key, required, check, what the check wants). The
# optional keys were added after the first sidecars were written.
SIDECAR_KEYS = (
    ("format", True, lambda v: v == 1 and _is_int(v), "1"),
    ("lags", True, _distinct_positive_ints, "distinct positive integers"),
    ("n_lags", True, _is_int, "an integer"),
    ("cadence_minutes", False, lambda v: _is_int(v) and v > 0, "a positive integer"),
    ("z_threshold", False, lambda v: _is_real(v) and 0 < v < math.inf, "a finite positive real"),
    ("split", False, lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_real, v)),
     "three fractions"),
)


def _check_sidecar(meta, path: str):
    """Raise DataError, naming ``path``, unless ``meta`` has the shape that
    ``prepare_data`` gives a sidecar."""
    if not isinstance(meta, dict):
        raise DataError(f"{path}: sidecar root must be a JSON object")
    for key, required, check, wanted in SIDECAR_KEYS:
        if key not in meta and required:
            raise DataError(f"{path}: sidecar has no {key!r}")
        if key in meta and not check(meta[key]):
            raise DataError(f"{path}: sidecar {key!r} must be {wanted}, got {meta[key]!r}")
    if max(meta["lags"]) > meta["n_lags"]:
        raise DataError(f"{path}: sidecar 'lags' reach lag {max(meta['lags'])}, "
                        f"past its 'n_lags' of {meta['n_lags']}")
    if "split" in meta:
        try:
            SplitSpec(*meta["split"])
        except ValueError as exc:
            raise DataError(f"{path}: sidecar 'split': {exc}") from None


@contextlib.contextmanager
def _naming(path: str):
    """Re-raise a ValueError about the series read from ``path`` (cleaning,
    lagging, splitting) as a DataError that names the file."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- commands

FEATURES_DEFAULTS = {"outdir": "features"}


def cmd_synth(args):
    try:
        spec = SyntheticSpec(n=args.n, seed=args.seed, mean=args.mean)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    series = generate_synthetic(spec)
    write_series_csv(series, args.out)
    print(f"wrote {len(series)} samples to {args.out}")
    return 0


def cmd_clean(args):
    if args.z_threshold is not None and not 0 < args.z_threshold < math.inf:
        raise UsageError(f"--z-threshold must be a finite positive real, got {args.z_threshold!r}")
    series = load_csv(args.input)
    z = args.z_threshold if args.z_threshold is not None else ExperimentConfig.z_threshold
    with _naming(args.input):
        cleaned, replaced = clean(series, z)
    write_series_csv(cleaned, args.out)
    print(f"replaced {replaced} of {len(series)} samples; wrote {args.out}")
    return 0


def cmd_features(args):
    cfg = _resolve_config(args, FEATURES_DEFAULTS)
    cleaned, _ = clean(load_series(cfg), cfg.z_threshold)
    ds = make_lagged_dataset(cleaned, cfg.n_lags)
    ranked = mi_ranking(split(ds, cfg.split)[0], cfg.mi_bins)
    selected = top_lags(ranked, cfg.select_fraction)

    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    lines = ["rank,lag,mi,selected"]
    for rank, (lag, mi) in enumerate(ranked, start=1):
        lines.append(f"{rank},{lag},{mi!r},{int(rank <= len(selected))}")
    atomic_write_text(os.path.join(outdir, "mi_ranking.csv"), "\n".join(lines) + "\n")

    corr = autocorrelation(cleaned, cfg.n_lags)
    lines = ["lag,correlation"]
    for k in range(1, cfg.n_lags + 1):
        lines.append(f"{k},{float(corr[k - 1])!r}")
    atomic_write_text(os.path.join(outdir, "correlation.csv"), "\n".join(lines) + "\n")

    top = ", ".join(str(lag) for lag in selected)
    print(f"selected {len(selected)} of {ds.n_features} lags by MI: {top}")
    print(f"wrote {outdir}/mi_ranking.csv and {outdir}/correlation.csv")
    return 0


def cmd_benchmark(args):
    cfg = _resolve_config(args)
    report = run_experiment(cfg)
    write_report(report, cfg.outdir)
    print(summary_table(report))
    print(f"report written to {cfg.outdir}/report.csv")
    return 0 if any(t.ok for t in report.trials if t.strategy != PERSISTENCE) else 3


def cmd_train(args):
    cfg = _resolve_config(args)
    try:
        hp = lssvm.Hyperparams(args.gamma, args.sigma2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    data = prepare_data(cfg)
    model = lssvm.train(data.train.features, data.train.targets, hp)
    save_model(model, args.model_out, data.model_meta)
    val_pred = lssvm.predict(model, data.val.features)
    print(
        f"trained on {data.train.n_rows} rows (lags {list(data.selected_lags)}); "
        f"validation rmse {rmse(data.val.targets, val_pred):.4f}"
    )
    print(f"model written to {args.model_out} (+ .meta.json)")
    return 0


def _model_and_dataset(args):
    """The saved model, its metadata, and the input series lagged to its lags."""
    model = load_model(args.model)
    meta_path = args.model + ".meta.json"
    if os.path.exists(meta_path):
        if args.lags:
            raise UsageError(
                f"--lags is only for models without a sidecar, and {meta_path} exists; "
                "drop --lags to use the sidecar's lags, outlier gate and split"
            )
        with open(meta_path, "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{meta_path}: invalid JSON: {exc}") from None
        _check_sidecar(meta, meta_path)
    elif args.lags:
        meta = {"lags": args.lags, "n_lags": max(args.lags)}
    else:
        raise DataError(f"{meta_path} not found; pass --lags to describe the model's features")
    if len(meta["lags"]) != model.support_inputs.shape[1]:
        raise DataError(
            f"model expects {model.support_inputs.shape[1]} features but metadata lists {len(meta['lags'])} lags"
        )
    series = load_csv(args.input)
    trained = meta.get("cadence_minutes", series.cadence_minutes)
    if series.cadence_minutes != trained:
        raise DataError(f"{args.input}: {series.cadence_minutes}-minute cadence, "
                        f"but the model was trained on a {trained}-minute series")
    with _naming(args.input):
        cleaned, _ = clean(series, meta.get("z_threshold", ExperimentConfig.z_threshold))
        ds = make_lagged_dataset(cleaned, meta["n_lags"])
        return model, meta, take_lags(ds, meta["lags"])


def cmd_predict(args):
    model, _, ds = _model_and_dataset(args)
    write_forecast_csv(args.out, ds.targets, lssvm.predict(model, ds.features))
    print(f"wrote {ds.n_rows} forecasts to {args.out}")
    return 0


def cmd_evaluate(args):
    model, meta, ds = _model_and_dataset(args)
    spec = SplitSpec(*meta["split"]) if "split" in meta else SplitSpec()
    with _naming(args.input):
        train, val, test = split(ds, spec)
    block = {"train": train, "val": val, "test": test, "all": ds}[args.block]
    pred = lssvm.predict(model, block.features)
    m = metric_report(block.targets, pred)
    mape = format_mape(m.mape)
    print(f"{args.block} block ({block.n_rows} rows): rmse={m.rmse:.4f} mae={m.mae:.4f} mape={mape}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="windlssvm", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="generate a synthetic series CSV")
    p.add_argument("--n", type=int, default=SyntheticSpec.n)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--mean", type=float, default=SyntheticSpec.mean)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("clean", help="replace missing samples and outliers")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--z-threshold", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser(
        "features", help="emit MI ranking and lag-correlation CSVs (default outdir features)"
    )
    _add_experiment_args(p, DATA_FLAGS + (OUTDIR_FLAG,), FEATURES_DEFAULTS)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("tune", help="tune hyperparameters with one strategy")
    p.add_argument("--strategy", required=True, choices=tuple(OPTIMIZERS))
    _add_experiment_args(p, EXPERIMENT_FLAGS)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("train", help="train a model at fixed hyperparameters")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--model-out", required=True)
    _add_experiment_args(p, DATA_FLAGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a series CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    lags_help = "distinct positive lags, comma-separated, when no .meta.json is present"
    p.add_argument("--lags", type=_lag_list, help=lags_help)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a split block")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--lags", type=_lag_list, help=lags_help)
    p.add_argument("--block", choices=("train", "val", "test", "all"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="run the full multi-strategy comparison")
    _add_experiment_args(p, EXPERIMENT_FLAGS)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except lssvm.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # DataError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
