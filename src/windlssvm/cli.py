"""Command-line interface.

Subcommands: synth, clean, features, tune, train, predict, evaluate,
benchmark. Exit codes: 0 success, 1 usage error (a config file that cannot
be read is one), 2 data error (any other file that cannot be read or
written is one), 3 numeric failure. main makes one rule for naming the
input file in a data error: a DataError names its own file (a CSV and its
line, a model file or a sidecar), and any other ValueError that a command
raises is about its input series, so it is printed after that file's name,
whether --in or a config's input_csv gave it; one about a synthetic series
names no file. Each command takes only the experiment flags it reads: train
the data flags (input, lag window, MI selection, outlier gate, split),
features those and --outdir, tune and benchmark those and the tuning flags
(trials, seed, outdir, swarm size and iterations); the search box is fixed
(metrics.HYPERPARAM_SPACE). A JSON config file
(--config) may supply any experiment field, so one file serves every
command; explicit flags take precedence over it. Every config value is
checked against the type its dataclass field declares: a string, a number,
a list (strategies), a nested object (synthetic, split, swarm), null where
the field allows it. A value that does not fit is a usage error naming its
key. predict and evaluate read a model with its sidecar (<model>.meta.json)
through data_io.load_model, by the same rule against the fields of
data_io.ModelMeta: a missing sidecar is a data error naming its path, and
an unknown or missing key, a value that does not fit or a lag count other
than the model's is one naming the file and the key. They build the
model's input rows with experiment.model_rows, the one function that built
them for training: the series cleaned by the sidecar's outlier gate and
lagged to the sidecar's lags only.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import lssvm
from .data_io import (
    DataError,
    _dataclass_from_dict,
    _read_json_object,
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
    model_rows,
    prepare_data,
    run_experiment,
    summary_table,
    write_report,
)
from .metrics import format_mape, metric_report, rmse
from .pipeline import (
    autocorrelation,
    check_z_threshold,
    clean,
    # Not called here; perfbench's traced runs patch them.
    make_lagged_dataset,  # noqa: F401
    mi_ranking,  # noqa: F401
    split,
    take_lags,  # noqa: F401
)
from .synthetic import SyntheticSpec, generate_synthetic


class UsageError(Exception):
    """Bad flags or bad configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from plain JSON data; unknown keys are rejected."""
    if not isinstance(d, dict):
        raise ValueError("config root must be a JSON object")
    return _dataclass_from_dict(ExperimentConfig, d, "config")


# Experiment flags: (flag, config path, type, help). A path is the chain of
# keys into the config JSON that the flag's value is written to. Help texts
# gain the resolved default.

# The data flags: what ``prepare_data`` reads.
DATA_FLAGS = (
    ("--in", ("input_csv",), str, "input series CSV"),
    ("--synth-n", ("synthetic", "n"), int, "synthetic series length (when no --in)"),
    ("--synth-seed", ("synthetic", "seed"), int, "synthetic generator seed"),
    ("--n-lags", ("n_lags",), int, "lag window length"),
    ("--select-fraction", ("select_fraction",), float, "fraction of lags kept by MI"),
    ("--z-threshold", ("z_threshold",), float, "outlier gate width"),
    ("--train-frac", ("split", "train_frac"), float, None),
    ("--val-frac", ("split", "val_frac"), float, None),
)
OUTDIR_FLAG = ("--outdir", ("outdir",), str, "output directory")
# The tuning flags: trials, output and swarm settings.
TUNING_FLAGS = (
    ("--trials", ("trials",), int, "number of trials"),
    ("--base-seed", ("base_seed",), int, "seed of trial 0"),
    OUTDIR_FLAG,
    ("--population", ("swarm", "population"), int, "swarm size"),
    ("--iterations", ("swarm", "max_iter"), int, "optimizer iterations"),
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
            default = getattr(default, key)
        if default is not None:
            help_text = f"{help_text or ''} (default {default})".lstrip()
        p.add_argument(flag, dest=_dest(flag), type=kind, help=help_text)


def _write_flag(raw: dict, path: tuple, value):
    # Settings that are not an object stay as they are, so that the config
    # reader names their key.
    key, *rest = path
    if not rest:
        raw[key] = value
    elif isinstance(raw.setdefault(key, {}), dict):
        raw[key] = {**raw[key], rest[0]: value}


def _resolve_config(args, defaults: dict | None = None) -> ExperimentConfig:
    """Write each given flag into the --config JSON (or an empty one), then
    build the config from it. ``defaults`` holds a command's own top-level
    defaults, which the config file and the flags override. ``args.input``
    becomes the config's ``input_csv``, None for a synthetic series, so that
    ``main`` names the file a data error is about."""
    try:
        raw = dict(defaults or {})
        if args.config:
            raw.update(_read_json_object(args.config, "config"))
        # The synthetic series is the source unless a CSV is named; the
        # --synth-* flags are ignored when one is.
        if args.input is not None:
            raw["synthetic"] = None
        elif raw.get("input_csv") is None and raw.get("synthetic") is None:
            raw["synthetic"] = {}
        # A command's parser holds only the flags it reads.
        for flag, path, _, _ in EXPERIMENT_FLAGS:
            value = getattr(args, _dest(flag), None)
            if value is not None and (path[0] != "synthetic" or raw.get("synthetic") is not None):
                _write_flag(raw, path, value)
        if getattr(args, "strategy", None):
            raw["strategies"] = [args.strategy]
        cfg = config_from_dict(raw)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from None
    except OSError as exc:
        raise UsageError(f"cannot read config file {args.config}: {exc.strerror or exc}") from None
    args.input = cfg.input_csv
    return cfg


# ---------------------------------------------------------------- commands

FEATURES_DEFAULTS = {"outdir": "features"}


def cmd_synth(args):
    try:
        spec = SyntheticSpec(n=args.n, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    series = generate_synthetic(spec)
    write_series_csv(series, args.out)
    print(f"wrote {len(series)} samples to {args.out}")
    return 0


def cmd_clean(args):
    try:
        check_z_threshold(args.z_threshold, "--z-threshold")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    series = load_csv(args.input)
    cleaned, replaced = clean(series, args.z_threshold)
    write_series_csv(cleaned, args.out)
    print(f"replaced {replaced} of {len(series)} samples; wrote {args.out}")
    return 0


def cmd_features(args):
    cfg = _resolve_config(args, FEATURES_DEFAULTS)
    data = prepare_data(cfg)
    corr = autocorrelation(data.cleaned, cfg.n_lags)
    selected = data.model_meta.lags

    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    lines = ["rank,lag,mi,selected"]
    for rank, (lag, mi) in enumerate(data.ranking, start=1):
        lines.append(f"{rank},{lag},{mi!r},{int(rank <= len(selected))}")
    atomic_write_text(os.path.join(outdir, "mi_ranking.csv"), "\n".join(lines) + "\n")

    lines = ["lag,correlation"]
    for k in range(1, cfg.n_lags + 1):
        lines.append(f"{k},{float(corr[k - 1])!r}")
    atomic_write_text(os.path.join(outdir, "correlation.csv"), "\n".join(lines) + "\n")

    top = ", ".join(str(lag) for lag in selected)
    print(f"selected {len(selected)} of {cfg.n_lags} lags by MI: {top}")
    print(f"wrote {outdir}/mi_ranking.csv and {outdir}/correlation.csv")
    return 0


def cmd_benchmark(args):
    cfg = _resolve_config(args)
    data = prepare_data(cfg)
    # An unusable --outdir is found here, not after the whole run.
    os.makedirs(cfg.outdir, exist_ok=True)
    report = run_experiment(cfg, data=data)
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
        f"trained on {data.train.n_rows} rows (lags {list(data.model_meta.lags)}); "
        f"validation rmse {rmse(data.val.targets, val_pred):.4f}"
    )
    print(f"model written to {args.model_out} (+ .meta.json)")
    return 0


def _model_and_dataset(args):
    """The saved model, its sidecar, and its input rows over the input
    series (``model_rows``)."""
    model, meta = load_model(args.model)
    series = load_csv(args.input)
    return model, meta, model_rows(series, meta)


def cmd_predict(args):
    model, _, ds = _model_and_dataset(args)
    write_forecast_csv(args.out, ds.targets, lssvm.predict(model, ds.features))
    print(f"wrote {ds.n_rows} forecasts to {args.out}")
    return 0


def cmd_evaluate(args):
    model, meta, ds = _model_and_dataset(args)
    train, val, test = split(ds, meta.split)
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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("clean", help="replace missing samples and outliers")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--z-threshold", type=float, default=ExperimentConfig.z_threshold)
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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a split block")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
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
        # A DataError names its own file; any other ValueError is about what
        # was read from the input series, so it gains the file's name.
        if not isinstance(exc, (DataError, OSError)) and getattr(args, "input", None):
            exc = f"{args.input}: {exc}"
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
