import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from windlssvm import cli, experiment, lssvm
from windlssvm.cli import EXPERIMENT_FLAGS, _resolve_config, build_parser, main
from windlssvm.data_io import load_csv, load_model, write_series_csv
from windlssvm.experiment import OPTIMIZERS, prepare_data
from windlssvm.metrics import LssvmFitness, metric_report
from windlssvm.pipeline import SplitSpec, TimeSeries, split
from windlssvm.swarm import SearchSpace

from windlike import (
    BLANK_SLOT,
    CADENCE_SLOT,
    CALM_SLOTS,
    CHANGED_CADENCE_MINUTES,
    DUPLICATE_SLOT,
    GAP_SLOTS,
    JUNK_SLOT,
    JUNK_STAMP,
    SPIKES_SLOTS,
    SPIKES_SPEED,
    STORM_SLOTS,
    line_of,
    stamp,
    write_windlike_csv,
)


@pytest.fixture()
def series_csv(tmp_path):
    path = str(tmp_path / "series.csv")
    assert main(["synth", "--n", "600", "--seed", "3", "--out", path]) == 0
    return path


@pytest.fixture()
def hourly_csv(tmp_path):
    """720 synthetic samples stamped an hour apart."""
    path = str(tmp_path / "hourly.csv")
    assert main(["synth", "--n", "720", "--seed", "3", "--out", path]) == 0
    write_series_csv(TimeSeries(load_csv(path).values, cadence_minutes=60), path)
    return path


# Marks a sidecar key that a test removes.
_DROP = object()
# Marks sidecar text that a test writes as it is, in place of JSON.
_TEXT = object()


def _tiny_flags(outdir):
    return [
        "--synth-n", "600", "--synth-seed", "3",
        "--n-lags", "8", "--select-fraction", "0.25",
        "--population", "6", "--iterations", "4",
        "--trials", "1", "--base-seed", "10",
        "--outdir", outdir,
    ]


class TestSynth:
    def test_writes_loadable_csv(self, series_csv):
        s = load_csv(series_csv)
        assert len(s) == 600
        assert not s.missing_mask.any()

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["synth", "--n", "600", "--seed", "9", "--out", a])
        main(["synth", "--n", "600", "--seed", "9", "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_too_short_is_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["synth", "--n", "10", "--out", str(out)]) == 1
        # So is --mean: the series' level is synthetic.MEAN.
        assert main(["synth", "--mean", "8", "--out", str(out)]) == 1
        assert not out.exists()


class TestClean:
    def test_clean_pass_through(self, tmp_path, series_csv):
        out = str(tmp_path / "clean.csv")
        assert main(["clean", "--in", series_csv, "--out", out]) == 0
        assert len(load_csv(out)) == 600

    def test_out_directory_data_error_leaves_no_temp_file(self, tmp_path, series_csv, capsys):
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert main(["clean", "--in", series_csv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "series.csv"]

    def test_fills_missing(self, tmp_path):
        src = tmp_path / "gappy.csv"
        src.write_text("2015-04-01T00:00,5.0\n2015-04-01T00:20,\n2015-04-01T00:40,7.0\n")
        out = str(tmp_path / "fixed.csv")
        assert main(["clean", "--in", str(src), "--out", out]) == 0
        assert not load_csv(out).missing_mask.any()

    def test_keeps_input_stamps(self, tmp_path):
        # 00:40 is absent: clean fills that slot and stamps it on the input's grid
        src = tmp_path / "2020.csv"
        src.write_text("2020-01-01T00:00,5.0\n2020-01-01T00:20,6.0\n2020-01-01T01:00,7.0\n")
        out = tmp_path / "fixed.csv"
        assert main(["clean", "--in", str(src), "--out", str(out)]) == 0
        stamps = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        assert stamps == ["2020-01-01T00:00", "2020-01-01T00:20",
                          "2020-01-01T00:40", "2020-01-01T01:00"]
        back = load_csv(str(out))
        assert back.values.tolist() == [5.0, 6.0, 6.0, 7.0]
        assert not back.missing_mask.any()

    def test_malformed_input_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("abc,xyz\n")
        assert main(["clean", "--in", str(src), "--out", str(tmp_path / "o.csv")]) == 2

    def test_junk_stamps_exit_2(self, tmp_path, series_csv):
        lines = Path(series_csv).read_text().splitlines()
        junk = tmp_path / "junk.csv"
        junk.write_text("\n".join(["not-a-time," + ln.split(",")[1] for ln in lines[1:]]) + "\n")
        assert main(["clean", "--in", str(junk), "--out", str(tmp_path / "o.csv")]) == 2

    def test_zoned_stamps_exit_2(self, tmp_path, series_csv, capsys):
        lines = Path(series_csv).read_text().splitlines()
        zoned = tmp_path / "zoned.csv"
        zoned.write_text("\n".join([lines[0]] + [ln.replace(",", "+02:00,") for ln in lines[1:]]))
        assert main(["clean", "--in", str(zoned), "--out", str(tmp_path / "o.csv")]) == 2
        assert "line 2: timestamp '2015-04-01T00:00+02:00' has a time zone" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["clean", "--in", str(tmp_path / "nope.csv"), "--out", "o.csv"]) == 2

    def test_hourly_file_keeps_its_cadence(self, tmp_path, hourly_csv, capsys):
        out = tmp_path / "clean.csv"
        assert main(["clean", "--in", hourly_csv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("replaced 0 of 720 samples")
        assert out.read_text() == Path(hourly_csv).read_text()
        stamps = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:4]]
        assert stamps == ["2015-04-01T00:00", "2015-04-01T01:00", "2015-04-01T02:00"]

    @pytest.mark.parametrize("z", ["nan", "inf", "0", "-1"])
    def test_bad_z_threshold_usage_error(self, tmp_path, series_csv, capsys, z):
        out = tmp_path / "o.csv"
        assert main(["clean", "--in", series_csv, "--z-threshold", z, "--out", str(out)]) == 1
        assert "--z-threshold" in capsys.readouterr().err
        assert not out.exists()


class TestFeatures:
    def test_emits_ranking_and_correlation(self, tmp_path):
        outdir = str(tmp_path / "feat")
        code = main(["features", "--synth-n", "600", "--synth-seed", "3",
                     "--n-lags", "8", "--outdir", outdir])
        assert code == 0
        ranking = Path(os.path.join(outdir, "mi_ranking.csv")).read_text().splitlines()
        corr = Path(os.path.join(outdir, "correlation.csv")).read_text().splitlines()
        assert len(ranking) == 9 and ranking[0] == "rank,lag,mi,selected"
        assert len(corr) == 9 and corr[0] == "lag,correlation"
        assert sum(int(r.split(",")[3]) for r in ranking[1:]) == 1  # ceil(0.1*8)

    # features reports the ranking and the selection that prepare_data makes
    # for train and benchmark. The CSV case takes a split and a gate other
    # than the defaults (z = 3 replaces one sample of this series).
    @pytest.mark.parametrize("from_csv, data_flags", [
        (False, ["--synth-n", "600", "--synth-seed", "3"]),
        (True, ["--train-frac", "0.5", "--val-frac", "0.25", "--z-threshold", "3"]),
    ], ids=["synthetic", "csv-split-and-gate"])
    def test_reports_the_models_selection(self, tmp_path, series_csv, from_csv, data_flags):
        source = ["--in", series_csv] if from_csv else []
        flags = source + data_flags + ["--n-lags", "8", "--select-fraction", "0.25"]
        outdir = tmp_path / "feat"
        assert main(["features", *flags, "--outdir", str(outdir)]) == 0
        data = prepare_data(_resolve_config(build_parser().parse_args(["features", *flags])))
        with open(outdir / "mi_ranking.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["lag"]), r["mi"]) for r in rows] == [(lag, repr(mi)) for lag, mi in data.ranking]
        assert tuple(int(r["lag"]) for r in rows if r["selected"] == "1") == data.model_meta.lags

    @pytest.mark.parametrize("config_outdir,flag_outdir,expected", [
        (None, None, "features"),
        ("cfgdir", None, "cfgdir"),
        ("cfgdir", "flagdir", "flagdir"),
    ])
    def test_outdir_precedence(self, tmp_path, monkeypatch, config_outdir, flag_outdir, expected):
        monkeypatch.chdir(tmp_path)
        cfg = {"synthetic": {"n": 600, "seed": 3}, "n_lags": 8}
        if config_outdir is not None:
            cfg["outdir"] = config_outdir
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["features", "--config", "cfg.json"]
        if flag_outdir is not None:
            argv += ["--outdir", flag_outdir]
        assert main(argv) == 0
        written = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert written == [expected]
        assert sorted(os.listdir(expected)) == ["correlation.csv", "mi_ranking.csv"]

    def test_constant_series_named_before_any_output(self, tmp_path, capsys):
        # The lag correlation of a constant series is undefined, though its
        # MI ranking is not; neither table is written.
        src = tmp_path / "c.csv"
        write_series_csv(TimeSeries(np.full(600, 5.0)), str(src))
        outdir = tmp_path / "feat"
        assert main(["features", "--in", str(src), "--n-lags", "8",
                     "--outdir", str(outdir)]) == 2
        assert f"data error: {src}: correlation undefined" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag", ["--z-threshold", "--train-frac"])
    def test_nan_setting_usage_error(self, tmp_path, flag):
        outdir = tmp_path / "feat"
        assert main(["features", "--synth-n", "600", "--n-lags", "8", flag, "nan",
                     "--outdir", str(outdir)]) == 1
        assert not outdir.exists()


class TestTuneAndBenchmark:
    def test_tune_writes_artifacts(self, tmp_path):
        outdir = str(tmp_path / "run")
        assert main(["tune", "--strategy", "qpso"] + _tiny_flags(outdir)) == 0
        assert os.path.exists(os.path.join(outdir, "report.csv"))
        assert os.path.exists(os.path.join(outdir, "predictions_qpso_0.csv"))
        assert os.path.exists(os.path.join(outdir, "model_qpso_0"))

    def test_unknown_strategy_usage_error(self, tmp_path):
        assert main(["tune", "--strategy", "sa"] + _tiny_flags(str(tmp_path))) == 1

    def test_strategy_choices_follow_optimizers(self, capsys):
        assert main(["tune", "--help"]) == 0
        assert "--strategy {" + ",".join(OPTIMIZERS) + "}" in capsys.readouterr().out

    def test_benchmark_all_strategies(self, tmp_path):
        outdir = str(tmp_path / "bench")
        assert main(["benchmark"] + _tiny_flags(outdir)) == 0
        report = Path(os.path.join(outdir, "report.csv")).read_text()
        for strat in ("pso", "qpso", "ebqpso", "persistence"):
            assert strat in report

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = {
            "synthetic": {"n": 600, "seed": 3},
            "n_lags": 8,
            "select_fraction": 0.25,
            "swarm": {"population": 6, "max_iter": 4},
            "strategies": ["qpso"],
            "trials": 2,
            "base_seed": 10,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = str(tmp_path / "out")
        # --trials 1 must override the config file's 2
        assert main(["benchmark", "--config", str(cfg_path), "--trials", "1",
                     "--outdir", outdir]) == 0
        report = Path(os.path.join(outdir, "report.csv")).read_text().splitlines()
        trial_rows = [r for r in report if r.startswith("trial,qpso")]
        assert len(trial_rows) == 1

    def test_unknown_config_key_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_key": 1}))
        assert main(["benchmark", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("key", ["sinusoids", "ar_coeff", "ar_std", "noise_std", "floor",
                                     "cadence_minutes", "mean"])
    def test_fixed_synthetic_shape_key_usage_error(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"n": 600, key: 1}}))
        assert main(["benchmark", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 1
        assert f"unknown SyntheticSpec keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_json_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["benchmark", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("text, complaint", [
        (b"\xff{}", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (b"[1, 2]", "config root must be a JSON object"),
    ], ids=["non-utf8", "not-an-object"])
    def test_unusable_config_named(self, tmp_path, capsys, text, complaint):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(text)
        assert main(["tune", "--strategy", "pso", "--config", str(cfg_path)]) == 1
        assert f"usage error: {cfg_path}: {complaint}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["tune", "--strategy", "pso"], ["benchmark"]])
    def test_unusable_outdir_refused_before_the_run(self, tmp_path, monkeypatch, capsys, command):
        positions = []
        real_call = LssvmFitness.__call__
        monkeypatch.setattr(LssvmFitness, "__call__",
                            lambda fit, position: positions.append(position) or real_call(fit, position))
        outdir = tmp_path / "afile"
        outdir.write_text("")
        assert main(command + _tiny_flags(str(outdir))) == 2
        assert positions == []
        assert f"data error: [Errno 17] File exists: '{outdir}'" in capsys.readouterr().err

    def test_empty_validation_block_refused_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                           series_csv):
        # 600 samples give 592 lagged rows, of which a fraction of 0.001 is
        # no row.
        positions = []
        real_call = LssvmFitness.__call__
        monkeypatch.setattr(LssvmFitness, "__call__",
                            lambda fit, position: positions.append(position) or real_call(fit, position))
        fracs = ["--in", series_csv, "--train-frac", "0.998", "--val-frac", "0.001"]
        outdir, model = tmp_path / "run", tmp_path / "m"
        assert main(["benchmark"] + _tiny_flags(str(outdir)) + fracs) == 2
        assert main(["train", "--n-lags", "8", "--gamma", "10", "--sigma2", "10",
                     "--model-out", str(model)] + fracs) == 2
        assert positions == []
        assert not outdir.exists() and not model.exists()
        assert not Path(f"{model}.meta.json").exists()
        err = capsys.readouterr().err
        assert err.count(f"data error: {series_csv}: the validation block is empty: "
                         "a fraction of 0.001 of 592 rows holds no row") == 2

    @staticmethod
    def _refused(tmp_path, monkeypatch, capsys, override, flags=()) -> str:
        """Run benchmark on a tiny config with ``override`` and ``flags``;
        assert it exits 1 and writes nothing, and return its stderr."""
        cfg = {"synthetic": {"n": 600, "seed": 3}, "n_lags": 8, "select_fraction": 0.25,
               "swarm": {"population": 6, "max_iter": 4}, "strategies": ["qpso"], "trials": 1,
               "outdir": "o"}
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({**cfg, **override}))
        assert main(["benchmark", "--config", "cfg.json", *flags]) == 1
        assert os.listdir() == ["cfg.json"]
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("override,key", [
        ({"trials": 1.5}, "config key 'trials'"),
        ({"swarm": {"population": 2.5, "max_iter": 4}}, "SwarmConfig key 'population'"),
        ({"synthetic": {"n": 600.0, "seed": 3}}, "SyntheticSpec key 'n'"),
    ])
    def test_non_integer_config_value_usage_error(self, tmp_path, monkeypatch, capsys, override,
                                                  key):
        err = self._refused(tmp_path, monkeypatch, capsys, override)
        assert f"{key} must be an integer" in err

    # A row's test id keeps the number the row was first given, so that
    # deleting a row renames no other row's test. A new row takes number 16.
    @pytest.mark.parametrize("override,message", [
        pytest.param(override, message, id=f"override{i}-{message}")
        for i, override, message in [
            (0, {"z_threshold": "4"}, "config key 'z_threshold' must be a real number, got '4'"),
            (1, {"z_threshold": True}, "config key 'z_threshold' must be a real number, got True"),
            (2, {"split": {"train_frac": "0.6", "val_frac": 0.2}},
             "SplitSpec key 'train_frac' must be a real number"),
            # Each type a config field declares, not only the real numbers.
            (7, {"split": [0.6, 0.2, 0.2]},
             "config key 'split' must be a SplitSpec object, got [0.6, 0.2, 0.2]"),
            (8, {"swarm": 5}, "config key 'swarm' must be a SwarmConfig object, got 5"),
            (9, {"synthetic": "x"},
             "config key 'synthetic' must be a SyntheticSpec object or null, got 'x'"),
            (10, {"input_csv": 0}, "config key 'input_csv' must be a string or null, got 0"),
            (11, {"strategies": "pso"}, "config key 'strategies' must be a list, got 'pso'"),
            (12, {"strategies": ["pso", 1]},
             "config key 'strategies' item 1 must be a string, got 1"),
            (14, {"outdir": 7}, "config key 'outdir' must be a string, got 7"),
            (15, {"synthetic": 0},
             "config key 'synthetic' must be a SyntheticSpec object or null, got 0"),
        ]
    ])
    def test_non_real_config_value_usage_error(self, tmp_path, monkeypatch, capsys, override,
                                               message):
        assert message in self._refused(tmp_path, monkeypatch, capsys, override)

    @pytest.mark.parametrize("override,flags,message", [
        ({"split": 3}, ["--train-frac", "0.5"], "config key 'split' must be a SplitSpec object"),
        ({"synthetic": "x"}, ["--synth-n", "700"], "config key 'synthetic' must be a SyntheticSpec"),
    ])
    def test_flag_into_mistyped_config_value_usage_error(self, tmp_path, monkeypatch, capsys,
                                                         override, flags, message):
        assert message in self._refused(tmp_path, monkeypatch, capsys, override, flags)

    def test_tune_exits_3_when_every_trial_fails(self, tmp_path, monkeypatch):
        # a box deep in singular territory: every KKT solve fails
        box = SearchSpace(lower=np.log10([1e11, 1e29]), upper=np.log10([1e12, 1e30]))
        monkeypatch.setattr(experiment, "HYPERPARAM_SPACE", box)
        flags = _tiny_flags(str(tmp_path / "run"))
        assert main(["tune", "--strategy", "qpso"] + flags) == 3
        with open(tmp_path / "run" / "report.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert (row["kind"], row["strategy"], row["rmse"]) == ("trial", "qpso", "")
        # the solver's message has commas, and the quoted cell keeps all of it
        assert row["error"].startswith("NumericError: ")
        assert "gamma=" in row["error"] and "sigma2=" in row["error"]
        assert None not in row  # no spill-over fields beyond the header

    def test_calm_spell_leaves_mape_undefined(self, tmp_path, series_csv):
        # three 0 m/s samples in the test block survive a wide outlier gate
        lines = Path(series_csv).read_text().splitlines()
        for i in (561, 562, 563):  # line 0 is the header
            lines[i] = lines[i].split(",")[0] + ",0.0"
        calm = tmp_path / "calm.csv"
        calm.write_text("\n".join(lines) + "\n")
        outdir = tmp_path / "run"
        flags = _tiny_flags(str(outdir)) + ["--in", str(calm), "--z-threshold", "10"]
        assert main(["benchmark"] + flags) == 0
        with open(outdir / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 1 + 1 + 2 * 4  # trials + persistence, mean/std per strategy
        for row in rows:
            assert row["mape"] == ""
            assert float(row["rmse"]) >= 0.0 and float(row["mae"]) >= 0.0


# Per experiment flag: the value passed on the command line, and a different
# value for the same field in a --config file, which the flag must override.
FLAG_VALUES = {
    "--trials": ("3", 4),
    "--base-seed": ("7", 8),
    "--outdir": ("elsewhere", "configured"),
    "--in": ("series.csv", "other.csv"),
    "--synth-n": ("700", 800),
    "--synth-seed": ("9", 10),
    "--n-lags": ("12", 13),
    "--select-fraction": ("0.3", 0.4),
    "--z-threshold": ("5.5", 6.5),
    "--train-frac": ("0.5", 0.4),
    "--val-frac": ("0.3", 0.4),
    "--population": ("7", 8),
    "--iterations": ("9", 10),
}


def _resolve(argv, config=None, tmp_path=None):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    return _resolve_config(build_parser().parse_args(["benchmark"] + argv))


def _field(cfg, path):
    for key in path:
        cfg = getattr(cfg, key)
    return cfg


# A flag's test id numbers it by its row in this list, the flag table as it
# stood when the ids were first made, so that removing a flag renames no other
# flag's tests. A new flag goes at the end.
FLAG_ID_ORDER = ("--in", "--synth-n", "--synth-seed", "--n-lags", "--select-fraction",
                 "--mi-bins", "--z-threshold", "--train-frac", "--val-frac", "--test-frac",
                 "--trials", "--base-seed", "--outdir", "--population", "--iterations",
                 "--jumping-rate", "--n-transposons", "--lam", "--ce-alpha",
                 "--gamma-min", "--gamma-max", "--sigma2-min", "--sigma2-max")
FLAG_ROWS = [pytest.param(flag, path, kind,
                          id=f"{flag}-path{FLAG_ID_ORDER.index(flag)}-{kind.__name__}")
             for flag, path, kind, _ in EXPERIMENT_FLAGS]


class TestFlagTable:
    @pytest.mark.parametrize("flag,path,kind", FLAG_ROWS)
    def test_flag_sets_field(self, flag, path, kind):
        value, _ = FLAG_VALUES[flag]
        cfg = _resolve([flag, value])
        assert _field(cfg, path) == kind(value)

    @pytest.mark.parametrize("flag,path,kind", FLAG_ROWS)
    def test_flag_overrides_config(self, tmp_path, flag, path, kind):
        value, configured = FLAG_VALUES[flag]
        key, *rest = path
        config = {key: {rest[0]: configured} if rest else configured}
        cfg = _resolve([flag, value], config, tmp_path)
        assert _field(cfg, path) == kind(value)

    def test_train_frac_alone_keeps_the_default_validation_fraction(self):
        # The test block takes the rest, so no other split flag is needed.
        assert _resolve(["--train-frac", "0.5"]).split == SplitSpec(0.5, 0.2)
        assert _resolve(["--val-frac", "0.1"]).split == SplitSpec(0.6, 0.1)

    def test_synth_flags_ignored_under_input(self, tmp_path):
        cfg = _resolve(["--in", "series.csv", "--synth-n", "5000", "--synth-seed", "1"])
        assert cfg.input_csv == "series.csv" and cfg.synthetic is None
        cfg = _resolve(["--synth-n", "5000"], {"input_csv": "series.csv"}, tmp_path)
        assert cfg.input_csv == "series.csv" and cfg.synthetic is None

    def test_input_flag_replaces_configured_synthetic(self, tmp_path):
        cfg = _resolve(["--in", "series.csv"], {"synthetic": {"n": 700}}, tmp_path)
        assert cfg.input_csv == "series.csv" and cfg.synthetic is None


class TestTrainPredictEvaluate:
    # The second case trains with a split and a gate other than the defaults
    # (z = 3 replaces one sample of this series); evaluate must take both from
    # the sidecar.
    @pytest.mark.parametrize("data_flags", [
        [],
        ["--train-frac", "0.5", "--val-frac", "0.25", "--z-threshold", "3"],
    ], ids=["default", "split-and-gate"])
    def test_evaluate_benchmark_model_matches_report(self, tmp_path, series_csv, capsys,
                                                     data_flags):
        outdir = tmp_path / "bench"
        flags = _tiny_flags(str(outdir)) + ["--in", series_csv] + data_flags
        assert main(["benchmark"] + flags) == 0
        with open(outdir / "report.csv") as fh:
            (row,) = [r for r in csv.DictReader(fh) if r["kind"] == "trial" and r["strategy"] == "qpso"]
        with open(outdir / "predictions_qpso_0.csv") as fh:
            n_rows = sum(1 for _ in fh) - 1
        capsys.readouterr()
        assert main(["evaluate", "--model", str(outdir / "model_qpso_0"), "--in", series_csv,
                     "--block", "test"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(f"test block ({n_rows} rows): rmse={float(row['rmse']):.4f} ")

        # predict on the training series reads the test block's rows as the
        # tuned trial did. Its forecasts may differ by rounding, since predict
        # walks other 64-row blocks: at most an ulp of sum |a_i|, the largest
        # magnitude that the kernel sum sum_i a_i k_i (0 < k_i <= 1) reaches.
        full = tmp_path / "full.csv"
        assert main(["predict", "--model", str(outdir / "model_qpso_0"), "--in", series_csv,
                     "--out", str(full)]) == 0
        want = np.genfromtxt(outdir / "predictions_qpso_0.csv", delimiter=",", names=True)
        got = np.genfromtxt(full, delimiter=",", names=True)[-n_rows:]
        assert got["actual"].tobytes() == want["actual"].tobytes()
        ulp = np.finfo(float).eps * np.abs(load_model(str(outdir / "model_qpso_0"))[0].dual_coeffs).sum()
        assert np.abs(got["forecast"] - want["forecast"]).max() <= ulp

    @pytest.mark.parametrize("fracs,sizes", [
        (["--train-frac", "0.5"], (296, 118, 178)),
        (["--train-frac", "0.5", "--val-frac", "0.25"], (296, 148, 148)),
    ], ids=["train-frac-alone", "train-and-val-frac"])
    def test_test_block_takes_the_rest(self, tmp_path, series_csv, capsys, fracs, sizes):
        # 592 lagged rows: floor-sized train and validation blocks, the rest
        # to test, which evaluate scores row for row.
        model_path = str(tmp_path / "m.lssvm")
        assert main(["train", "--in", series_csv, "--n-lags", "8", "--select-fraction", "0.25",
                     "--gamma", "100", "--sigma2", "50", "--model-out", model_path, *fracs]) == 0
        assert capsys.readouterr().out.startswith(f"trained on {sizes[0]} rows ")
        model, meta = load_model(model_path)
        blocks = split(experiment.model_rows(load_csv(series_csv), meta), meta.split)
        assert tuple(b.n_rows for b in blocks) == sizes
        for name, block in zip(("train", "val", "test"), blocks):
            assert main(["evaluate", "--model", model_path, "--in", series_csv,
                         "--block", name]) == 0
            m = metric_report(block.targets, lssvm.predict(model, block.features))
            assert capsys.readouterr().out.startswith(
                f"{name} block ({block.n_rows} rows): rmse={m.rmse:.4f} mae={m.mae:.4f} ")

    def test_full_chain(self, tmp_path, series_csv):
        model_path = str(tmp_path / "model.lssvm")
        code = main([
            "train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
            "--n-lags", "8", "--select-fraction", "0.25",
            "--model-out", model_path,
        ])
        assert code == 0
        assert os.path.exists(model_path)
        assert os.path.exists(model_path + ".meta.json")

        pred_path = str(tmp_path / "pred.csv")
        assert main(["predict", "--model", model_path, "--in", series_csv,
                     "--out", pred_path]) == 0
        rows = Path(pred_path).read_text().splitlines()
        assert rows[0] == "index,actual,forecast,abs_error"
        assert len(rows) - 1 == 600 - 8

        assert main(["evaluate", "--model", model_path, "--in", series_csv]) == 0
        assert main(["evaluate", "--model", model_path, "--in", series_csv,
                     "--block", "all"]) == 0

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_cadence_mismatch_refused(self, tmp_path, series_csv, hourly_csv, capsys, command):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        meta_path = Path(model_path + ".meta.json")
        meta = json.loads(meta_path.read_text())
        assert meta["cadence_minutes"] == 20
        out = tmp_path / "p.csv"
        argv = [command, "--model", model_path, "--in", hourly_csv]
        argv += ["--out", str(out)] if command == "predict" else []
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"data error: {hourly_csv}: 60-minute cadence, but the model was "
                       "trained on a 20-minute series\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,value,complaint", [
        ("lags", _DROP, "sidecar has no 'lags'"),
        (None, "list root", "sidecar root must be a JSON object"),
        ("format", 7, "sidecar 'format' is 7, not 2; retrain the model"),
        ("lags", 2, "sidecar key 'lags' must be a list, got 2"),
        ("lags", [1, 1], "sidecar 'lags' must be distinct positive integers"),
        ("n_lags", "8", "sidecar key 'n_lags' must be an integer, got '8'"),
        ("z_threshold", None, "sidecar key 'z_threshold' must be a real number, got None"),
        ("split", 7, "sidecar key 'split' must be a SplitSpec object, got 7"),
        # The format-1 sidecar's split, a list of three fractions.
        ("split", [0.6, 0.2, 0.2],
         "sidecar key 'split' must be a SplitSpec object, got [0.6, 0.2, 0.2]"),
        ("lags", [1, 9], "sidecar 'lags' reach lag 9, past its 'n_lags' of 8"),
        ("split", {"train_frac": 0.5, "val_frac": 0.5},
         "split fractions must be positive and sum to less than 1, got train_frac 0.5"),
        ("split", {"train_frac": 0.8, "val_frac": -0.2},
         "split fractions must be positive and sum to less than 1, got train_frac 0.8"),
        ("cadence_minutes", "x", "sidecar key 'cadence_minutes' must be an integer, got 'x'"),
        ("cadence_minutes", 0, "sidecar 'cadence_minutes' must be a positive integer"),
        (_TEXT, "{not json", "invalid JSON: Expecting property name"),
        (_TEXT, b"\xff\xfe{}", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        ("z_treshold", 2.0, "unknown sidecar keys: ['z_treshold']"),
        ("format", _DROP, "sidecar has no 'format'"),
        ("cadence_minutes", _DROP, "sidecar has no 'cadence_minutes'"),
        ("z_threshold", _DROP, "sidecar has no 'z_threshold'"),
        ("split", _DROP, "sidecar has no 'split'"),
        ("cadence_minutes", None, "sidecar key 'cadence_minutes' must be an integer, got None"),
        # The split is read as the config's split object is.
        ("split", {"train_frac": "0.6", "val_frac": 0.2},
         "SplitSpec key 'train_frac' must be a real number, got '0.6'"),
        ("split", {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2},
         "unknown SplitSpec keys: ['test_frac']"),
        ("split", {"train_frac": 0.6, "val_frac": False},
         "SplitSpec key 'val_frac' must be a real number, got False"),
        # The model reads 2 lags.
        ("lags", [1, 2, 3], "model expects 2 features but metadata lists 3 lags"),
        # data_io reads the format before ModelMeta's fields: a JSON 2.0
        # equals 2 but is no integer, and true and null are no format.
        ("format", 2.0, "sidecar key 'format' must be an integer, got 2.0"),
        ("format", True, "sidecar 'format' is True, not 2; retrain the model"),
        ("format", None, "sidecar 'format' is None, not 2; retrain the model"),
    ])
    def test_malformed_sidecar_data_error(self, tmp_path, series_csv, capsys, key, value,
                                          complaint):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        meta_path = Path(model_path + ".meta.json")
        meta = json.loads(meta_path.read_text())
        if key is None:
            meta = [meta]
        elif value is _DROP:
            del meta[key]
        elif key is not _TEXT:
            meta[key] = value
        if isinstance(value, bytes):
            meta_path.write_bytes(value)
        else:
            meta_path.write_text(value if key is _TEXT else json.dumps(meta))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        for argv in (["predict", "--out", str(out)], ["evaluate"]):
            assert main(argv + ["--model", model_path, "--in", series_csv]) == 2
            err = capsys.readouterr().err
            assert f"{meta_path}: {complaint}" in err
        assert not out.exists()

    def test_missing_sidecar_data_error(self, tmp_path, series_csv, capsys):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        os.remove(model_path + ".meta.json")
        out = tmp_path / "p.csv"
        capsys.readouterr()
        for argv in (["predict", "--out", str(out)], ["evaluate"]):
            assert main(argv + ["--model", model_path, "--in", series_csv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and f"{model_path}.meta.json" in err
        assert not out.exists()

    def test_model_without_support_rows_named(self, tmp_path, series_csv, capsys):
        model_path = tmp_path / "m.lssvm"
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", str(model_path)])
        blob = model_path.read_bytes()
        # n = 0 support rows: the header, then only the bias.
        model_path.write_bytes(blob[:8] + (0).to_bytes(8, "little") + blob[16:40] + blob[-8:])
        capsys.readouterr()
        for argv in (["predict", "--out", str(tmp_path / "p.csv")], ["evaluate"]):
            assert main(argv + ["--model", str(model_path), "--in", series_csv]) == 2
            assert f"{model_path}: corrupt model file" in capsys.readouterr().err

    def test_sidecar_text(self, tmp_path, series_csv):
        cfg, model_path = tmp_path / "c.json", tmp_path / "m.lssvm"
        cfg.write_text('{"z_threshold": 4}')
        assert main(["train", "--in", series_csv, "--config", str(cfg), "--n-lags", "8",
                     "--select-fraction", "0.25", "--gamma", "100", "--sigma2", "50",
                     "--model-out", str(model_path)]) == 0
        assert Path(f"{model_path}.meta.json").read_text() == (
            '{"cadence_minutes": 20, "format": 2, "lags": [1, 2], "n_lags": 8, '
            '"split": {"train_frac": 0.6, "val_frac": 0.2}, "z_threshold": 4}\n'
        )

    def test_failed_sidecar_write_leaves_no_temp_file(self, tmp_path, series_csv, capsys):
        d = tmp_path / "d"
        (d / "m.lssvm.meta.json").mkdir(parents=True)
        assert main(["train", "--in", series_csv, "--n-lags", "8", "--select-fraction", "0.25",
                     "--gamma", "100", "--sigma2", "50", "--model-out", str(d / "m.lssvm")]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert list(tmp_path.rglob("*.tmp")) == []
        # A model left behind could be read beside an older sidecar.
        assert not (d / "m.lssvm").exists()

    def test_train_bad_gamma_usage_error(self, tmp_path, series_csv):
        assert main(["train", "--in", series_csv, "--gamma", "-1", "--sigma2", "50",
                     "--model-out", str(tmp_path / "m")]) == 1

    @pytest.mark.parametrize("command, rows, complaint", [
        ("clean", "non-utf8", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        ("predict", 5, "series length 5 must exceed n_lags 8"),
        ("evaluate", 12, "need at least 5 rows to split, got 4"),
        ("clean", "blank", "every sample is missing"),
        ("predict", "blank", "every sample is missing"),
        # load_csv's DataError names the file itself; main adds no second name.
        ("train", "bad-stamp", "line 4: unparseable timestamp 'junk'"),
        ("features", "bad-stamp", "line 4: unparseable timestamp 'junk'"),
    ])
    def test_series_data_error_names_file(self, tmp_path, series_csv, capsys, command, rows,
                                          complaint):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        header, *lines = Path(series_csv).read_text().splitlines()
        src = tmp_path / "in.csv"
        if rows == "non-utf8":
            src.write_bytes("\n".join([header] + lines[:20]).encode() + b"\xff\n")
        elif rows == "blank":
            src.write_text("\n".join([header] + [ln.split(",")[0] + "," for ln in lines[:20]]))
        elif rows == "bad-stamp":
            lines[2] = "junk," + lines[2].split(",")[1]
            src.write_text("\n".join([header] + lines[:20]) + "\n")
        else:
            src.write_text("\n".join([header] + lines[:rows]) + "\n")
        out = tmp_path / "o.csv"
        argv = {"clean": ["clean", "--out", str(out)],
                "predict": ["predict", "--model", model_path, "--out", str(out)],
                "evaluate": ["evaluate", "--model", model_path],
                "train": ["train", "--gamma", "100", "--sigma2", "50", "--model-out", str(out)],
                "features": ["features", "--outdir", str(out)]}[command]
        capsys.readouterr()
        assert main(argv + ["--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {src}: {complaint}" in err
        assert err.count(str(src)) == 1
        assert not out.exists()

    # The series is a 5-row CSV named by --in or by a config's input_csv, or
    # a synthetic one: the config check refuses a synthetic series shorter
    # than its lags as a usage error that names both settings and no file.
    @pytest.mark.parametrize("command, source", [
        ("tune", "--in"), ("benchmark", "--in"), ("train", "--in"), ("features", "--in"),
        ("features", "--config"), ("train", "--config"), ("benchmark", "--config"),
        ("train", "--synth-n"), ("features", "--synth-n"), ("benchmark", "--synth-n"),
    ], ids=["tune", "benchmark", "train", "features",
            "features-config", "train-config", "benchmark-config", "train-synthetic",
            "features-synthetic", "benchmark-synthetic"])
    def test_short_series_data_error_names_file(self, tmp_path, series_csv, capsys, command,
                                                source):
        header, *lines = Path(series_csv).read_text().splitlines()
        src = tmp_path / "in.csv"
        src.write_text("\n".join([header] + lines[:5]) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"input_csv": str(src), "n_lags": 8}))
        out = tmp_path / "out"
        argv = {"tune": ["tune", "--strategy", "pso", "--outdir", str(out)],
                "benchmark": ["benchmark", "--outdir", str(out)],
                "train": ["train", "--gamma", "100", "--sigma2", "50", "--model-out", str(out)],
                "features": ["features", "--outdir", str(out)]}[command]
        named = (2, f"data error: {src}: series length 5 must exceed n_lags 8")
        data, (code, complaint) = {
            "--in": (["--in", str(src), "--n-lags", "8"], named),
            "--config": (["--config", str(config)], named),
            "--synth-n": (["--synth-n", "600", "--n-lags", "700"],
                          (1, "usage error: n_lags 700 must be below synthetic.n 600")),
        }[source]
        assert main(argv + data) == code
        assert capsys.readouterr().err == f"{complaint}\n"
        assert not out.exists()

    def test_one_blas_library_and_no_scipy(self, tmp_path, series_csv):
        # train and predict in a fresh process: every BLAS call goes to the
        # one OpenBLAS that numpy loads, so one library is mapped and scipy
        # is never imported.
        script = (
            "import json, sys\n"
            "from windlssvm import cli\n"
            "model, series = sys.argv[1:]\n"
            "assert cli.main(['train', '--in', series, '--gamma', '100', '--sigma2', '50',\n"
            "                 '--n-lags', '8', '--model-out', model]) == 0\n"
            "assert cli.main(['predict', '--model', model, '--in', series,\n"
            "                 '--out', model + '.csv']) == 0\n"
            "libraries = None\n"
            "if sys.platform.startswith('linux'):\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        libraries = sorted({ln.split()[-1] for ln in fh if 'openblas' in ln.lower()})\n"
            "print(json.dumps({'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "                  'openblas': libraries}))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "m"), series_csv],
                              capture_output=True, text=True, env=env, check=True)
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded["scipy"] == []
        if sys.platform.startswith("linux"):
            assert len(loaded["openblas"]) == 1, loaded["openblas"]

    # A training block whose buffer exceeds the machine's memory is refused
    # before the run; the memory figure is patched, nothing large is allocated.
    @pytest.mark.parametrize("command", [
        ["train", "--gamma", "100", "--sigma2", "50", "--model-out", "m"],
        ["benchmark", "--trials", "1", "--population", "6", "--iterations", "4", "--outdir", "run"],
    ], ids=["train", "benchmark"])
    def test_training_block_beyond_memory_data_error(self, tmp_path, series_csv, capsys,
                                                     monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        limit = (lssvm.buffer_bytes(355) - 1, None)
        monkeypatch.setattr(lssvm, "memory_limit_bytes", lambda: limit)
        assert main(command + ["--in", series_csv, "--n-lags", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {series_csv}: a training block of 355 rows needs a "
                              f"{lssvm.buffer_bytes(355)}-byte kernel buffer")
        assert err.rstrip().endswith("; use a shorter series or a lower --train-frac")
        assert not os.path.exists("m") and not os.path.exists("run/report.csv")

    def test_numeric_failure_exit_3(self, tmp_path, series_csv):
        # absurd kernel width flattens the kernel matrix into singularity
        assert main(["train", "--in", series_csv, "--gamma", "1e12",
                     "--sigma2", "1e30", "--n-lags", "8",
                     "--model-out", str(tmp_path / "m")]) == 3


# The experiment flags each command offers: the data flags that
# ``prepare_data`` reads, and for tuning the trial, output and swarm flags.
DATA_FLAG_NAMES = ["--in", "--synth-n", "--synth-seed", "--n-lags", "--select-fraction",
                   "--z-threshold", "--train-frac", "--val-frac"]
TUNING_FLAG_NAMES = ["--trials", "--base-seed", "--outdir", "--population", "--iterations"]
COMMAND_FLAGS = {
    "features": DATA_FLAG_NAMES + ["--outdir"],
    "tune": DATA_FLAG_NAMES + TUNING_FLAG_NAMES,
    "train": DATA_FLAG_NAMES,
    "benchmark": DATA_FLAG_NAMES + TUNING_FLAG_NAMES,
}


def _subparser(command):
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[command]


class TestCommandFlags:
    def test_flag_tables(self):
        assert [row[0] for row in cli.DATA_FLAGS] == DATA_FLAG_NAMES
        assert [row[0] for row in cli.TUNING_FLAGS] == TUNING_FLAG_NAMES
        assert [row[0] for row in EXPERIMENT_FLAGS] == DATA_FLAG_NAMES + TUNING_FLAG_NAMES

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_command_takes_its_flags(self, command):
        every = {row[0] for row in EXPERIMENT_FLAGS}
        offered = [opt for a in _subparser(command)._actions for opt in a.option_strings
                   if opt in every]
        assert offered == COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command,argv", [
        ("train", ["--gamma", "100", "--sigma2", "50", "--model-out", "m", "--iterations", "5"]),
        ("train", ["--gamma", "100", "--sigma2", "50", "--model-out", "m", "--outdir", "o"]),
        ("features", ["--trials", "2"]),
        ("features", ["--ce-alpha", "0.5"]),
        # The breeding rule and the MI bin count are constants, no flags.
        ("benchmark", ["--lam", "3"]),
        ("benchmark", ["--jumping-rate", "0.2"]),
        ("tune", ["--strategy", "ebqpso", "--n-transposons", "1"]),
        ("features", ["--mi-bins", "16"]),
        ("train", ["--gamma", "100", "--sigma2", "50", "--model-out", "m", "--mi-bins", "16"]),
        # The search box and the contraction-expansion schedule are constants, no flags.
        *((command, [*strategy, flag, value])
          for flag, value in (("--ce-alpha", "0.5"), ("--gamma-min", "1"), ("--gamma-max", "1e3"),
                              ("--sigma2-min", "8"), ("--sigma2-max", "1e3"))
          for command, strategy in (("tune", ["--strategy", "qpso"]), ("benchmark", []))),
        # The test block takes the rows that train and validation leave.
        ("train", ["--gamma", "100", "--sigma2", "50", "--model-out", "m", "--test-frac", "0.2"]),
        ("benchmark", ["--test-frac", "0.2"]),
    ])
    def test_unread_flag_usage_error(self, tmp_path, monkeypatch, capsys, command, argv):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--synth-n", "600", "--n-lags", "8", *argv]) == 1
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_tuning_keys_of_a_shared_config_are_accepted(self, tmp_path, monkeypatch):
        # One config file serves every command; train and features read
        # their part of it.
        monkeypatch.chdir(tmp_path)
        cfg = {"synthetic": {"n": 600, "seed": 3}, "n_lags": 8, "select_fraction": 0.25,
               "swarm": {"population": 6, "max_iter": 4}, "strategies": ["qpso"],
               "trials": 1, "base_seed": 5, "outdir": "feat"}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert main(["features", "--config", "cfg.json"]) == 0
        assert main(["train", "--config", "cfg.json", "--gamma", "100", "--sigma2", "50",
                     "--model-out", "m"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "feat", "m", "m.meta.json"]

    @pytest.mark.parametrize("swarm,complaint", [
        ({"seed": 3}, "base_seed"),
        ({"ce_mode": "fixed"}, "unknown SwarmConfig keys: ['ce_mode']"),
        ({"jumping_rate": 0.2}, "unknown SwarmConfig keys: ['jumping_rate']"),
        ({"n_transposons": 1}, "unknown SwarmConfig keys: ['n_transposons']"),
        ({"lam": 3}, "unknown SwarmConfig keys: ['lam']"),
        ({"ce_alpha": 0.5}, "unknown SwarmConfig keys: ['ce_alpha']"),
    ])
    def test_unread_config_key_usage_error(self, tmp_path, capsys, swarm, complaint):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"n": 600}, "n_lags": 8, "swarm": swarm}))
        assert main(["benchmark", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 1
        assert complaint in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mi_bins_key_usage_error(self, tmp_path, capsys):
        # The MI ranking takes pipeline.mi_ranking's 16 bins; no key sets them.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"n": 600}, "n_lags": 8, "mi_bins": 16}))
        assert main(["features", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 1
        assert "unknown config keys: ['mi_bins']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_test_frac_key_usage_error(self, tmp_path, capsys):
        # The test block takes the rest; no key sets its fraction.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"n": 600}, "n_lags": 8,
                                        "split": {"test_frac": 0.2}}))
        assert main(["features", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 1
        assert "unknown SplitSpec keys: ['test_frac']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["gamma_range", "sigma2_range"])
    def test_search_box_key_usage_error(self, tmp_path, capsys, key):
        # The search box is metrics.HYPERPARAM_SPACE; no key sets it.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"n": 600}, "n_lags": 8, key: [1.0, 100.0]}))
        assert main(["benchmark", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class _Resolved(Exception):
    pass


class TestHelpDefaults:
    @pytest.mark.parametrize("command,required", [
        ("features", []),
        ("tune", ["--strategy", "pso"]),
        ("train", ["--gamma", "1", "--sigma2", "1", "--model-out", "m"]),
        ("benchmark", []),
    ])
    def test_help_shows_resolved_default(self, monkeypatch, command, required):
        resolved = []
        real = cli._resolve_config

        def capture(*args):
            resolved.append(real(*args))
            raise _Resolved

        monkeypatch.setattr(cli, "_resolve_config", capture)
        with pytest.raises(_Resolved):
            main([command, *required])
        helps = {a.dest: a.help for a in _subparser(command)._actions}
        rows = {row[0]: row for row in EXPERIMENT_FLAGS}
        for flag in COMMAND_FLAGS[command]:
            _, path, _, _ = rows[flag]
            default = _field(resolved[0], path)
            if default is not None:
                assert helps[cli._dest(flag)].endswith(f"(default {default})"), flag


@pytest.fixture(scope="module")
def windlike_month(tmp_path_factory):
    """A 30-day wind-like file (2160 slots) with a storm, a calm spell and
    25 m/s spikes in its test block, and what each command made of it: the
    values that ``clean``, ``predict`` and ``benchmark`` report at each slot
    (NaN where a command reports none), predict's forecasts, and what
    ``evaluate --block all`` printed. ``benchmark`` runs a 3-particle,
    2-iteration swarm."""
    d = tmp_path_factory.mktemp("windlike")
    path, model = str(d / "wind.csv"), str(d / "m.lssvm")
    values = write_windlike_csv(path, 2160, seed=1, defects=("storm", "calm", "spikes"))
    lags = ["--n-lags", "8", "--select-fraction", "0.25"]
    printed = {}
    for command, argv in [
        ("clean", ["--out", str(d / "clean.csv")]),
        ("train", [*lags, "--gamma", "100", "--sigma2", "50", "--model-out", model]),
        ("predict", ["--model", model, "--out", str(d / "predict.csv")]),
        ("evaluate", ["--model", model, "--block", "all"]),
        ("benchmark", [*lags, "--population", "3", "--iterations", "2", "--trials", "1",
                       "--outdir", str(d / "bench")]),
    ]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([command, "--in", path, *argv]) == 0
        printed[command] = out.getvalue()

    def column(name, file):
        with open(d / file) as fh:
            got = np.array([float(row[name]) for row in csv.DictReader(fh)])
        at = np.full(len(values), np.nan)
        at[len(values) - len(got):] = got  # the rows of a block end at the last slot
        return at

    reported = {"clean": column("value", "clean.csv"), "predict": column("actual", "predict.csv"),
                "benchmark": column("actual", "bench/predictions_ebqpso_0.csv")}
    return values, reported, column("forecast", "predict.csv"), printed["evaluate"], model


class TestWindlikeSeries:
    def test_defects_load_and_predict(self, tmp_path):
        # A blank cell and a three-cadence gap are the only missing samples;
        # the 40 m/s spike is a value like any other until clean sees it.
        path, model, out = (str(tmp_path / name) for name in ("wind.csv", "m.lssvm", "p.csv"))
        values = write_windlike_csv(path, 600, seed=5)
        series = load_csv(path)
        assert np.flatnonzero(series.missing_mask).tolist() == [BLANK_SLOT, *GAP_SLOTS]
        np.testing.assert_array_equal(series.values, values)
        assert main(["train", "--in", path, "--n-lags", "8", "--select-fraction", "0.25",
                     "--gamma", "100", "--sigma2", "50", "--model-out", model]) == 0
        assert main(["predict", "--model", model, "--in", path, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == experiment.model_rows(series, load_model(model)[1]).n_rows == 600 - 8

    # A storm and a calm spell are wind, to be kept as written; a 25 m/s
    # one-sample spike is not, and no command may report it as a value.
    @pytest.mark.parametrize("command", ["clean", "predict", "evaluate", "benchmark"])
    @pytest.mark.parametrize("defect, slots", [
        pytest.param("storm", STORM_SLOTS, id="storm", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 5: the global z-gate replaces 10 of the "
                                "storm's 36 samples")),
        pytest.param("calm", CALM_SLOTS, id="calm"),
        pytest.param("spikes", SPIKES_SLOTS, id="spikes", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 5: the global z-gate keeps every 25 m/s spike")),
    ])
    def test_value_defect(self, windlike_month, command, defect, slots):
        values, reported, forecast, evaluated, _ = windlike_month
        slots = list(slots)
        if command == "evaluate":
            # evaluate --block all scores predict's forecasts against its
            # actuals: so the written storm and calm, and no spike.
            actual = reported["predict"].copy()
            actual[slots] = SPIKES_SPEED if defect == "spikes" else values[slots]
            rows = ~np.isnan(forecast)
            rmse = f"rmse={np.sqrt(np.mean((actual[rows] - forecast[rows]) ** 2)):.4f} "
            assert (rmse in evaluated) == (defect != "spikes"), (rmse, evaluated)
        elif defect == "spikes":
            assert not (reported[command][slots] == SPIKES_SPEED).any()
        else:
            np.testing.assert_array_equal(reported[command][slots], values[slots])

    @pytest.mark.parametrize("command", ["clean", "predict", "evaluate", "benchmark"])
    @pytest.mark.parametrize("defect", ["duplicate", "junk", "cadence"])
    def test_stamp_defect_names_line(self, tmp_path, capsys, windlike_month, command, defect):
        path, out = str(tmp_path / "wind.csv"), tmp_path / "out"
        write_windlike_csv(path, 2160, seed=1, defects=(defect,))
        where = {
            "duplicate": f"line {line_of(DUPLICATE_SLOT) + 1}: duplicate timestamp "
                         f"{stamp(DUPLICATE_SLOT)!r}",
            "junk": f"line {line_of(JUNK_SLOT)}: unparseable timestamp {JUNK_STAMP!r}",
            "cadence": f"line {line_of(CADENCE_SLOT + 1)}: cadence changes at timestamp "
                       f"{stamp(CADENCE_SLOT + 1, changed=True)!r}: 3 or more steps of "
                       f"{CHANGED_CADENCE_MINUTES} min in a row, cadence 20 min",
        }[defect]
        model = windlike_month[-1]
        argv = {"clean": ["--out", str(out)],
                "predict": ["--model", model, "--out", str(out)],
                "evaluate": ["--model", model],
                "benchmark": ["--n-lags", "8", "--population", "3", "--iterations", "2",
                              "--trials", "1", "--outdir", str(out)]}[command]
        capsys.readouterr()
        assert main([command, "--in", path, *argv]) == 2
        assert capsys.readouterr().err == f"data error: {path}: {where}\n"
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize("argv, code", [
        (["predict", "--model", "{dir}", "--in", "{dir}", "--out", "{tmp}/p.csv"], 2),
        (["clean", "--in", "{dir}", "--out", "{tmp}/c.csv"], 2),
        (["tune", "--strategy", "pso", "--config", "{dir}"], 1),
        (["benchmark", "--synth-n", "600", "--n-lags", "8", "--iterations", "1",
          "--population", "2", "--trials", "1", "--outdir", "{file}"], 2),
    ])
    def test_unreadable_path_named_without_traceback(self, tmp_path, capsys, argv, code):
        # A directory where a file is read, or a file where a directory is made.
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        names = {"dir": tmp_path / "adir", "file": tmp_path / "afile", "tmp": tmp_path}
        path = names["file" if "{file}" in argv else "dir"]
        assert main([arg.format(**names) for arg in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(path) in err

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["synth"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
