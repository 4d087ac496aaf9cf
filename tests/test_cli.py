import argparse
import csv
import json
import os
from pathlib import Path

import pytest

from windlssvm import cli
from windlssvm.cli import EXPERIMENT_FLAGS, _resolve_config, build_parser, main
from windlssvm.data_io import load_csv, write_series_csv
from windlssvm.experiment import OPTIMIZERS
from windlssvm.pipeline import TimeSeries


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
        assert main(["synth", "--n", "10", "--out", str(tmp_path / "x.csv")]) == 1


class TestClean:
    def test_clean_pass_through(self, tmp_path, series_csv):
        out = str(tmp_path / "clean.csv")
        assert main(["clean", "--in", series_csv, "--out", out]) == 0
        assert len(load_csv(out)) == 600

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
                                     "cadence_minutes"])
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

    @pytest.mark.parametrize("override,key", [
        ({"trials": 1.5}, "config key 'trials'"),
        ({"swarm": {"population": 2.5, "max_iter": 4}}, "SwarmConfig key 'population'"),
        ({"synthetic": {"n": 600.0, "seed": 3}}, "SyntheticSpec key 'n'"),
    ])
    def test_non_integer_config_value_usage_error(self, tmp_path, capsys, override, key):
        cfg = {"synthetic": {"n": 600, "seed": 3}, "n_lags": 8, "select_fraction": 0.25,
               "swarm": {"population": 6, "max_iter": 4}, "strategies": ["qpso"], "trials": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, **override}))
        assert main(["benchmark", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 1
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tune_exits_3_when_every_trial_fails(self, tmp_path):
        # a box deep in singular territory: every KKT solve fails
        flags = _tiny_flags(str(tmp_path / "run")) + [
            "--gamma-min", "1e11", "--gamma-max", "1e12",
            "--sigma2-min", "1e29", "--sigma2-max", "1e30",
        ]
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
    "--mi-bins": ("8", 9),
    "--z-threshold": ("5.5", 6.5),
    "--train-frac": ("0.5", 0.4),
    "--val-frac": ("0.3", 0.4),
    "--test-frac": ("0.3", 0.4),
    "--population": ("7", 8),
    "--iterations": ("9", 10),
    "--jumping-rate": ("0.4", 0.5),
    "--n-transposons": ("2", 3),
    "--lam": ("4", 5),
    "--ce-alpha": ("0.7", 0.8),
    "--gamma-min": ("0.01", 0.02),
    "--gamma-max": ("1000.0", 2000.0),
    "--sigma2-min": ("2.0", 3.0),
    "--sigma2-max": ("500.0", 600.0),
}
# Split fractions must sum to 1, so each flag comes with the other two
# fractions set in the config file to match its value.
SPLIT_PARTNERS = {
    "train_frac": {"val_frac": 0.3, "test_frac": 0.2},
    "val_frac": {"train_frac": 0.5, "test_frac": 0.2},
    "test_frac": {"train_frac": 0.5, "val_frac": 0.2},
}


def _resolve(argv, config=None, tmp_path=None):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    return _resolve_config(build_parser().parse_args(["benchmark"] + argv))


def _field(cfg, path):
    for key in path:
        cfg = cfg[key] if isinstance(key, int) else getattr(cfg, key)
    return cfg


class TestFlagTable:
    @pytest.mark.parametrize("flag,path,kind", [row[:3] for row in EXPERIMENT_FLAGS])
    def test_flag_sets_field(self, tmp_path, flag, path, kind):
        value, _ = FLAG_VALUES[flag]
        config = {"split": SPLIT_PARTNERS[path[1]]} if path[0] == "split" else None
        cfg = _resolve([flag, value], config, tmp_path)
        assert _field(cfg, path) == kind(value)

    @pytest.mark.parametrize("flag,path,kind", [row[:3] for row in EXPERIMENT_FLAGS])
    def test_flag_overrides_config(self, tmp_path, flag, path, kind):
        value, configured = FLAG_VALUES[flag]
        key, *rest = path
        if not rest:
            config = {key: configured}
        elif isinstance(rest[0], int):
            pair = [1e-3, 1e4]
            pair[rest[0]] = configured
            config = {key: pair}
        else:
            config = {key: {rest[0]: configured, **SPLIT_PARTNERS.get(rest[0], {})}}
        cfg = _resolve([flag, value], config, tmp_path)
        assert _field(cfg, path) == kind(value)
        if rest and isinstance(rest[0], int):  # the other end of the range is kept
            assert _field(cfg, (key, 1 - rest[0])) == config[key][1 - rest[0]]

    def test_three_split_fractions_together(self):
        cfg = _resolve(["--train-frac", "0.5", "--val-frac", "0.25", "--test-frac", "0.25"])
        assert (cfg.split.train_frac, cfg.split.val_frac, cfg.split.test_frac) == (0.5, 0.25, 0.25)

    def test_synth_flags_ignored_under_input(self, tmp_path):
        cfg = _resolve(["--in", "series.csv", "--synth-n", "5000", "--synth-seed", "1"])
        assert cfg.input_csv == "series.csv" and cfg.synthetic is None
        cfg = _resolve(["--synth-n", "5000"], {"input_csv": "series.csv"}, tmp_path)
        assert cfg.input_csv == "series.csv" and cfg.synthetic is None

    def test_input_flag_replaces_configured_synthetic(self, tmp_path):
        cfg = _resolve(["--in", "series.csv"], {"synthetic": {"n": 700}}, tmp_path)
        assert cfg.input_csv == "series.csv" and cfg.synthetic is None


class TestTrainPredictEvaluate:
    def test_evaluate_benchmark_model_matches_report(self, tmp_path, series_csv, capsys):
        outdir = tmp_path / "bench"
        flags = _tiny_flags(str(outdir)) + ["--in", series_csv]
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

    def test_predict_without_meta_needs_lags(self, tmp_path, series_csv):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        os.remove(model_path + ".meta.json")
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--model", model_path, "--in", series_csv,
                     "--out", out]) == 2
        # recover by passing the lags explicitly (2 features were selected)
        code = main(["predict", "--model", model_path, "--in", series_csv,
                     "--lags", "1,2", "--out", out])
        assert code == 0

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("lags", ["1,x", ",,", "-2", "0,1", "1,1"])
    def test_malformed_lags_usage_error(self, tmp_path, series_csv, capsys, command, lags):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        os.remove(model_path + ".meta.json")
        argv = [command, "--model", model_path, "--in", series_csv, "--lags", lags]
        if command == "predict":
            argv += ["--out", str(tmp_path / "p.csv")]
        capsys.readouterr()
        assert main(argv) == 1
        assert "argument --lags" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "p.csv")

    def test_lags_refused_when_sidecar_exists(self, tmp_path, series_csv, capsys):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        for cmd in (["predict", "--out", str(tmp_path / "p.csv")], ["evaluate"]):
            assert main(cmd + ["--model", model_path, "--in", series_csv,
                               "--lags", "1,2"]) == 1
            assert model_path + ".meta.json" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "p.csv")

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
        assert "60-minute cadence, but the model was trained on a 20-minute series" in err
        assert not out.exists()
        # a sidecar written before the cadence was recorded is not checked
        del meta["cadence_minutes"]
        meta_path.write_text(json.dumps(meta))
        assert main(argv) == 0

    @pytest.mark.parametrize("key,value,complaint", [
        ("lags", _DROP, "sidecar has no 'lags'"),
        (None, "list root", "sidecar root must be a JSON object"),
        ("format", 7, "sidecar 'format' must be 1"),
        ("lags", 2, "sidecar 'lags' must be distinct positive integers"),
        ("lags", [1, 1], "sidecar 'lags' must be distinct positive integers"),
        ("n_lags", "8", "sidecar 'n_lags' must be an integer"),
        ("z_threshold", None, "sidecar 'z_threshold' must be a finite positive real"),
        ("split", 7, "sidecar 'split' must be three fractions"),
        ("split", [0.6, 0.2], "sidecar 'split' must be three fractions"),
        ("lags", [1, 9], "sidecar 'lags' reach lag 9, past its 'n_lags' of 8"),
        ("split", [0.5, 0.5, 0.5], "sidecar 'split': split fractions must sum to 1, got 1.5"),
        ("split", [0.8, 0.4, -0.2], "sidecar 'split': all split fractions must be positive"),
        ("cadence_minutes", "x", "sidecar 'cadence_minutes' must be a positive integer"),
        ("cadence_minutes", 0, "sidecar 'cadence_minutes' must be a positive integer"),
        (_TEXT, "{not json", "invalid JSON: Expecting property name"),
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
        meta_path.write_text(value if key is _TEXT else json.dumps(meta))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        for argv in (["predict", "--out", str(out)], ["evaluate"]):
            assert main(argv + ["--model", model_path, "--in", series_csv]) == 2
            err = capsys.readouterr().err
            assert f"{meta_path}: {complaint}" in err
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

    def test_sidecar_without_optional_keys_loads(self, tmp_path, series_csv):
        model_path = str(tmp_path / "m.lssvm")
        main(["train", "--in", series_csv, "--gamma", "100", "--sigma2", "50",
              "--n-lags", "8", "--select-fraction", "0.25", "--model-out", model_path])
        meta_path = Path(model_path + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({k: meta[k] for k in ("format", "lags", "n_lags")}))
        assert main(["evaluate", "--model", model_path, "--in", series_csv]) == 0

    def test_train_bad_gamma_usage_error(self, tmp_path, series_csv):
        assert main(["train", "--in", series_csv, "--gamma", "-1", "--sigma2", "50",
                     "--model-out", str(tmp_path / "m")]) == 1

    @pytest.mark.parametrize("command, rows, complaint", [
        ("clean", "non-utf8", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        ("predict", 5, "series length 5 must exceed n_lags 8"),
        ("evaluate", 12, "need at least 5 rows to split, got 4"),
        ("clean", "blank", "every sample is missing"),
        ("predict", "blank", "every sample is missing"),
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
        else:
            src.write_text("\n".join([header] + lines[:rows]) + "\n")
        out = tmp_path / "o.csv"
        argv = {"clean": ["clean", "--out", str(out)],
                "predict": ["predict", "--model", model_path, "--out", str(out)],
                "evaluate": ["evaluate", "--model", model_path]}[command]
        capsys.readouterr()
        assert main(argv + ["--in", str(src)]) == 2
        assert f"data error: {src}: {complaint}" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_failure_exit_3(self, tmp_path, series_csv):
        # absurd kernel width flattens the kernel matrix into singularity
        assert main(["train", "--in", series_csv, "--gamma", "1e12",
                     "--sigma2", "1e30", "--n-lags", "8",
                     "--model-out", str(tmp_path / "m")]) == 3


# The experiment flags each command offers: the data flags that
# ``prepare_data`` reads, and for tuning the trial, output, swarm and box flags.
DATA_FLAG_NAMES = ["--in", "--synth-n", "--synth-seed", "--n-lags", "--select-fraction",
                   "--mi-bins", "--z-threshold", "--train-frac", "--val-frac", "--test-frac"]
TUNING_FLAG_NAMES = ["--trials", "--base-seed", "--outdir", "--population", "--iterations",
                     "--jumping-rate", "--n-transposons", "--lam", "--ce-alpha",
                     "--gamma-min", "--gamma-max", "--sigma2-min", "--sigma2-max"]
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
               "swarm": {"population": 6, "max_iter": 4, "ce_alpha": 0.7},
               "trials": 1, "gamma_range": [0.1, 100.0], "outdir": "feat"}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert main(["features", "--config", "cfg.json"]) == 0
        assert main(["train", "--config", "cfg.json", "--gamma", "100", "--sigma2", "50",
                     "--model-out", "m"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "feat", "m", "m.meta.json"]

    @pytest.mark.parametrize("swarm,complaint", [
        ({"seed": 3}, "base_seed"),
        ({"ce_mode": "fixed"}, "unknown SwarmConfig keys: ['ce_mode']"),
    ])
    def test_unread_config_key_usage_error(self, tmp_path, capsys, swarm, complaint):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"n": 600}, "n_lags": 8, "swarm": swarm}))
        assert main(["benchmark", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 1
        assert complaint in capsys.readouterr().err
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
