import struct
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from windlssvm.data_io import (
    DataError,
    MODEL_MAGIC,
    MODEL_VERSION,
    ModelMeta,
    load_csv,
    load_model,
    save_model,
    write_series_csv,
)
from windlssvm.lssvm import Hyperparams, predict, train
from windlssvm.pipeline import SplitSpec, TimeSeries


class TestLoadCsv:
    def test_basic_rows(self, tmp_path):
        p = tmp_path / "wind.csv"
        p.write_text("2015-04-01T00:00,7.3\n2015-04-01T00:20,8.1\n")
        s = load_csv(str(p))
        np.testing.assert_array_equal(s.values, [7.3, 8.1])
        assert not s.missing_mask.any()

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "wind.csv"
        p.write_text("timestamp,value\n2015-04-01T00:00,7.3\n")
        s = load_csv(str(p))
        assert len(s) == 1

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "timestamp,value\n2015-04-01T00:00,7.3\n2015-04-01T00:20,\n2015-04-01T00:40,6.0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = load_csv(str(plain)), load_csv(str(bom))
        np.testing.assert_array_equal(b.values, a.values)
        np.testing.assert_array_equal(b.missing_mask, a.missing_mask)
        assert (b.start, b.cadence_minutes) == (a.start, a.cadence_minutes)

    def test_empty_value_is_missing(self, tmp_path):
        p = tmp_path / "wind.csv"
        p.write_text("2015-04-01T00:00,7.3\n2015-04-01T00:20,\n2015-04-01T00:40,6.0\n")
        s = load_csv(str(p))
        assert s.missing_mask.tolist() == [False, True, False]
        assert np.isnan(s.values[1])

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("abc,xyz\n")
        with pytest.raises(DataError, match="line 1"):
            load_csv(str(p))

    def test_malformed_later_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("2015-04-01T00:00,7.3\n2015-04-01T00:20,oops\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(str(p))

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("2015-04-01T00:00,7.3,extra\n")
        with pytest.raises(DataError, match="line 1"):
            load_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError, match="no samples"):
            load_csv(str(p))

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("timestamp,value\n")
        with pytest.raises(DataError, match="no samples"):
            load_csv(str(p))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_rejected(self, tmp_path, value):
        p = tmp_path / "non_finite.csv"
        p.write_text(f"2015-04-01T00:00,{value}\n")
        with pytest.raises(DataError, match="line 1"):
            load_csv(str(p))

    # float() reads a digit-group underscore and any Unicode decimal digit.
    @pytest.mark.parametrize("value", ["1_0", "\u0665", "\uff11.5"])
    def test_python_only_number_rejected(self, tmp_path, value):
        p = tmp_path / "digits.csv"
        p.write_text(f"2015-04-01T00:00,7.3\n2015-04-01T00:20,{value}\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_csv(str(p))
        assert str(info.value) == f"{p}: line 2: unparseable value {value!r}"

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/file.csv")

    def test_non_utf8_file_names_path(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"2015-04-01T00:00,7.3\n2015-04-01T00:20,\xff\n")
        with pytest.raises(DataError, match=f"^{p}: not UTF-8 text: .*0xff"):
            load_csv(str(p))


def _stamped(n, start=0, minutes=20):
    """Header plus n rows at a cadence of ``minutes``, value i on row i."""
    base = np.datetime64("2015-04-01T00:00")
    rows = [f"{base + np.timedelta64(minutes * i, 'm')},{float(i)!r}" for i in range(start, start + n)]
    return ["timestamp,value"] + rows


class TestTimestamps:
    def test_junk_stamp_names_line(self, tmp_path):
        lines = _stamped(10)
        lines[6] = "not-a-time,3.0"
        p = tmp_path / "junk.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 7: unparseable timestamp 'not-a-time'"):
            load_csv(str(p))

    @pytest.mark.parametrize("zone", ["Z", "+02:00"])
    def test_zoned_stamp_names_line(self, tmp_path, zone):
        # numpy would shift the stamp to UTC and only warn.
        lines = _stamped(10)
        lines[6] = f"2015-04-01T01:40{zone},3.0"
        p = tmp_path / "zoned.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as info:
            load_csv(str(p))
        assert str(info.value) == (f"{p}: line 7: timestamp '2015-04-01T01:40{zone}' has a time "
                                   "zone; stamps must be naive, with no Z or UTC offset")

    def test_nat_stamp_rejected(self, tmp_path):
        p = tmp_path / "nat.csv"
        p.write_text("2015-04-01T00:00,1.0\nNaT,2.0\n")
        with pytest.raises(DataError, match="line 2: unparseable timestamp"):
            load_csv(str(p))

    # numpy reads these, in any case, as the wall clock.
    @pytest.mark.parametrize("word", ["now", "today", "NOW", "Today"])
    def test_wall_clock_stamp_names_line(self, tmp_path, word):
        for lines, lineno in ((["timestamp,value", f"{word},3.0"], 2), (_stamped(10) + [f"{word},3.0"], 12)):
            p = tmp_path / "clock.csv"
            p.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError) as info:
                load_csv(str(p))
            assert str(info.value) == f"{p}: line {lineno}: unparseable timestamp {word!r}"

    def test_stamps_of_today_load(self, tmp_path):
        # A file that reaches today is searched for the two words, and loads.
        start = np.datetime64("today", "m")
        p = tmp_path / "today.csv"
        p.write_text("".join(f"{start + np.timedelta64(20 * i, 'm')},{i}.0\n" for i in range(3)))
        s = load_csv(str(p))
        assert s.start == start.astype(datetime) and s.values.tolist() == [0.0, 1.0, 2.0]

    def test_duplicate_stamp_names_line(self, tmp_path):
        lines = _stamped(10)
        lines[5] = lines[4].split(",")[0] + ",9.0"
        p = tmp_path / "dup.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 6: duplicate timestamp"):
            load_csv(str(p))

    def test_out_of_order_stamp_names_line(self, tmp_path):
        lines = _stamped(10)
        lines[8], lines[9] = lines[9], lines[8]
        p = tmp_path / "order.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 10: out-of-order timestamp"):
            load_csv(str(p))

    def test_off_cadence_step_names_line(self, tmp_path):
        p = tmp_path / "off.csv"
        p.write_text("2015-04-01T00:00,1.0\n2015-04-01T00:20,2.0\n2015-04-01T00:50,3.0\n")
        with pytest.raises(DataError, match="line 3: off-cadence"):
            load_csv(str(p))

    def test_gap_becomes_masked_samples(self, tmp_path):
        lines = _stamped(100)
        del lines[41:71]  # rows for samples 40..69
        p = tmp_path / "gap.csv"
        p.write_text("\n".join(lines) + "\n")
        s = load_csv(str(p))
        assert len(s) == 100
        assert np.flatnonzero(s.missing_mask).tolist() == list(range(40, 70))
        kept = ~s.missing_mask
        np.testing.assert_array_equal(s.values[kept], np.flatnonzero(kept).astype(float))

    def test_gap_and_blank_both_masked(self, tmp_path):
        p = tmp_path / "both.csv"
        p.write_text("2015-04-01T00:00,1.0\n2015-04-01T00:20,\n2015-04-01T01:20,4.0\n")
        s = load_csv(str(p))
        assert s.missing_mask.tolist() == [False, True, True, True, False]
        assert s.values[-1] == 4.0

    def test_space_separated_and_seconds_accepted(self, tmp_path):
        p = tmp_path / "iso.csv"
        p.write_text("2015-04-01 00:00:00,1.0\n2015-04-01 00:20:00,2.0\n")
        np.testing.assert_array_equal(load_csv(str(p)).values, [1.0, 2.0])

    def test_cadence_argument(self, tmp_path):
        p = tmp_path / "ten.csv"
        p.write_text("2015-04-01T00:00,1.0\n2015-04-01T00:10,2.0\n2015-04-01T00:30,3.0\n")
        s = load_csv(str(p))
        assert s.cadence_minutes == 10
        assert s.missing_mask.tolist() == [False, False, True, False]

    @pytest.mark.parametrize("minutes", [10, 30, 60])
    def test_cadence_inferred_from_stamps(self, tmp_path, minutes):
        p = tmp_path / f"every{minutes}.csv"
        p.write_text("\n".join(_stamped(720, minutes=minutes)) + "\n")
        s = load_csv(str(p))
        assert (len(s), int(s.missing_mask.sum()), s.cadence_minutes) == (720, 0, minutes)

    def test_stray_stamp_is_off_cadence_not_a_finer_cadence(self, tmp_path):
        lines = _stamped(10)
        lines.insert(6, "2015-04-01T01:30,9.0")  # 10 min after sample 4's stamp
        p = tmp_path / "stray.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"line 7: off-cadence \(10 min after the previous, "
                                            r"cadence 20 min\)"):
            load_csv(str(p))

    def test_tied_steps_take_the_smaller(self, tmp_path):
        p = tmp_path / "tie.csv"
        p.write_text("2015-04-01T00:00,1.0\n2015-04-01T00:10,2.0\n2015-04-01T00:30,3.0\n"
                     "2015-04-01T00:40,4.0\n2015-04-01T01:00,5.0\n")
        assert load_csv(str(p)).cadence_minutes == 10

    def test_cadence_change_refused(self, tmp_path):
        # 20-minute stamps to 10:00, then 10-minute means: the 10-minute mode
        # would leave every other slot of the first part masked.
        lines = _stamped(31) + _stamped(60, start=61, minutes=10)[1:]
        p = tmp_path / "change.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"change\.csv: line 3: cadence changes at timestamp "
                                            r"'2015-04-01T00:20': 3 or more steps of 20 min in a "
                                            r"row, cadence 10 min"):
            load_csv(str(p))

    def test_cadence_change_later_in_file_refused(self, tmp_path):
        lines = _stamped(40, minutes=10) + _stamped(20, start=20)[1:]
        p = tmp_path / "later.csv"
        p.write_text("\n".join(lines) + "\n")
        # 06:30 to 06:40 is still 10 minutes; 07:00 is the first stamp 20 after.
        with pytest.raises(DataError, match=r"line 43: cadence changes at timestamp "
                                            r"'2015-04-01T07:00'"):
            load_csv(str(p))

    def test_short_runs_of_long_steps_still_load(self, tmp_path):
        # Two equal long steps in a row, then one longer: outages, not a change.
        minutes = [0, 10, 20, 40, 60, 70, 80, 110, 120]
        base = np.datetime64("2015-04-01T00:00")
        p = tmp_path / "outages.csv"
        p.write_text("".join(f"{base + np.timedelta64(m, 'm')},1.0\n" for m in minutes))
        s = load_csv(str(p))
        assert (s.cadence_minutes, len(s), int(s.missing_mask.sum())) == (10, 13, 4)

    def test_single_row_gets_default_cadence(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("2015-04-01T00:00,1.0\n")
        assert load_csv(str(p)).cadence_minutes == TimeSeries.cadence_minutes == 20

    def test_sub_minute_cadence_refused(self, tmp_path):
        p = tmp_path / "seconds.csv"
        p.write_text("2015-04-01T00:00:00,1.0\n2015-04-01T00:00:30,2.0\n2015-04-01T00:01:00,3.0\n")
        with pytest.raises(DataError, match=r"seconds\.csv: cadence of 30 s is not a whole number of minutes"):
            load_csv(str(p))


def per_row_series_csv(series, start):
    """The series CSV formatted one row at a time with ``strftime``: the
    oracle for ``write_series_csv``."""
    fmt = "%Y-%m-%dT%H:%M" + (":%S" if start.second else "")
    step = timedelta(minutes=series.cadence_minutes)
    rows = ["timestamp,value"]
    for i in range(len(series)):
        stamp = (start + i * step).strftime(fmt)
        if series.missing_mask[i]:
            rows.append(f"{stamp},")
        else:
            rows.append(f"{stamp},{float(series.values[i])!r}")
    return "\n".join(rows) + "\n"


class TestSeriesRoundTrip:
    @pytest.mark.parametrize("cadence", [10, 20, 60])
    @pytest.mark.parametrize("start", [datetime(2015, 4, 1), datetime(2019, 12, 31, 23, 50),
                                       datetime(2020, 2, 28, 22, 0, 30),
                                       datetime(1969, 12, 31, 23, 59, 59, 999999)])
    def test_bytes_equal_per_row_formatter(self, tmp_path, cadence, start):
        # crosses a leap day and a year end; blanks, values of every size
        rng = np.random.default_rng(cadence)
        values = rng.uniform(0, 25, 2160) * 10.0 ** rng.integers(-8, 8, 2160)
        values[:4] = (0.0, -0.0, 1e300, 5e-324)
        s = TimeSeries(values, cadence, missing_mask=rng.random(2160) < 0.05)
        out = tmp_path / "out.csv"
        write_series_csv(s, str(out), start)
        assert out.read_bytes() == per_row_series_csv(s, start).encode()

    def test_write_then_load_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        s = TimeSeries(rng.uniform(0, 20, 50))
        p = tmp_path / "out.csv"
        write_series_csv(s, str(p))
        back = load_csv(str(p))
        assert np.array_equal(back.values, s.values)

    def test_start_carried_from_file(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("2020-01-01T00:00,1.0\n2020-01-01T00:20,2.0\n2020-01-01T01:00,3.0\n")
        s = load_csv(str(p))
        assert s.start == datetime(2020, 1, 1)
        out = tmp_path / "out.csv"
        write_series_csv(s, str(out))
        assert out.read_text() == (
            "timestamp,value\n2020-01-01T00:00,1.0\n2020-01-01T00:20,2.0\n"
            "2020-01-01T00:40,\n2020-01-01T01:00,3.0\n"
        )

    def test_start_with_seconds_round_trips(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("2020-01-01 00:00:30,1.0\n2020-01-01 00:20:30,2.0\n")
        out = tmp_path / "out.csv"
        write_series_csv(load_csv(str(p)), str(out))
        assert out.read_text().splitlines()[1:] == ["2020-01-01T00:00:30,1.0",
                                                    "2020-01-01T00:20:30,2.0"]
        assert load_csv(str(out)).start == datetime(2020, 1, 1, 0, 0, 30)

    def test_start_argument_wins_then_default(self, tmp_path):
        s = TimeSeries([1.0], start=datetime(2020, 1, 1))
        out = tmp_path / "out.csv"
        write_series_csv(s, str(out), datetime(2021, 6, 1, 12, 20))
        assert out.read_text().splitlines()[1] == "2021-06-01T12:20,1.0"
        write_series_csv(TimeSeries([1.0]), str(out))
        assert out.read_text().splitlines()[1] == "2015-04-01T00:00,1.0"

    def test_missing_round_trip(self, tmp_path):
        s = TimeSeries([1.0, np.nan, 3.0], missing_mask=[False, True, False])
        p = tmp_path / "m.csv"
        write_series_csv(s, str(p))
        back = load_csv(str(p))
        assert back.missing_mask.tolist() == [False, True, False]


class TestModelPersistence:
    # The sidecar of a model on three lags, which every model file has.
    _META = ModelMeta(2, (1, 2, 3), 3, 20, 4.0, SplitSpec())

    def _model(self, seed=0, n=12, d=3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, (n, d))
        y = rng.uniform(-3, 3, n)
        return train(X, y, Hyperparams(7.5, 2.25))

    def test_round_trip_bit_exact_predictions(self, tmp_path):
        model = self._model()
        path = str(tmp_path / "model.bin")
        save_model(model, path, self._META)
        loaded, _ = load_model(path)
        rng = np.random.default_rng(1)
        Xq = rng.uniform(-2, 2, (20, 3))
        assert np.array_equal(predict(loaded, Xq), predict(model, Xq))
        assert np.array_equal(loaded.support_inputs, model.support_inputs)
        assert np.array_equal(loaded.dual_coeffs, model.dual_coeffs)
        assert loaded.bias == model.bias
        assert loaded.hyperparams == model.hyperparams

    def test_meta_sidecar(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_model(self._model(), path, ModelMeta(2, (2, 1, 5), 8, 10, 3.5, SplitSpec(0.5, 0.25)))
        assert Path(path + ".meta.json").read_text() == (
            '{"cadence_minutes": 10, "format": 2, "lags": [2, 1, 5], "n_lags": 8, '
            '"split": {"train_frac": 0.5, "val_frac": 0.25}, "z_threshold": 3.5}\n'
        )

    def test_sidecar_read_back(self, tmp_path):
        path = str(tmp_path / "model.bin")
        meta = ModelMeta(2, (2, 1, 5), 8, 10, 3.5, SplitSpec(0.5, 0.25))
        save_model(self._model(), path, meta)
        assert load_model(path)[1] == meta

    def test_missing_sidecar(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_model(self._model(), path, self._META)
        Path(path + ".meta.json").unlink()
        with pytest.raises(OSError) as info:
            load_model(path)
        assert info.value.filename == path + ".meta.json"
        assert f"{path}.meta.json" in str(info.value)

    @pytest.mark.parametrize("text, complaint", [
        ('{"format": 1', "invalid JSON"),
        ('{"format": 2, "lags": [1, 2], "n_lags": 3, "cadence_minutes": 20, "z_threshold": 4.0, '
         '"split": {"train_frac": 0.6, "val_frac": 0.2}}',
         "model expects 3 features but metadata lists 2 lags"),
        # A format-1 sidecar: its split is a list of three fractions.
        ('{"format": 1, "lags": [1, 2, 3], "n_lags": 3, "cadence_minutes": 20, "z_threshold": 4.0, '
         '"split": [0.6, 0.2, 0.2]}',
         "sidecar 'format' is 1, not 2; retrain the model to write a format-2 sidecar"),
        # The format is read first: the other keys need not fit.
        ('{"format": 1, "lags": "x", "mi_bins": 16, "split": [0.7, 0.2, 0.1]}',
         "sidecar 'format' is 1, not 2; retrain the model"),
        # A config may leave a split key to its default; a sidecar records
        # the split its model was trained on, so it may not.
        ('{"format": 2, "lags": [1, 2, 3], "n_lags": 3, "cadence_minutes": 20, "z_threshold": 4.0, '
         '"split": {}}', "SplitSpec has no 'train_frac'"),
        ('{"format": 2, "lags": [1, 2, 3], "n_lags": 3, "cadence_minutes": 20, "z_threshold": 4.0, '
         '"split": {"train_frac": 0.5}}', "SplitSpec has no 'val_frac'"),
    ])
    def test_malformed_sidecar(self, tmp_path, text, complaint):
        # The CLI's malformed-sidecar rows cover each key; here the library
        # raises DataError, naming the sidecar, for each kind of fault.
        path = str(tmp_path / "model.bin")
        save_model(self._model(), path, self._META)
        Path(path + ".meta.json").write_text(text)
        with pytest.raises(DataError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}.meta.json: {complaint}")

    def test_truncated_file(self, tmp_path):
        model = self._model()
        path = str(tmp_path / "model.bin")
        save_model(model, path, self._META)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-9])
        with pytest.raises(DataError, match="corrupt|truncated"):
            load_model(path)

    @pytest.mark.parametrize("n, m", [(0, 10), (3, 0)])
    def test_empty_model_refused(self, tmp_path, n, m):
        # No sidecar is written: the binary is refused before it is read.
        path = tmp_path / "model.bin"
        path.write_bytes(MODEL_MAGIC + struct.pack("<IQQdd", MODEL_VERSION, n, m, 1.0, 1.0)
                         + struct.pack(f"<{n * m + n + 1}d", *[0.5] * (n * m + n + 1)))
        with pytest.raises(DataError, match=f"^{path}: corrupt model file: need at least one"):
            load_model(str(path))

    def test_trailing_garbage(self, tmp_path):
        model = self._model()
        path = str(tmp_path / "model.bin")
        save_model(model, path, self._META)
        with open(path, "ab") as fh:
            fh.write(b"zz")
        with pytest.raises(DataError, match="corrupt"):
            load_model(path)

    def test_future_version(self, tmp_path):
        model = self._model()
        path = str(tmp_path / "model.bin")
        save_model(model, path, self._META)
        blob = bytearray(Path(path).read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 99"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "model.bin")
        Path(path).write_bytes(b"NOPE" + b"\0" * 60)
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_magic_constant(self):
        assert MODEL_MAGIC == b"LSVM"
