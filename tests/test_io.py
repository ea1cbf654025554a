import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optomech import DriveRecord, TimeSeries
from optomech import io as omio
from optomech.io import (FormatError, RESULT_SCHEMA, SchemaError,
                         make_result_doc, read_driverecord_csv,
                         read_result_doc, read_timeseries,
                         read_timeseries_bin, read_timeseries_csv,
                         write_driverecord_csv, write_result_doc,
                         write_table_csv, write_timeseries,
                         write_timeseries_bin, write_timeseries_csv)


def _real_ts():
    rng = np.random.default_rng(1)
    return TimeSeries(8192.0, 0.25, rng.standard_normal(257) * 1e-12,
                      calibration=3.5e-9, warnings=("short_record",))


def _complex_ts():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    return TimeSeries(400.0, 0.0, z * 1e-12, center_freq=250e3)


class TestTimeSeriesFormats:
    @pytest.mark.parametrize("maker", [_real_ts, _complex_ts])
    def test_csv_round_trip(self, tmp_path, maker):
        ts = maker()
        path = tmp_path / "rec.csv"
        write_timeseries_csv(path, ts)
        back = read_timeseries_csv(path)
        assert np.array_equal(back.values, ts.values)
        assert back.sample_rate == ts.sample_rate
        assert back.t0 == ts.t0
        assert back.calibration == ts.calibration
        assert back.center_freq == ts.center_freq
        assert back.warnings == ts.warnings

    @pytest.mark.parametrize("maker", [_real_ts, _complex_ts])
    def test_binary_round_trip(self, tmp_path, maker):
        ts = maker()
        path = tmp_path / "rec.bin"
        write_timeseries_bin(path, ts)
        back = read_timeseries_bin(path)
        assert np.array_equal(back.values, ts.values)
        assert back.sample_rate == ts.sample_rate
        assert back.calibration == ts.calibration
        assert back.center_freq == ts.center_freq

    def test_autodetect_reader(self, tmp_path):
        ts = _real_ts()
        write_timeseries(tmp_path / "a.csv", ts, "csv")
        write_timeseries(tmp_path / "a.bin", ts, "bin")
        assert np.array_equal(read_timeseries(tmp_path / "a.csv").values,
                              ts.values)
        assert np.array_equal(read_timeseries(tmp_path / "a.bin").values,
                              ts.values)
        with pytest.raises(ValueError):
            write_timeseries(tmp_path / "a.xyz", ts, "xyz")

    def test_write_is_deterministic(self, tmp_path):
        ts = _real_ts()
        write_timeseries_csv(tmp_path / "a.csv", ts)
        write_timeseries_csv(tmp_path / "b.csv", ts)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "a.csv"
        write_timeseries_csv(path, _real_ts())
        first = path.read_bytes()
        write_timeseries_csv(path, _real_ts())
        assert path.read_bytes() == first
        assert list(tmp_path.glob(".tmp_*")) == []

    def test_bad_files_raise_format_error(self, tmp_path):
        junk = tmp_path / "junk.csv"
        junk.write_text("hello,world\n1,2\n")
        with pytest.raises(FormatError):
            read_timeseries_csv(junk)
        junkb = tmp_path / "junk.bin"
        junkb.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_timeseries_bin(junkb)
        trunc = tmp_path / "trunc.bin"
        write_timeseries_bin(trunc, _real_ts())
        data = trunc.read_bytes()
        trunc.write_bytes(data[:len(data) - 16])
        with pytest.raises(FormatError):
            read_timeseries_bin(trunc)


class TestDriveRecordFormat:
    def test_round_trip(self, tmp_path):
        fs = 32000.0
        t = np.arange(640) / fs
        rec = DriveRecord(
            1000.0,
            TimeSeries(fs, 0.0, 1e-12 * np.sin(2 * np.pi * 1e3 * t)),
            TimeSeries(fs, 0.0, 5e-13 * np.sin(2 * np.pi * 1e3 * t + 0.4),
                       calibration=2.0))
        path = tmp_path / "rec.csv"
        write_driverecord_csv(path, rec)
        back = read_driverecord_csv(path)
        assert back.drive_freq == rec.drive_freq
        assert np.array_equal(back.base_motion.values, rec.base_motion.values)
        assert np.array_equal(back.response_motion.values,
                              rec.response_motion.values)
        assert back.response_motion.calibration == 2.0

    def test_rejects_wrong_file(self, tmp_path):
        ts = _real_ts()
        write_timeseries_csv(tmp_path / "ts.csv", ts)
        with pytest.raises(FormatError):
            read_driverecord_csv(tmp_path / "ts.csv")


class TestResultDocs:
    def test_round_trip_and_schema(self, tmp_path):
        doc = make_result_doc("analyze q", {"a": 1}, {"q": 418000.0})
        assert doc["schema"] == RESULT_SCHEMA
        path = tmp_path / "res.json"
        write_result_doc(path, doc)
        back = read_result_doc(path)
        assert back == doc

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "res.json"
        doc = make_result_doc("x", {}, {})
        doc["schema"] = "optomech.result/999"
        with pytest.raises(SchemaError):
            write_result_doc(path, doc)
        path.write_text('{"schema": "something.else/7", "outputs": {}}')
        with pytest.raises(SchemaError):
            read_result_doc(path)

    def test_invalid_json_is_format_error(self, tmp_path):
        path = tmp_path / "res.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            read_result_doc(path)


class TestTableCsv:
    def test_columns_written(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, {"freq_hz": np.array([1.0, 2.0]),
                               "value_db": np.array([0.5, -3.25])})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "freq_hz,value_db"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, np.array([[1.0, 0.5], [2.0, -3.25]]))

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table_csv(tmp_path / "t.csv",
                            {"a": np.array([1.0]), "b": np.array([1.0, 2.0])})

    def test_no_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table_csv(tmp_path / "t.csv", {})
        assert list(tmp_path.iterdir()) == []

    def test_2d_column_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table_csv(tmp_path / "t.csv", {"a": np.ones((2, 2))})
        assert list(tmp_path.iterdir()) == []


# The per-element writers the streaming CSV writer replaced, kept as the
# reference its bytes must equal.
def _ref_fmt(x):
    return repr(float(x))


def _ref_timeseries_csv(ts):
    lines = ["# optomech_timeseries v1",
             f"# sample_rate_hz={_ref_fmt(ts.sample_rate)}",
             f"# t0_s={_ref_fmt(ts.t0)}",
             f"# calibration_m_per_unit={_ref_fmt(ts.calibration)}",
             f"# center_freq_hz={_ref_fmt(ts.center_freq)}"]
    for w in ts.warnings:
        lines.append(f"# warning={w}")
    if ts.is_complex:
        lines.append("value_re,value_im")
        lines.extend(f"{_ref_fmt(v.real)},{_ref_fmt(v.imag)}"
                     for v in ts.values)
    else:
        lines.append("value")
        lines.extend(_ref_fmt(v) for v in ts.values)
    return ("\n".join(lines) + "\n").encode()


def _ref_driverecord_csv(rec):
    base, resp = rec.base_motion, rec.response_motion
    lines = ["# optomech_driverecord v1",
             f"# drive_freq_hz={_ref_fmt(rec.drive_freq)}",
             f"# sample_rate_hz={_ref_fmt(base.sample_rate)}",
             f"# t0_s={_ref_fmt(base.t0)}",
             f"# base_calibration_m_per_unit={_ref_fmt(base.calibration)}",
             f"# response_calibration_m_per_unit={_ref_fmt(resp.calibration)}",
             "base,response"]
    lines.extend(f"{_ref_fmt(b)},{_ref_fmt(r)}"
                 for b, r in zip(base.values, resp.values))
    return ("\n".join(lines) + "\n").encode()


def _ref_table_csv(columns):
    names = list(columns)
    arrays = [np.asarray(columns[k], dtype=float) for k in names]
    lines = [",".join(names)]
    for i in range(arrays[0].size):
        lines.append(",".join(_ref_fmt(a[i]) for a in arrays))
    return ("\n".join(lines) + "\n").encode()


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-5, 1e16,
               float(2 ** 53), 0.1, -1.0]


def _values(n, seed):
    x = np.random.default_rng(seed).standard_normal(n) * 1e-12
    x[:len(EDGE_VALUES)] = EDGE_VALUES
    x[-len(EDGE_VALUES):] = EDGE_VALUES[::-1]
    return x


def _writer_cases(n):
    re, im, other = _values(n, 1), _values(n, 2), _values(n, 3)
    real = TimeSeries(8192.0, 0.25, re, calibration=3.5e-9,
                      warnings=("short_record",))
    cplx = TimeSeries(400.0, 0.0, re + 1j * im, center_freq=250e3)
    cplx.values.imag[:] = im     # keep -0.0 imaginary parts
    rec = DriveRecord(1000.0, TimeSeries(32000.0, 0.0, re),
                      TimeSeries(32000.0, 0.0, im, calibration=2.0))
    table = {"freq_hz": re, "value_db": im, "fit": other}
    return {
        "real": (lambda p: write_timeseries_csv(p, real),
                 lambda: _ref_timeseries_csv(real)),
        "complex": (lambda p: write_timeseries_csv(p, cplx),
                    lambda: _ref_timeseries_csv(cplx)),
        "drive": (lambda p: write_driverecord_csv(p, rec),
                  lambda: _ref_driverecord_csv(rec)),
        "table": (lambda p: write_table_csv(p, table),
                  lambda: _ref_table_csv(table)),
    }


def _allow_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n_cpus)), raising=False)


class TestStreamingCsv:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "drive", "table"])
    def test_bytes_equal_per_element_reference(self, tmp_path, monkeypatch,
                                               kind, above, n_cpus):
        # above the pool threshold, with a short last chunk
        n = omio._POOL_MIN_ROWS + omio._CHUNK_ROWS // 2 + 3 if above else 300
        _allow_cpus(monkeypatch, n_cpus)
        assert (omio._pool_size(n) > 0) == (above and n_cpus > 1)
        write, reference = _writer_cases(n)[kind]
        path = tmp_path / f"{kind}.csv"
        write(path)
        assert path.read_bytes() == reference()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failure_leaves_no_file_and_no_child(self, tmp_path, monkeypatch,
                                                 n_cpus):
        _allow_cpus(monkeypatch, n_cpus)

        def failing(columns, start, stop):
            raise RuntimeError(f"formatting failed in pid {os.getpid()}")

        monkeypatch.setattr(omio, "_format_rows", failing)
        ts = TimeSeries(1.0, 0.0, _values(omio._POOL_MIN_ROWS * 2, 4))
        path = tmp_path / "rec.csv"
        with pytest.raises(RuntimeError, match="formatting failed") as err:
            write_timeseries_csv(path, ts)
        pid = int(str(err.value).rsplit(" ", 1)[1])
        assert (pid != os.getpid()) == (n_cpus > 1)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []
        if pid != os.getpid():
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)       # the worker was reaped


class TestFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_files_follow_umask(self, tmp_path, umask):
        ts = _real_ts()
        old = os.umask(umask)
        try:
            write_timeseries_csv(tmp_path / "a.csv", ts)
            write_timeseries_bin(tmp_path / "a.bin", ts)
            write_table_csv(tmp_path / "t.csv", {"a": ts.values})
            write_result_doc(tmp_path / "r.json", make_result_doc("x", {}, {}))
        finally:
            os.umask(old)
        for path in tmp_path.iterdir():
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path.name


_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_real_arrays = hnp.arrays(np.float64, st.integers(2, 40), elements=_finite)
_complex_arrays = hnp.arrays(
    np.complex128, st.integers(2, 40),
    elements=st.builds(complex, _finite, _finite))


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(values=st.one_of(_real_arrays, _complex_arrays))
    @example(values=np.array(EDGE_VALUES))
    @example(values=np.array([complex(0.0, -0.0), complex(-0.0, 5e-324)]))
    def test_csv_and_bin_round_trip_bit_exact(self, tmp_path_factory, values):
        d = tmp_path_factory.mktemp("rt")
        ts = TimeSeries(400.0, 0.0, values)
        write_timeseries_csv(d / "a.csv", ts)
        write_timeseries_bin(d / "a.bin", ts)
        assert _same_bits(read_timeseries_csv(d / "a.csv").values, values)
        assert _same_bits(read_timeseries_bin(d / "a.bin").values, values)
