import hashlib
import multiprocessing
import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optomech import BlockSeries, DriveRecord, TimeSeries, welch_psd
from optomech import io as omio
from optomech import synth as omsynth
from optomech.io import (FormatError, RESULT_SCHEMA, SchemaError,
                         make_result_doc, open_timeseries,
                         read_driverecord_csv,
                         read_driverecords_csv, read_result_doc,
                         read_timeseries, read_timeseries_bin,
                         read_timeseries_csv, write_driverecords_csv,
                         write_result_doc, write_table_csv, write_timeseries,
                         write_timeseries_bin, write_timeseries_csv)
from oracles import whole_array_welch


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


def _bin_with_payload(path, ts, extra=b"", n=None):
    """An OMB1 file of ts, with its header count replaced by n and extra
    bytes after the payload."""
    write_timeseries_bin(path, ts)
    data = bytearray(path.read_bytes())
    if n is not None:
        data[40:48] = n.to_bytes(8, "little")
    path.write_bytes(bytes(data) + extra)
    return path


class TestBinaryReader:
    """The reader checks the payload size against the header before it
    allocates, and reads the payload straight into the record's array."""

    @pytest.mark.parametrize("maker, item", [(_real_ts, 8), (_complex_ts, 16)])
    @pytest.mark.parametrize("extra", [3, 8, 16])
    def test_extra_payload_bytes_name_both_sizes(self, tmp_path, maker,
                                                 item, extra):
        ts = maker()
        path = _bin_with_payload(tmp_path / "a.bin", ts, b"\0" * extra)
        expected = ts.n * item
        with pytest.raises(FormatError,
                           match=f"payload of {expected + extra} bytes, "
                                 f"expected {expected} for {ts.n} samples"):
            read_timeseries_bin(path)

    def test_short_payload_names_both_sizes(self, tmp_path):
        path = _bin_with_payload(tmp_path / "a.bin", _real_ts())
        path.write_bytes(path.read_bytes()[:-13])
        with pytest.raises(FormatError,
                           match=f"payload of {257 * 8 - 13} bytes, "
                                 f"expected {257 * 8}"):
            read_timeseries_bin(path)

    @pytest.mark.parametrize("maker", [_real_ts, _complex_ts])
    def test_huge_header_count_is_checked_before_allocating(self, tmp_path,
                                                            maker):
        path = _bin_with_payload(tmp_path / "a.bin", maker(), n=1 << 60)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"for {1 << 60} samples"):
                read_timeseries_bin(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_short_header(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"OMB1" + b"\0" * 20)
        with pytest.raises(FormatError, match="header is 24 bytes"):
            read_timeseries_bin(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_payload(self, tmp_path, bad):
        path = _bin_with_payload(tmp_path / "a.bin", _real_ts())
        data = bytearray(path.read_bytes())
        data[-8:] = np.float64(bad).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="finite"):
            read_timeseries_bin(path)

    def test_one_sample_record(self, tmp_path):
        path = _bin_with_payload(tmp_path / "a.bin", _real_ts(), n=1)
        path.write_bytes(path.read_bytes()[:48 + 8])
        with pytest.raises(FormatError, match="at least 2 samples"):
            read_timeseries_bin(path)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_memory_is_the_payload(self, tmp_path, dtype):
        n = 1 << 21
        values = np.arange(n * (2 if dtype is np.complex128 else 1),
                           dtype=float).view(dtype)
        write_timeseries_bin(tmp_path / "a.bin", TimeSeries(1.0, 0.0, values))
        del values
        tracemalloc.start()
        try:
            ts = read_timeseries_bin(tmp_path / "a.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.values.dtype == dtype and ts.n == n
        assert ts.values.flags.c_contiguous and ts.values.flags.writeable
        assert peak <= 1.05 * ts.values.nbytes


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
        write_driverecords_csv([path], [rec])
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_value_raises_before_any_file(self, tmp_path, bad):
        # NaN and infinity have no JSON spelling: nothing is written
        doc = make_result_doc("x", {}, {"rms": [1.0, {"tail": bad}]})
        with pytest.raises(ValueError, match="res.json"):
            write_result_doc(tmp_path / "res.json", doc)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["[1, 2]", '"optomech.result/1"', "3",
                                      "null", "true"])
    def test_document_that_is_not_an_object_is_schema_error(self, tmp_path,
                                                            text):
        path = tmp_path / "res.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match="not a result document"):
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
        "drive": (lambda p: write_driverecords_csv([p], [rec]),
                  lambda: _ref_driverecord_csv(rec)),
        "table": (lambda p: write_table_csv(p, table),
                  lambda: _ref_table_csv(table)),
    }


# sha256 of each _writer_cases(n) output as the per-value repr writer wrote
# it, so that any change to CSV bytes fails here and not only in a
# comparison between CPU counts
_WRITER_SHA256 = {
    300: {
        "real": "04d6111fce2f55d11a4f1e1ab9aecc16b3715e5f293a500ac8e04469ad8b344d",
        "complex": "3bbd45de45efcf2fefe21aba5e6dcdd7409375e5de9e78b8f346619d7d5c9998",
        "drive": "9974c51dd4cae17154df7e6c81390b1f7479a5ef5af2ad72b5546c645c9b066f",
        "table": "4c84b78b40e66f64bf786fd74762c04b2dd71915bd80706068fb101b0e9e799e",
    },
    50_003: {
        "real": "c557edfe4c5566c72c437641a3d4f4031945e62c79c11afe710ead1fc6abaad2",
        "complex": "c47ea2ffda12a225ce08cc473f300192f61e5a3c34ca2f35dc37bb9ec135cfb4",
        "drive": "2e025474f89553e9d84f1a7d4c39b272d71a9ae8e7558d5a9e369ee74ac95730",
        "table": "14763f57ea5d1a01a8d89f92777a1eb7ffccd081354456ed6f26556c375840f4",
    },
}


def _allow_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n_cpus)), raising=False)


def _job_pids(monkeypatch):
    """The pids that run the jobs of every ``_cpu_imap`` call from now on."""
    pids = set()
    cpu_imap = omio._cpu_imap

    def spy(fn, jobs, parallel):
        for pid, out in cpu_imap(lambda job: (os.getpid(), fn(job)), jobs,
                                 parallel):
            pids.add(pid)
            yield out

    monkeypatch.setattr(omio, "_cpu_imap", spy)
    return pids


def _sweep(n_records, n):
    return [DriveRecord(1000.0 + k, TimeSeries(32000.0, 0.0, _values(n, k)),
                        TimeSeries(32000.0, 0.0, _values(n, k + 100),
                                   calibration=2.0))
            for k in range(n_records)]


@pytest.fixture
def no_fork(monkeypatch):
    """Make starting a process fail the test: CSV writers format every
    chunk in the calling process."""
    def fork():
        raise AssertionError("a CSV write started a process")

    monkeypatch.setattr(os, "fork", fork)


# rows of a long record: several chunks and a short last one
_LONG_ROWS = 8 * omio._CHUNK_ROWS + omio._CHUNK_ROWS // 2 + 3


@pytest.mark.usefixtures("no_fork")
class TestStreamingCsv:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("long", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "drive", "table"])
    def test_bytes_equal_per_element_reference(self, tmp_path, monkeypatch,
                                               kind, long, n_cpus):
        _allow_cpus(monkeypatch, n_cpus)
        write, reference = _writer_cases(_LONG_ROWS if long else 300)[kind]
        path = tmp_path / f"{kind}.csv"
        write(path)
        assert path.read_bytes() == reference()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("n", sorted(_WRITER_SHA256))
    @pytest.mark.parametrize("kind", ["real", "complex", "drive", "table"])
    def test_bytes_are_pinned(self, tmp_path, kind, n):
        path = tmp_path / f"{kind}.csv"
        _writer_cases(n)[kind][0](path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _WRITER_SHA256[n][kind]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("long", [False, True])
    def test_sweep_bytes_equal_per_record_reference(self, tmp_path,
                                                    monkeypatch, long,
                                                    n_cpus):
        # records shorter than a chunk, together a long record when `long`
        n = omio._CHUNK_ROWS // 2 + 5
        records = _sweep(_LONG_ROWS // n + 1 if long else 2, n)
        _allow_cpus(monkeypatch, n_cpus)
        paths = [tmp_path / f"sweep_{k:03d}.csv" for k in range(len(records))]
        write_driverecords_csv(paths, records)
        for path, rec in zip(paths, records):
            assert path.read_bytes() == _ref_driverecord_csv(rec)
        assert sorted(tmp_path.iterdir()) == paths

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failure_leaves_no_file_and_no_child(self, tmp_path, monkeypatch,
                                                 n_cpus):
        ts = TimeSeries(1.0, 0.0, _values(_LONG_ROWS, 4))
        _check_failed_write(tmp_path, monkeypatch, n_cpus,
                            lambda: write_timeseries_csv(tmp_path / "rec.csv",
                                                         ts))

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_sweep_failure_leaves_no_file_and_no_child(self, tmp_path,
                                                       monkeypatch, n_cpus):
        records = _sweep(4, 2 * omio._CHUNK_ROWS)
        paths = [tmp_path / f"sweep_{k}.csv" for k in range(4)]
        _check_failed_write(tmp_path, monkeypatch, n_cpus,
                            lambda: write_driverecords_csv(paths, records))


def _check_failed_write(tmp_path, monkeypatch, n_cpus, write):
    """A write whose formatting fails after its first chunk, in this
    process, leaves no file and no child."""
    _allow_cpus(monkeypatch, n_cpus)

    def failing(columns, start, stop):
        if start:
            raise RuntimeError(f"formatting failed in pid {os.getpid()}")
        return b""

    monkeypatch.setattr(omio, "_format_rows", failing)
    with pytest.raises(RuntimeError, match="formatting failed") as err:
        write()
    assert int(str(err.value).rsplit(" ", 1)[1]) == os.getpid()
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def _loadtxt_reference(path):
    """The rows of a CSV record as one serial ``np.loadtxt`` reads them."""
    lines = path.read_bytes().split(b"\n")
    skip = next(i for i, line in enumerate(lines)
                if not line.startswith(b"#")) + 1
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip)


def _read_record(path, kind):
    if kind == "drive":
        rec = read_driverecord_csv(path)
        return [rec.base_motion.values, rec.response_motion.values]
    return [read_timeseries_csv(path).values]


def _reference_values(path, kind):
    ref = _loadtxt_reference(path)
    if kind == "complex":
        return [ref.view(np.complex128)[:, 0]]
    return [ref[:, k] for k in range(ref.shape[1])]


def _same_values(got, want):
    return len(got) == len(want) and all(
        _same_bits(a, np.ascontiguousarray(b)) for a, b in zip(got, want))


@pytest.mark.usefixtures("small_ranges")
class TestParallelCsvRead:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "drive"])
    def test_values_equal_serial_loadtxt(self, tmp_path, monkeypatch, kind,
                                         above, n_cpus):
        n = 5003 if above else 300
        path = tmp_path / f"{kind}.csv"
        _writer_cases(n)[kind][0](path)
        assert (path.stat().st_size >= omio._POOL_MIN_BYTES) == above
        _allow_cpus(monkeypatch, n_cpus)
        pids = _job_pids(monkeypatch)
        got = _read_record(path, kind)
        assert bool(pids - {os.getpid()}) == (above and n_cpus > 1)
        assert _same_values(got, _reference_values(path, kind))

    @pytest.mark.parametrize("edit", ["blank", "comment", "crlf",
                                      "no_final_newline", "lone_cr",
                                      "crlf_blank", "first_line_blank"])
    def test_irregular_bodies_read_like_serial(self, tmp_path, monkeypatch,
                                               edit):
        path = tmp_path / "rec.csv"
        _writer_cases(5003)["complex"][0](path)
        text = path.read_bytes()
        middle = text.index(b"\n", len(text) * 3 // 4)
        text = {
            "blank": text[:middle] + b"\n" + text[middle:],
            "comment": text[:middle] + b"\n# note" + text[middle:],
            "crlf": text.replace(b"\n", b"\r\n"),
            "no_final_newline": text[:-1],
            "lone_cr": text[:middle] + b"\r" + text[middle + 1:],
            "crlf_blank": (text[:middle] + b"\n" + text[middle:]).replace(
                b"\n", b"\r\n"),
            "first_line_blank": text.replace(b"value_re,value_im\n",
                                             b"value_re,value_im\n\n"),
        }[edit]
        path.write_bytes(text)
        _allow_cpus(monkeypatch, 1)
        serial = read_timeseries_csv(path).values
        _allow_cpus(monkeypatch, 2)
        assert _same_bits(read_timeseries_csv(path).values, serial)
        assert _same_bits(serial, _reference_values(path, "complex")[0])

    def test_early_stops_do_not_hang(self, tmp_path, monkeypatch):
        # a blank line in the first range stops every read's pool while its
        # workers are still sending results; more workers than CPUs here
        path = tmp_path / "rec.csv"
        _writer_cases(5003)["complex"][0](path)
        text = path.read_bytes()
        row = text.index(b"\n", text.index(b"value_re,value_im\n") + 18)
        path.write_bytes(text[:row] + b"\n" + text[row:])
        reference = _reference_values(path, "complex")[0]
        _allow_cpus(monkeypatch, 4)

        def hung(signum, frame):
            raise TimeoutError("a pool did not shut down")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            for _ in range(20):
                assert _same_bits(read_timeseries_csv(path).values, reference)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_bad_value_in_last_range_is_serial_format_error(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "rec.csv"
        _writer_cases(5003)["real"][0](path)
        text = path.read_bytes()
        path.write_bytes(text[:text.rindex(b"\n", 0, -1) + 1] + b"oops\n")
        errors = []
        for n_cpus in (1, 2):
            _allow_cpus(monkeypatch, n_cpus)
            with pytest.raises(FormatError, match="oops") as err:
                read_timeseries_csv(path)
            errors.append(str(err.value))
            assert multiprocessing.active_children() == []
        # the row number counts from the start of the body, not of a range
        assert errors[1] == errors[0]

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("values_per_row", [1, 3])
    def test_drive_record_needs_two_values_per_row(self, tmp_path,
                                                   monkeypatch, above,
                                                   values_per_row):
        n = 4001 if above else 300
        path = tmp_path / "rec.csv"
        rows = zip(*[_values(n, k).tolist() for k in range(values_per_row)])
        path.write_text("\n".join(
            ["# optomech_driverecord v1", "# drive_freq_hz=1000.0",
             "# sample_rate_hz=32000.0", "base,response"]
            + [",".join(map(repr, row)) for row in rows]) + "\n")
        assert (path.stat().st_size >= omio._POOL_MIN_BYTES) == above
        _allow_cpus(monkeypatch, 2)
        with pytest.raises(FormatError, match="2 value"):
            read_driverecord_csv(path)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_batch_read_equals_per_file_reads(self, tmp_path, monkeypatch,
                                              n_cpus):
        records = _sweep(6, 700)
        paths = [tmp_path / f"sweep_{k:03d}.csv" for k in range(6)]
        write_driverecords_csv(paths, records)
        assert sum(p.stat().st_size for p in paths) >= omio._POOL_MIN_BYTES
        _allow_cpus(monkeypatch, n_cpus)
        pids = _job_pids(monkeypatch)
        back = read_driverecords_csv(paths)
        assert bool(pids - {os.getpid()}) == (n_cpus > 1)
        assert [r.drive_freq for r in back] == [r.drive_freq for r in records]
        for rec, path in zip(back, paths):
            assert _same_values(
                [rec.base_motion.values, rec.response_motion.values],
                _reference_values(path, "drive"))
            assert rec.response_motion.calibration == 2.0


def _noise_ts(n, is_complex, seed=7):
    rng = np.random.default_rng(seed)
    x = 1e-9 * rng.standard_normal(n)
    if is_complex:
        x = x + 1e-9j * rng.standard_normal(n)
    return TimeSeries(1e4, 0.25, x, center_freq=2e4 if is_complex else 0.0)


def _assert_whole_array_bits(spec, ts, segment_len, overlap_frac):
    freqs, psd = whole_array_welch(ts, segment_len, overlap_frac)
    assert spec.psd.tobytes() == psd.tobytes()
    assert spec.freqs.tobytes() == freqs.tobytes()


class TestStreamedWelch:
    """welch_psd over every record source has the bits of the whole-array
    segment loop, also when its segments span blocks, and over a .bin file
    its memory does not grow with the record."""

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_in_memory_blocks(self, is_complex, overlap):
        ts = _noise_ts(1001, is_complex)  # most hops below leave a remainder
        cuts = [[], [1], [500], list(range(10, 1001, 10)),
                [3, 4, 300, 300, 301, 960, 1000]]  # blocks of 0 to 1000 samples
        for segment_len in (2, 37, 256, 1001):
            _assert_whole_array_bits(welch_psd(ts, segment_len, overlap), ts,
                                     segment_len, overlap)
            for inner in cuts:
                bounds = [0, *inner, ts.n]

                def blocks():
                    for a, b in zip(bounds[:-1], bounds[1:]):
                        yield ts.values[a:b].copy()

                rec = BlockSeries(ts.sample_rate, ts.t0, ts.n,
                                  ts.values.dtype, blocks,
                                  center_freq=ts.center_freq)
                _assert_whole_array_bits(welch_psd(rec, segment_len, overlap),
                                         ts, segment_len, overlap)

    @pytest.mark.usefixtures("small_ranges")
    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_file_sources(self, tmp_path, monkeypatch, fmt, is_complex,
                          above, n_cpus):
        # .bin blocks of 1000 samples and CSV ranges of 360 to 700 rows,
        # shorter than the longest segment
        monkeypatch.setattr(omsynth, "_CHUNK", 1000)
        ts = _noise_ts(5003 if above else 300, is_complex)
        path = tmp_path / f"rec.{fmt}"
        write_timeseries(path, ts, fmt)
        if fmt == "csv":
            assert (path.stat().st_size >= omio._POOL_MIN_BYTES) == above
        _allow_cpus(monkeypatch, n_cpus)
        pids = _job_pids(monkeypatch)
        for overlap in (0.0, 0.5, 0.9):
            for segment_len in (64, 255, 2048):
                if segment_len <= ts.n:
                    spec = welch_psd(open_timeseries(path), segment_len,
                                     overlap)
                    _assert_whole_array_bits(spec, ts, segment_len, overlap)
        assert bool(pids - {os.getpid()}) == (
            fmt == "csv" and above and n_cpus > 1)
        assert multiprocessing.active_children() == []

    def test_ring_slots_with_more_workers_than_cpus(self, tmp_path,
                                                    monkeypatch):
        # 4 KiB ranges on 4 workers, sharing 8 slots that are each reused
        # about 27 times: a slot refilled before its block was used would
        # change the bits
        monkeypatch.setattr(omio, "_POOL_MIN_BYTES", 1 << 12)
        monkeypatch.setattr(omio, "_RANGE_BYTES", 1 << 12)
        ts = _noise_ts(20011, True)
        path = tmp_path / "rec.csv"
        write_timeseries_csv(path, ts)
        _allow_cpus(monkeypatch, 4)

        def hung(signum, frame):
            raise TimeoutError("a pool did not shut down")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            for _ in range(5):
                spec = welch_psd(open_timeseries(path), 1000)
                _assert_whole_array_bits(spec, ts, 1000, 0.5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_bin_memory_is_a_few_segments(self, tmp_path):
        segment_len = 1 << 17
        peaks = []
        for n in (1 << 19, 1 << 21):
            values = np.arange(2 * n, dtype=float).view(np.complex128)
            write_timeseries_bin(tmp_path / "a.bin",
                                 TimeSeries(1.0, 0.0, values))
            del values
            rec = open_timeseries(tmp_path / "a.bin")
            # a first call imports numpy.fft and fills the interpreter's
            # free lists, which earlier tests may or may not have done:
            # each traced call follows the same untraced one
            welch_psd(rec, segment_len)
            tracemalloc.start()
            try:
                welch_psd(rec, segment_len)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a block, the carry buffer, the window and the segment's work
        # arrays, while the longer record is 32 MB, 16 segments
        assert peaks[0] == peaks[1]
        assert peaks[1] < 8 * segment_len * 16


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
