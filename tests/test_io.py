import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optomech import DriveRecord, TimeSeries
from optomech import io as omio
from optomech.io import (FormatError, RESULT_SCHEMA, SchemaError,
                         make_result_doc, read_driverecord_csv,
                         read_driverecords_csv, read_result_doc,
                         read_timeseries, read_timeseries_bin,
                         read_timeseries_csv, write_driverecords_csv,
                         write_result_doc, write_table_csv, write_timeseries,
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


class TestStreamingCsv:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "drive", "table"])
    def test_bytes_equal_per_element_reference(self, tmp_path, monkeypatch,
                                               kind, above, n_cpus):
        # above the pool threshold, with a short last chunk
        n = omio._POOL_MIN_ROWS + omio._CHUNK_ROWS // 2 + 3 if above else 300
        _allow_cpus(monkeypatch, n_cpus)
        pids = _job_pids(monkeypatch)
        write, reference = _writer_cases(n)[kind]
        path = tmp_path / f"{kind}.csv"
        write(path)
        assert bool(pids - {os.getpid()}) == (above and n_cpus > 1)
        assert path.read_bytes() == reference()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("above", [False, True])
    def test_sweep_bytes_equal_per_record_reference(self, tmp_path,
                                                    monkeypatch, above,
                                                    n_cpus):
        # records below the pool threshold, together above it when `above`
        n = omio._CHUNK_ROWS // 2 + 5
        records = _sweep(omio._POOL_MIN_ROWS // n + 1 if above else 2, n)
        _allow_cpus(monkeypatch, n_cpus)
        pids = _job_pids(monkeypatch)
        paths = [tmp_path / f"sweep_{k:03d}.csv" for k in range(len(records))]
        write_driverecords_csv(paths, records)
        assert bool(pids - {os.getpid()}) == (above and n_cpus > 1)
        for path, rec in zip(paths, records):
            assert path.read_bytes() == _ref_driverecord_csv(rec)
        assert sorted(tmp_path.iterdir()) == paths

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failure_leaves_no_file_and_no_child(self, tmp_path, monkeypatch,
                                                 n_cpus):
        ts = TimeSeries(1.0, 0.0, _values(omio._POOL_MIN_ROWS * 2, 4))
        _check_failed_write(tmp_path, monkeypatch, n_cpus,
                            lambda: write_timeseries_csv(tmp_path / "rec.csv",
                                                         ts))

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_sweep_failure_leaves_no_file_and_no_child(self, tmp_path,
                                                       monkeypatch, n_cpus):
        records = _sweep(4, omio._POOL_MIN_ROWS // 2)
        paths = [tmp_path / f"sweep_{k}.csv" for k in range(4)]
        _check_failed_write(tmp_path, monkeypatch, n_cpus,
                            lambda: write_driverecords_csv(paths, records))


def _check_failed_write(tmp_path, monkeypatch, n_cpus, write):
    """A write whose formatting fails leaves no file and no child."""
    _allow_cpus(monkeypatch, n_cpus)

    def failing(columns, start, stop):
        raise RuntimeError(f"formatting failed in pid {os.getpid()}")

    monkeypatch.setattr(omio, "_format_rows", failing)
    with pytest.raises(RuntimeError, match="formatting failed") as err:
        write()
    pid = int(str(err.value).rsplit(" ", 1)[1])
    assert (pid != os.getpid()) == (n_cpus > 1)
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
    if pid != os.getpid():
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)       # the worker was reaped


def _loadtxt_reference(path):
    """The rows of a CSV record as one serial ``np.loadtxt`` reads them."""
    lines = path.read_bytes().split(b"\n")
    skip = next(i for i, line in enumerate(lines)
                if not line.startswith(b"#")) + 1
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip)


@pytest.fixture
def small_ranges(monkeypatch):
    """Pool thresholds small enough for records of a few thousand rows."""
    monkeypatch.setattr(omio, "_POOL_MIN_BYTES", 1 << 16)
    monkeypatch.setattr(omio, "_RANGE_BYTES", 1 << 14)


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
                                      "no_final_newline", "lone_cr"])
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
