import hashlib
import io
import os
import re
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
                         read_driverecord_csv, read_result_doc,
                         read_whole, write_driverecord_csv,
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
        back = read_whole(open_timeseries(path))
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
        back = read_whole(open_timeseries(path))
        assert np.array_equal(back.values, ts.values)
        assert back.sample_rate == ts.sample_rate
        assert back.calibration == ts.calibration
        assert back.center_freq == ts.center_freq

    def test_autodetect_reader(self, tmp_path):
        ts = _real_ts()
        write_timeseries(tmp_path / "a.csv", ts, "csv")
        write_timeseries(tmp_path / "a.bin", ts, "bin")
        for name in ("a.csv", "a.bin"):
            back = read_whole(open_timeseries(tmp_path / name))
            assert np.array_equal(back.values, ts.values)
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
            read_whole(open_timeseries(junk))
        junkb = tmp_path / "junk.bin"
        junkb.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_whole(open_timeseries(junkb))
        trunc = tmp_path / "trunc.bin"
        write_timeseries_bin(trunc, _real_ts())
        data = trunc.read_bytes()
        trunc.write_bytes(data[:len(data) - 16])
        with pytest.raises(FormatError):
            read_whole(open_timeseries(trunc))


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
    allocates, and reads the payload a block at a time."""

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
            open_timeseries(path)

    def test_short_payload_names_both_sizes(self, tmp_path):
        path = _bin_with_payload(tmp_path / "a.bin", _real_ts())
        path.write_bytes(path.read_bytes()[:-13])
        with pytest.raises(FormatError,
                           match=f"payload of {257 * 8 - 13} bytes, "
                                 f"expected {257 * 8}"):
            open_timeseries(path)

    @pytest.mark.parametrize("maker", [_real_ts, _complex_ts])
    def test_huge_header_count_is_checked_before_allocating(self, tmp_path,
                                                            maker):
        path = _bin_with_payload(tmp_path / "a.bin", maker(), n=1 << 60)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"for {1 << 60} samples"):
                open_timeseries(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_short_header(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"OMB1" + b"\0" * 20)
        with pytest.raises(FormatError, match="header is 24 bytes"):
            open_timeseries(path)

    @pytest.mark.parametrize("flags", [0x82, 0x03], ids=["0x82", "0x03"])
    def test_unknown_flag_bits_are_rejected(self, tmp_path, flags):
        path = _bin_with_payload(tmp_path / "a.bin", _real_ts())
        data = bytearray(path.read_bytes())
        data[4] = flags
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"flag byte {flags:#04x}, "
                           r"expected 0 \(real\) or 1 \(complex\)"):
            open_timeseries(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_payload(self, tmp_path, bad):
        path = _bin_with_payload(tmp_path / "a.bin", _real_ts())
        data = bytearray(path.read_bytes())
        data[-8:] = np.float64(bad).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="finite"):
            read_whole(open_timeseries(path))

    def test_one_sample_record(self, tmp_path):
        path = _bin_with_payload(tmp_path / "a.bin", _real_ts(), n=1)
        path.write_bytes(path.read_bytes()[:48 + 8])
        with pytest.raises(FormatError, match="at least 2 samples"):
            open_timeseries(path)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_memory_is_the_payload_and_one_block(self, tmp_path, dtype):
        # a whole read gathers the blocks of open_timeseries: the record's
        # array and one reused block, never the record twice
        n = 1 << 21
        values = np.arange(n * (2 if dtype is np.complex128 else 1),
                           dtype=float).view(dtype)
        write_timeseries_bin(tmp_path / "a.bin", TimeSeries(1.0, 0.0, values))
        del values
        tracemalloc.start()
        try:
            ts = read_whole(open_timeseries(tmp_path / "a.bin"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.values.dtype == dtype and ts.n == n
        assert ts.values.flags.c_contiguous and ts.values.flags.writeable
        block = (1 << 17) * ts.values.itemsize
        assert peak <= 1.05 * (ts.values.nbytes + block)


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
        "drive": (lambda p: write_driverecord_csv(p, rec),
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


def _sweep(n_records, n):
    return [DriveRecord(1000.0 + k, TimeSeries(32000.0, 0.0, _values(n, k)),
                        TimeSeries(32000.0, 0.0, _values(n, k + 100),
                                   calibration=2.0))
            for k in range(n_records)]


# rows of a long record: several chunks and a short last one
_LONG_ROWS = 8 * omio._CHUNK_ROWS + omio._CHUNK_ROWS // 2 + 3


class TestStreamingCsv:
    @pytest.mark.parametrize("long", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "drive", "table"])
    def test_bytes_equal_per_element_reference(self, tmp_path, kind, long):
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

    @pytest.mark.parametrize("long", [False, True])
    def test_sweep_bytes_equal_per_record_reference(self, tmp_path, long):
        # records shorter than a chunk, together a long record when `long`
        n = omio._CHUNK_ROWS // 2 + 5
        records = _sweep(_LONG_ROWS // n + 1 if long else 2, n)
        paths = [tmp_path / f"sweep_{k:03d}.csv" for k in range(len(records))]
        for path, rec in zip(paths, records):
            write_driverecord_csv(path, rec)
            assert path.read_bytes() == _ref_driverecord_csv(rec)
        assert sorted(tmp_path.iterdir()) == paths

    def test_failure_leaves_no_file_and_no_child(self, tmp_path, monkeypatch):
        ts = TimeSeries(1.0, 0.0, _values(_LONG_ROWS, 4))
        _check_failed_write(tmp_path, monkeypatch,
                            lambda: write_timeseries_csv(tmp_path / "rec.csv",
                                                         ts))

    def test_sweep_failure_leaves_no_file_and_no_child(self, tmp_path,
                                                       monkeypatch):
        records = _sweep(4, 2 * omio._CHUNK_ROWS)
        paths = [tmp_path / f"sweep_{k}.csv" for k in range(4)]
        _check_failed_write(
            tmp_path, monkeypatch,
            lambda: [write_driverecord_csv(path, rec)
                     for path, rec in zip(paths, records)])


def _check_failed_write(tmp_path, monkeypatch, write):
    """A write whose formatting fails after its first chunk, in this
    process, leaves no file."""

    def failing(columns, start, stop):
        if start:
            raise RuntimeError(f"formatting failed in pid {os.getpid()}")
        return b""

    monkeypatch.setattr(omio, "_format_rows", failing)
    with pytest.raises(RuntimeError, match="formatting failed") as err:
        write()
    assert int(str(err.value).rsplit(" ", 1)[1]) == os.getpid()
    assert list(tmp_path.iterdir()) == []


def _loadtxt_reference(path):
    """The rows of a CSV record as one serial ``np.loadtxt`` reads them."""
    lines = path.read_bytes().split(b"\n")
    skip = next(i for i, line in enumerate(lines)
                if not line.startswith(b"#")) + 1
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip)


def _body_offset(text):
    """The byte offset of the first row of a CSV record's text."""
    at = 0
    while text.startswith(b"#", at):
        at = text.index(b"\n", at) + 1
    return text.index(b"\n", at) + 1


def _read_record(path, kind):
    if kind == "drive":
        rec = read_driverecord_csv(path)
        return [rec.base_motion.values, rec.response_motion.values]
    return [read_whole(open_timeseries(path)).values]


def _reference_values(path, kind):
    ref = _loadtxt_reference(path)
    if kind == "complex":
        return [ref.view(np.complex128)[:, 0]]
    return [ref[:, k] for k in range(ref.shape[1])]


def _same_values(got, want):
    return len(got) == len(want) and all(
        _same_bits(a, np.ascontiguousarray(b)) for a, b in zip(got, want))


_OUTSIDE_THE_GRAMMAR = [" 1.0", "1_0", "nan", "0x1p3",
                        "1.23456789012345678901234567890"]
# a decimal, padded by spaces and tabs or not: the fields a body may hold
_DECIMAL = re.compile(r"[ \t]*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?[ \t]*")


def _put_field(path, n, field):
    """Write a real record of n samples with ``field`` as a row near the
    middle of its body: the row's byte offset and file line, and the body's
    ranges."""
    write_timeseries_csv(path, _noise_ts(n, False))
    text = path.read_bytes()
    row = text.index(b"\n", len(text) // 2) + 1
    path.write_bytes(text[:row] + field.encode()
                     + text[text.index(b"\n", row):])
    return (row, text[:row].count(b"\n") + 1,
            omio._scan_ranges(path, text.index(b"\nvalue\n") + 7))


def _assert_both_readers_like_loadtxt(path, segment_len, field, line):
    """read_whole and welch_psd over open_timeseries give the
    values of np.loadtxt on the body, or both the same FormatError, which
    names the file line of ``field`` if it is no decimal."""
    want = (_reference_values(path, "real")[0] if _DECIMAL.fullmatch(field)
            else None)
    if want is not None and np.isfinite(want).all():
        ts = read_whole(open_timeseries(path))
        assert _same_bits(ts.values, want)
        assert _same_bits(welch_psd(open_timeseries(path), segment_len).psd,
                          welch_psd(ts, segment_len).psd)
        return
    problem = ("TimeSeries values must be finite" if want is not None
               else f"line {line}: expected 1 value(s) per row, got {field!r}")
    for read in (lambda p: read_whole(open_timeseries(p)),
                 lambda p: welch_psd(open_timeseries(p), segment_len)):
        with pytest.raises(FormatError) as err:
            read(path)
        assert str(err.value) == (
            f"{path}: malformed timeseries CSV: {problem}")


# edits of a body that leave it not one row per line, each on the row that
# starts at byte p and ends with the newline at byte e, and each first
# offending on that row's line
_REJECTED_EDITS = {
    "blank": lambda t, p, e: t[:p] + b"\n" + t[p:],
    "comment": lambda t, p, e: t[:p] + b"# note\n" + t[p:],
    "trailing_comment": lambda t, p, e: t[:e] + b"#x" + t[e:],
    "lone_cr": lambda t, p, e: t[:e] + b"\r" + t[e + 1:],
    # a text reader that ended lines at a lone CR would count right
    "blank_and_lone_cr": lambda t, p, e: (t[:p] + b"\n" + t[p:e] + b"\r"
                                          + t[e + 1:]),
    "crlf_blank": lambda t, p, e: (t[:p] + b"\n" + t[p:]).replace(b"\n",
                                                                  b"\r\n"),
    "crlf_bad_row": lambda t, p, e: (t[:p] + b"oops,1.0\n"
                                     + t[p:]).replace(b"\n", b"\r\n"),
    "blank_run": lambda t, p, e: t[:p] + b"\n" * 20480 + t[p:],
    "long_line": lambda t, p, e: (t[:p] + b"1" * (omio._RANGE_BYTES + 1)
                                  + t[p:]),
    # a line too long for a range is named only if no earlier line is bad
    "row_before_long_line": lambda t, p, e: (
        t[:p] + b"oops\n" + t[p:] + b"1" * (omio._RANGE_BYTES + 1) + b"\n"),
}


@pytest.mark.usefixtures("small_ranges")
class TestCsvBodyGrammar:
    """A CSV body is one row per line, ended by LF or CRLF, the last line's
    end optional and empty lines allowed after the last row.  Read a range
    at a time, such a body gives np.loadtxt's values, and any other body is
    a FormatError naming the file line of its first line that is not a
    row."""

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "drive"])
    def test_values_equal_serial_loadtxt(self, tmp_path, kind, above):
        n = 5003 if above else 300
        path = tmp_path / f"{kind}.csv"
        _writer_cases(n)[kind][0](path)
        assert (path.stat().st_size > omio._RANGE_BYTES) == above
        got = _read_record(path, kind)
        assert _same_values(got, _reference_values(path, kind))

    @pytest.mark.parametrize("edit", ["crlf", "no_final_newline",
                                      "final_empty_lines", "savetxt"])
    @pytest.mark.parametrize("kind", ["complex", "drive"])
    def test_other_spellings_read_like_loadtxt(self, tmp_path, kind, edit):
        path = tmp_path / "rec.csv"
        _writer_cases(5003)[kind][0](path)
        text = path.read_bytes()
        if edit == "savetxt":
            # '%.18e': a negative value takes 25 bytes, one more than the
            # kernel reads
            body = io.BytesIO()
            np.savetxt(body, _loadtxt_reference(path), delimiter=",")
            text = text[:_body_offset(text)] + body.getvalue()
            assert b",-" in text
        else:
            text = {"crlf": text.replace(b"\n", b"\r\n"),
                    "no_final_newline": text[:-1],
                    "final_empty_lines": text + b"\r\n\n" * 9000}[edit]
        path.write_bytes(text)
        assert _same_values(_read_record(path, kind),
                            _reference_values(path, kind))

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("edit", sorted(_REJECTED_EDITS))
    @pytest.mark.parametrize("kind", ["complex", "drive"])
    def test_other_bodies_name_their_first_bad_line(self, tmp_path, kind,
                                                    edit, at):
        path = tmp_path / "rec.csv"
        _writer_cases(5003)[kind][0](path)
        text = path.read_bytes()
        body = _body_offset(text)
        p = {"first": body,
             "middle": text.index(b"\n", len(text) // 2) + 1,
             "last": text.rindex(b"\n", 0, -1) + 1}[at]
        ranges = omio._scan_ranges(path, body)
        k = [start <= p < stop for start, stop, *_ in ranges].index(True)
        assert {"first": k == 0, "middle": 0 < k < len(ranges) - 1,
                "last": k == len(ranges) - 1}[at]
        line = text[:p].count(b"\n") + 1
        path.write_bytes(_REJECTED_EDITS[edit](text, p, text.index(b"\n", p)))
        name = "drive-record" if kind == "drive" else "timeseries"
        with pytest.raises(FormatError) as err:
            _read_record(path, kind)
        assert str(err.value).startswith(
            f"{path}: malformed {name} CSV: line {line}: ")

    def test_bad_value_in_last_range_names_its_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        _writer_cases(5003)["real"][0](path)
        text = path.read_bytes()
        row = text.rindex(b"\n", 0, -1) + 1
        path.write_bytes(text[:row] + b"oops\n")
        # the line counts from the start of the file, not of a range
        line = text[:row].count(b"\n") + 1
        with pytest.raises(FormatError) as err:
            read_whole(open_timeseries(path))
        assert str(err.value) == (
            f"{path}: malformed timeseries CSV: line {line}: expected 1 "
            "value(s) per row, got 'oops'")

    def test_bad_crlf_row_is_quoted_without_its_line_end(self, tmp_path):
        path = tmp_path / "rec.csv"
        _writer_cases(5003)["complex"][0](path)
        text = path.read_bytes()
        row = text.index(b"\n", len(text) // 2) + 1
        line = text[:row].count(b"\n") + 1
        path.write_bytes((text[:row] + b"oops,1.0\n" + text[row:]).replace(
            b"\n", b"\r\n"))
        with pytest.raises(FormatError) as err:
            read_whole(open_timeseries(path))
        assert str(err.value) == (
            f"{path}: malformed timeseries CSV: line {line}: expected 2 "
            "value(s) per row, got 'oops,1.0'")

    @pytest.mark.parametrize("field", _OUTSIDE_THE_GRAMMAR)
    def test_field_outside_the_grammar_reads_like_loadtxt(self, tmp_path,
                                                          field):
        path = tmp_path / "rec.csv"
        row, line, ranges = _put_field(path, 5003, field)
        assert ranges[1][0] < row < ranges[-2][1]      # in a middle range
        _assert_both_readers_like_loadtxt(path, 1000, field, line)

    @pytest.mark.parametrize("field", _OUTSIDE_THE_GRAMMAR)
    def test_field_outside_the_grammar_in_one_range_reads_like_loadtxt(
            self, tmp_path, field):
        path = tmp_path / "rec.csv"
        _, line, ranges = _put_field(path, 300, field)
        assert len(ranges) == 1
        _assert_both_readers_like_loadtxt(path, 100, field, line)

    @pytest.mark.parametrize("body", [b"", b"\n" * 3, b"\r\n" * 20000],
                             ids=["none", "empty-lines", "ranges-of-them"])
    def test_body_without_rows_is_no_samples(self, tmp_path, body):
        path = tmp_path / "rec.csv"
        head = b"# optomech_timeseries v1\n# sample_rate_hz=1.0\nvalue\n"
        path.write_bytes(head + body)
        assert omio._scan_ranges(path, len(head)) == []
        with pytest.raises(FormatError, match="at least 2 samples$"):
            open_timeseries(path)

    @pytest.mark.parametrize("tail, reads", [(b"\r\n\n", 0),
                                             (b"\r\n\n" * 9000, 2)],
                             ids=["in-the-last-range", "ranges-of-them"])
    def test_final_empty_lines_read_once(self, tmp_path, monkeypatch, tail,
                                         reads):
        # the scan leaves the last range in its buffer: the empty lines
        # that end a body are found there, and only ranges before it that
        # they reach back into are read again
        path = tmp_path / "rec.csv"
        write_timeseries_csv(path, _noise_ts(5003, False))
        text = path.read_bytes()
        path.write_bytes(text + tail)
        body = text.index(b"\nvalue\n") + 7
        want = omio._scan_ranges(path, body)
        assert len(want) > 2 and want[-1][1] == len(text) - 1
        calls = []

        class Counted(io.BufferedReader):
            def read(self, size=-1):
                calls.append(size)
                return super().read(size)

        monkeypatch.setattr(omio, "open", lambda path, mode: Counted(
            io.FileIO(path, mode.replace("b", ""))), raising=False)
        assert omio._scan_ranges(path, body) == want
        assert calls[0] == body          # the lines before the body
        assert len(calls) - 1 == reads

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("values_per_row", [1, 3])
    def test_drive_record_needs_two_values_per_row(self, tmp_path, above,
                                                   values_per_row):
        n = 4001 if above else 200
        path = tmp_path / "rec.csv"
        rows = zip(*[_values(n, k).tolist() for k in range(values_per_row)])
        path.write_text("\n".join(
            ["# optomech_driverecord v1", "# drive_freq_hz=1000.0",
             "# sample_rate_hz=32000.0", "base,response"]
            + [",".join(map(repr, row)) for row in rows]) + "\n")
        assert (path.stat().st_size > omio._RANGE_BYTES) == above
        with pytest.raises(FormatError, match="2 value"):
            read_driverecord_csv(path)


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
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_file_sources(self, tmp_path, monkeypatch, fmt, is_complex,
                          above):
        # .bin blocks of 1000 samples and CSV ranges of 360 to 700 rows,
        # shorter than the longest segment
        monkeypatch.setattr(omsynth, "_CHUNK", 1000)
        ts = _noise_ts(5003 if above else 300, is_complex)
        path = tmp_path / f"rec.{fmt}"
        write_timeseries(path, ts, fmt)
        if fmt == "csv":
            assert (path.stat().st_size > omio._RANGE_BYTES) == above
        for overlap in (0.0, 0.5, 0.9):
            for segment_len in (64, 255, 2048):
                if segment_len <= ts.n:
                    spec = welch_psd(open_timeseries(path), segment_len,
                                     overlap)
                    _assert_whole_array_bits(spec, ts, segment_len, overlap)

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

    def test_in_memory_record_memory_is_one_window(self):
        segment_len = 1 << 17
        peaks = []
        for n in (1 << 19, 1 << 21):
            ts = TimeSeries(1.0, 0.0,
                            np.arange(2 * n, dtype=float).view(np.complex128))
            welch_psd(ts, segment_len)   # untraced first call, as above
            tracemalloc.start()
            try:
                welch_psd(ts, segment_len)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the segment window and the segment's work arrays, while the
        # longer record, held by the caller, is 32 MB, 16 segments
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
        for name in ("a.csv", "a.bin"):
            assert _same_bits(read_whole(open_timeseries(d / name)).values,
                              values)
