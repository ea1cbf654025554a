"""File formats: TimeSeries/DriveRecord CSV, compact binary records, and
JSON result documents.

CSV records are human-inspectable with '#'-prefixed header lines carrying
the metadata (sample_rate_hz, t0_s, calibration_m_per_unit, center_freq_hz;
center_freq_hz is 0 for baseband records, and complex-envelope records use
two value columns).  The binary variant (OMB1) is for large records: a
48-byte little-endian header (magic "OMB1"; a flag byte, 0 for a real and
1 for a complex payload, any other value rejected; sample rate, t0,
calibration, center frequency, sample count) and the float64 or
complex128 payload, whose size is checked against the header when the
record is opened.  open_timeseries is the one reader of a record file in
either format.  It opens the record as a BlockSeries that is read a block
at a time: a .bin payload into one reused block, a CSV body a parsed
range at a time.  So an analysis that reads a record once and in order
never holds it whole, and read_whole gathers the same block stream into
one array.  Every reader reports a malformed file through _malformed, as
FormatError("<path>: malformed <kind>: <error>").  All writes are atomic
(temp file + rename), and files are created with mode 0666 minus the
umask.  CSV floats are written exactly as repr writes them, the shortest
decimal that reads back as the same double, so a rerun with the same
inputs is byte-identical; _shortest.csv_text computes the digits of a
whole chunk at once with Ryu and leaves zeros, subnormals, non-finite
values and the few others it does not cover to repr.

Writers read a TimeSeries or BlockSeries one block at a time and format
CSV rows in fixed chunks, so a streamed record is never held whole.  A CSV
body holds one row per line (_CsvBody).  Readers cut it at newlines into
ranges of about a MiB and parse a range at a time with _parse.parse_rows,
which reads each decimal field to the double nearest it.  A body of
another shape, or with a field that is no decimal, is malformed, and its
error names the offending line.
"""

import contextlib
import json
import os
import struct

import numpy as np

# imported with io, not at the first CSV read or write: a module loaded
# after a command has freed large blocks keeps the malloc heap from
# shrinking
from ._parse import PAD, parse_rows
from ._shortest import csv_text
from .synth import BlockSeries, DriveRecord, TimeSeries, _all_finite, _chunks

RESULT_SCHEMA = "optomech.result/1"
_TS_MAGIC = b"OMB1"
# magic, flag byte (0 real, 1 complex payload), sample rate, t0,
# calibration, center frequency, sample count
_TS_HEAD = struct.Struct("<4sB3x4dQ")

_CHUNK_ROWS = 1 << 14  # rows formatted and written at a time
# bytes of CSV body parsed at a time; a longer body is streamed
_RANGE_BYTES = 1 << 20


class FormatError(OSError):
    """Raised for malformed or mismatched data files."""


class SchemaError(FormatError):
    """Raised when a result document carries an unexpected schema id."""


@contextlib.contextmanager
def _malformed(path, kind):
    """Re-raise a ValueError from the block, or the KeyError of a missing
    header key, as FormatError("<path>: malformed <kind>: <error>")."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed {kind}: {exc}") from exc


@contextlib.contextmanager
def _atomic_open(path):
    """Binary file object on a new temp file beside ``path``.

    The temp file replaces ``path`` when the block ends and is removed if the
    block raises.  It is created with mode 0666, so the umask applies as it
    does to any ordinary file.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp_{os.urandom(8).hex()}~")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    return repr(float(x))


def _format_rows(columns, start, stop) -> bytes:
    """CSV lines of rows [start, stop): each float as its repr."""
    return csv_text(np.stack([c[start:stop] for c in columns], axis=1))


def _csv_columns(columns):
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if not columns:
        raise ValueError("a CSV needs at least one column")
    if any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-D")
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("all columns must have equal length")
    return columns


def _write_csv(path, header, blocks):
    """Stream a CSV through ``_atomic_open``: the header lines, then the
    rows of each block, a list of equal-length 1-D float columns,
    formatted ``_CHUNK_ROWS`` rows at a time."""
    with _atomic_open(path) as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for columns in blocks:
            columns = _csv_columns(columns)
            for start in range(0, columns[0].size, _CHUNK_ROWS):
                fh.write(_format_rows(columns, start, start + _CHUNK_ROWS))


def write_timeseries_csv(path, ts):
    """A TimeSeries or BlockSeries as a CSV record, written a block at a
    time (ts.blocks())."""
    lines = ["# optomech_timeseries v1",
             f"# sample_rate_hz={_fmt(ts.sample_rate)}",
             f"# t0_s={_fmt(ts.t0)}",
             f"# calibration_m_per_unit={_fmt(ts.calibration)}",
             f"# center_freq_hz={_fmt(ts.center_freq)}"]
    for w in ts.warnings:
        lines.append(f"# warning={w}")
    lines.append("value_re,value_im" if ts.is_complex else "value")
    with contextlib.closing(ts.blocks()) as blocks:
        _write_csv(path, lines, ([b.real, b.imag] if ts.is_complex else [b]
                                 for b in blocks))


def _read_header(path, magic, kind):
    """Metadata and warnings from the '#' lines of a CSV record, its column
    line, and the byte offset of its first row.

    Lines end at b"\\n"; a trailing "\\r" is stripped with the other
    whitespace.
    """
    meta = {}
    warnings = []
    with open(path, "rb") as fh:
        if not fh.readline().startswith(magic):
            raise FormatError(f"{path}: not an optomech {kind} CSV")
        with _malformed(path, f"{kind} CSV"):
            line = fh.readline().decode("utf-8")
            while line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    if key.strip() == "warning":
                        warnings.append(val.strip())
                    else:
                        meta[key.strip()] = val.strip()
                line = fh.readline().decode("utf-8")
        return meta, warnings, line.strip(), fh.tell()


def _scan_ranges(path, offset):
    """The body after byte ``offset`` cut at newlines into ranges of about
    ``_RANGE_BYTES``, as ``(start, stop, line, rows)``: the bytes ``[start,
    stop)`` hold ``rows`` lines, the first of them line ``line`` of the
    file; ``stop`` is None for ``_RANGE_BYTES`` bytes without a newline,
    which ``_CsvBody.blocks`` rejects when it reaches them.  The empty
    lines that end the body are left out (``_drop_final_empty_lines``).
    The body is read into one reused buffer, which holds the last range
    when the scan ends."""
    ranges = []
    block = bytearray(_RANGE_BYTES)
    newline = np.empty(_RANGE_BYTES, bool)
    with open(path, "rb") as fh:
        line = fh.read(offset).count(b"\n") + 1
        start = offset
        while True:
            fh.seek(start)
            stop = fh.readinto(block)
            if not stop:
                return _drop_final_empty_lines(fh, ranges, block)
            if stop == _RANGE_BYTES:
                stop = block.rfind(b"\n") + 1
                if not stop:     # the next range holds the line's end
                    ranges.append((start, None, line, 0))
                    start += _RANGE_BYTES
                    continue
            newlines = np.equal(np.frombuffer(block, np.uint8, count=stop), 10,
                                out=newline[:stop])
            rows = int(np.count_nonzero(newlines)) + (block[stop - 1] != 10)
            ranges.append((start, start + stop, line, rows))
            start += stop
            line += rows


def _drop_final_empty_lines(fh, ranges, last):
    """``ranges`` without the empty lines, each ended by b"\\n" or
    b"\\r\\n", that follow the last row of the body; as they are if a
    carriage return without a newline lies among those lines, so that the
    parse finds it.  ``last`` begins with the last range's bytes, as the
    scan read them; an earlier range is read from ``fh`` only when those
    lines reach back into it."""
    for k in range(len(ranges) - 1, -1, -1):
        start, stop, line, rows = ranges[k]
        if stop is None:
            return ranges[:k + 1]
        if k == len(ranges) - 1:
            text = memoryview(last)[:stop - start]
        else:
            fh.seek(start)
            text = fh.read(stop - start)
        tail = _trailing_line_ends(text)
        if tail.count(b"\r") != tail.count(b"\r\n"):
            return ranges
        if len(tail) < len(text):
            # the range's rows counted its newlines, and a last line
            # without one
            newlines = rows - (text[-1] != 10)
            return ranges[:k] + [(start, stop - len(tail), line,
                                  newlines - tail.count(b"\n") + 1)]
    return []


def _trailing_line_ends(text):
    """The run of b"\\r" and b"\\n" that ends ``text``, found in pieces
    that double in length from its end."""
    size = 64
    while True:
        piece = bytes(text[-size:])
        tail = piece[len(piece.rstrip(b"\r\n")):]
        if len(tail) < len(piece) or len(piece) == len(text):
            return tail
        size *= 2


def _bad_line(buf, line, rows, ncols):
    """The ValueError for a range that ``parse_rows`` rejects, ``buf`` as
    it takes it, whose first line is line ``line`` of the file: it names
    the first of the range's lines that is not a row.  A prefix of the
    range's lines parses exactly when each of its lines does, so that line
    is found by bisection over the prefixes."""
    text = bytes(memoryview(buf)[len(PAD):-1])
    ends = (np.flatnonzero(np.frombuffer(text, np.uint8) == 10) + 1).tolist()
    ends += [len(text)] * (rows - len(ends))    # a last line without "\n"
    good, bad = 0, rows          # prefixes of good lines parse, of bad not
    while bad - good > 1:
        mid = (good + bad) // 2
        prefix = bytearray(PAD) + text[:ends[mid - 1]] + b"\0"
        if parse_rows(prefix, mid, ncols) is None:
            bad = mid
        else:
            good = mid
    got = text[ends[bad - 2] if bad > 1 else 0:ends[bad - 1]]
    got = got[:-2] if got.endswith(b"\r\n") else got.removesuffix(b"\n")
    got = got.decode("utf-8", "replace")
    return ValueError(f"line {line + bad - 1}: expected {ncols} value(s) "
                      f"per row, got {got[:40]!r}"
                      + ("..." if len(got) > 40 else ""))


class _CsvBody:
    """The rows after byte ``offset`` of a CSV file: one row of ``ncols``
    comma-separated decimals per line, each line ended by LF or CRLF but
    the last, whose end may be missing, and empty lines allowed after the
    last row only.

    The body is cut into ranges (``_scan_ranges``), each read into one
    reused buffer, parsed (``parse_rows``) and handed over in order
    (``blocks``), so it is never held whole.  A range that does not parse
    ends the iteration with a ValueError that names the file line of the
    body's first line that is not a row (``_bad_line``).
    """

    def __init__(self, path, offset, ncols):
        self.path, self.ncols = path, ncols
        self.ranges = _scan_ranges(path, offset)
        self.n = sum(rows for *_, rows in self.ranges)

    def blocks(self):
        """The rows in order, as (rows, ncols) float64 arrays; each is valid
        until the next is requested."""
        buf = bytearray(PAD)     # PAD, a range's bytes and one byte more
        with open(self.path, "rb") as fh:
            for start, stop, line, rows in self.ranges:
                if stop is None:
                    raise ValueError(f"line {line}: {_RANGE_BYTES} bytes or "
                                     "more without a newline")
                size = len(PAD) + stop - start + 1
                buf[size:] = b""
                buf.extend(bytes(size - len(buf)))
                fh.seek(start)
                if fh.readinto(memoryview(buf)[len(PAD):-1]) != stop - start:
                    raise ValueError("the rows changed while being read")
                part = parse_rows(buf, rows, self.ncols)
                if part is None:
                    raise _bad_line(buf, line, rows, self.ncols)
                yield part


def _gather(blocks, out):
    """``out`` filled, along its first axis, with the blocks of a stream in
    order."""
    row = 0
    with contextlib.closing(blocks) as parts:
        for part in parts:
            out[row:row + len(part)] = part
            row += len(part)
    return out


def _csv_values(rows, is_complex):
    # a view keeps the sign of a zero imaginary part, which re + 1j*im
    # would drop
    return (rows.view(np.complex128) if is_complex else rows)[:, 0]


def _timeseries_csv_blocks(path) -> BlockSeries:
    """A timeseries CSV as a BlockSeries: a long body is parsed a range at a
    time as it is read (``_CsvBody``)."""
    meta, warnings, cols, offset = _read_header(
        path, b"# optomech_timeseries", "timeseries")
    if cols not in ("value", "value_re,value_im"):
        raise FormatError(f"{path}: unexpected column header {cols!r}")
    is_complex = cols == "value_re,value_im"

    def blocks():
        with _malformed(path, "timeseries CSV"), \
                contextlib.closing(body.blocks()) as parts:
            for part in parts:
                values = _csv_values(part, is_complex)
                if not _all_finite(values):
                    raise ValueError("TimeSeries values must be finite")
                yield values

    with _malformed(path, "timeseries CSV"):
        body = _CsvBody(path, offset, 2 if is_complex else 1)
        return BlockSeries(
            sample_rate=float(meta["sample_rate_hz"]),
            t0=float(meta.get("t0_s", 0.0)),
            calibration=float(meta.get("calibration_m_per_unit", 1.0)),
            center_freq=float(meta.get("center_freq_hz", 0.0)),
            warnings=tuple(warnings), n=body.n,
            dtype=complex if is_complex else float, blocks=blocks)


def write_timeseries_bin(path, ts):
    """A TimeSeries or BlockSeries as an OMB1 record, written a block at a
    time (ts.blocks())."""
    flags = 1 if ts.is_complex else 0
    head = _TS_HEAD.pack(_TS_MAGIC, flags, ts.sample_rate, ts.t0,
                         ts.calibration, ts.center_freq, ts.n)
    with _atomic_open(path) as fh, contextlib.closing(ts.blocks()) as blocks:
        fh.write(head)
        for block in blocks:
            # complex128 memory is already the interleaved re/im payload
            fh.write(np.ascontiguousarray(block,
                                          dtype="<c16" if flags else "<f8"))


def _read_bin_header(fh, path):
    """(sample rate, t0, calibration, center frequency, n, payload dtype)
    from the header of an OMB1 file open at its start.

    The payload size is checked against the header's sample count before
    anything is allocated: a mismatch raises FormatError naming the expected
    and the found byte counts.
    """
    head = fh.read(_TS_HEAD.size)
    if head[:4] != _TS_MAGIC:
        raise FormatError(f"{path}: bad magic, not an OMB1 record")
    if len(head) < _TS_HEAD.size:
        raise FormatError(f"{path}: malformed OMB1 record: header is "
                          f"{len(head)} bytes, expected {_TS_HEAD.size}")
    _, flags, fs, t0, cal, cf, n = _TS_HEAD.unpack(head)
    if flags not in (0, 1):
        raise FormatError(f"{path}: malformed OMB1 record: flag byte "
                          f"{flags:#04x}, expected 0 (real) or 1 (complex)")
    dtype = np.dtype("<c16" if flags else "<f8")
    expected = n * dtype.itemsize
    found = os.fstat(fh.fileno()).st_size - _TS_HEAD.size
    if found != expected:
        raise FormatError(
            f"{path}: {'complex ' if flags else ''}payload of {found} "
            f"bytes, expected {expected} for {n} samples")
    return fs, t0, cal, cf, n, dtype


def _timeseries_bin_blocks(path) -> BlockSeries:
    """An OMB1 record as a BlockSeries.  The header and the payload size are
    checked first; the payload is then read into one reused block, a chunk
    of samples (``synth._chunks``) at a time."""
    with open(path, "rb") as fh:
        fs, t0, cal, cf, n, dtype = _read_bin_header(fh, path)

    def blocks():
        with open(path, "rb") as fh, _malformed(path, "OMB1 record"):
            fh.seek(_TS_HEAD.size)
            buf = np.empty(next(_chunks(n))[1], dtype=dtype)  # the longest
            for start, stop in _chunks(n):
                values = buf[:stop - start]
                if fh.readinto(values.view(np.uint8)) != values.nbytes:
                    raise FormatError(f"{path}: payload changed while being "
                                      "read")
                values = values.astype(values.dtype.newbyteorder("="),
                                       copy=False)
                if not _all_finite(values):
                    raise ValueError("TimeSeries values must be finite")
                yield values

    with _malformed(path, "OMB1 record"):
        return BlockSeries(fs, t0, n, dtype.newbyteorder("="), blocks, cal, cf)


def write_timeseries(path, ts, fmt: str = "csv"):
    if fmt == "csv":
        write_timeseries_csv(path, ts)
    elif fmt == "bin":
        write_timeseries_bin(path, ts)
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'bin'")


def _is_bin(path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == _TS_MAGIC


def open_timeseries(path) -> BlockSeries:
    """A record file of either format as a BlockSeries, for analyses that
    read a record once, in order, such as welch_psd."""
    return (_timeseries_bin_blocks(path) if _is_bin(path)
            else _timeseries_csv_blocks(path))


def read_whole(rec) -> TimeSeries:
    """A record opened by open_timeseries in one array: its block stream,
    gathered, with its metadata and warnings."""
    return TimeSeries(rec.sample_rate, rec.t0,
                      _gather(rec.blocks(), np.empty(rec.n, rec.dtype)),
                      rec.calibration, rec.center_freq, rec.warnings)


def write_driverecord_csv(path, rec: DriveRecord):
    base, resp = rec.base_motion, rec.response_motion
    lines = ["# optomech_driverecord v1",
             f"# drive_freq_hz={_fmt(rec.drive_freq)}",
             f"# sample_rate_hz={_fmt(base.sample_rate)}",
             f"# t0_s={_fmt(base.t0)}",
             f"# base_calibration_m_per_unit={_fmt(base.calibration)}",
             f"# response_calibration_m_per_unit={_fmt(resp.calibration)}",
             "base,response"]
    _write_csv(path, lines, [[base.values, resp.values]])


def read_driverecord_csv(path) -> DriveRecord:
    meta, _, cols, offset = _read_header(
        path, b"# optomech_driverecord", "drive-record")
    if cols != "base,response":
        raise FormatError(f"{path}: unexpected column header {cols!r}")
    with _malformed(path, "drive-record CSV"):
        body = _CsvBody(path, offset, 2)
        data = _gather(body.blocks(), np.empty((body.n, 2)))
        fs = float(meta["sample_rate_hz"])
        t0 = float(meta.get("t0_s", 0.0))
        return DriveRecord(
            drive_freq=float(meta["drive_freq_hz"]),
            base_motion=TimeSeries(
                fs, t0, data[:, 0],
                float(meta.get("base_calibration_m_per_unit", 1.0))),
            response_motion=TimeSeries(
                fs, t0, data[:, 1],
                float(meta.get("response_calibration_m_per_unit", 1.0))),
        )


def write_result_doc(path, doc: dict):
    if doc.get("schema") != RESULT_SCHEMA:
        raise SchemaError(f"result document must declare schema={RESULT_SCHEMA!r}")
    try:                               # NaN and infinity are not JSON
        payload = json.dumps(doc, indent=2, sort_keys=True,
                             allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    with _atomic_open(path) as fh:
        fh.write(payload.encode())


def read_result_doc(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:          # UnicodeDecodeError included
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: not a result document (a JSON "
                          f"{type(doc).__name__}, not an object)")
    if doc.get("schema") != RESULT_SCHEMA:
        raise SchemaError(
            f"{path}: schema mismatch (expected {RESULT_SCHEMA!r}, "
            f"got {doc.get('schema')!r})")
    return doc


def make_result_doc(command: str, config: dict, outputs: dict) -> dict:
    return {"schema": RESULT_SCHEMA, "command": command,
            "config": config, "outputs": outputs}


def write_table_csv(path, columns: dict):
    """Column-oriented plot-ready data file: {name: 1-D array}."""
    _write_csv(path, [",".join(columns)], [list(columns.values())])
