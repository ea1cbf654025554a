"""File formats: TimeSeries/DriveRecord CSV, compact binary records, and
JSON result documents.

CSV records are human-inspectable with '#'-prefixed header lines carrying
the metadata (sample_rate_hz, t0_s, calibration_m_per_unit, center_freq_hz;
center_freq_hz is 0 for baseband records, and complex-envelope records use
two value columns).  The binary variant (magic "OMB1", little-endian
float64 payload) is for large records.  All writes are atomic
(temp file + rename), and files are created with mode 0666 minus the
umask.  Floats are written with shortest round-trip representation, so a
rerun with the same inputs is byte-identical.

CSV writers stream rows in fixed chunks, so memory stays bounded.  Records
of at least ``_POOL_MIN_ROWS`` rows are formatted by forked workers, one per
CPU the process may run on; the chunks are written in order, so the output
bytes do not depend on the CPU count.
"""

import contextlib
import json
import os
import struct

import numpy as np

from .synth import DriveRecord, TimeSeries

RESULT_SCHEMA = "optomech.result/1"
_TS_MAGIC = b"OMB1"

_CHUNK_ROWS = 1 << 14  # rows formatted and written at a time
# Shorter records are formatted in process: starting a pool (~25 ms) costs
# about what it saves below this many rows (measured on a 2-CPU x86-64 host,
# where formatting takes ~2 us per value).
_POOL_MIN_ROWS = 1 << 15


class FormatError(OSError):
    """Raised for malformed or mismatched data files."""


class SchemaError(FormatError):
    """Raised when a result document carries an unexpected schema id."""


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
    """CSV lines of rows [start, stop): each float as its shortest repr."""
    cols = [c[start:stop].tolist() for c in columns]
    if len(cols) == 1:
        lines = map(repr, cols[0])
    else:
        lines = map(",".join, zip(*[map(repr, c) for c in cols]))
    return ("\n".join(lines) + "\n").encode()


# Columns of the record a pool worker formats; set in each worker only.
_worker_columns = None


def _init_worker(columns):
    global _worker_columns
    _worker_columns = columns


def _format_chunk(rows) -> bytes:
    return _format_rows(_worker_columns, *rows)


def _pool_size(n_rows) -> int:
    """Worker processes to format ``n_rows`` rows; 0 formats them in this
    process.  Platforms without CPU affinity or ``fork`` get 0."""
    if n_rows < _POOL_MIN_ROWS or not hasattr(os, "sched_getaffinity"):
        return 0
    workers = min(len(os.sched_getaffinity(0)), -(-n_rows // _CHUNK_ROWS))
    if workers < 2:
        return 0
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    return workers


def _write_csv(path, header_lines, columns):
    """Stream a CSV of equal-length 1-D float columns after ``header_lines``.

    Rows are formatted ``_CHUNK_ROWS`` at a time.  A long record's chunks are
    formatted by forked workers, one per CPU this process may run on, and
    written in order, so the bytes never depend on the CPU count.  Workers
    inherit the columns through fork (nothing is pickled but the row range
    and the text); spawned workers would re-import numpy and receive the
    columns pickled, which costs more than they save.  Fork is safe here
    because this process runs no Python threads of its own and the workers
    run only pure-Python formatting, never BLAS.  The pool is joined before
    returning, so no worker outlives the write.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if not columns:
        raise ValueError("a CSV needs at least one column")
    if any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-D")
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("all columns must have equal length")
    chunks = [(i, min(i + _CHUNK_ROWS, n)) for i in range(0, n, _CHUNK_ROWS)]
    workers = _pool_size(n)
    pool = None
    if workers:
        import multiprocessing
        pool = multiprocessing.get_context("fork").Pool(
            workers, initializer=_init_worker, initargs=(columns,))
        texts = pool.imap(_format_chunk, chunks)
    else:
        texts = (_format_rows(columns, *rows) for rows in chunks)
    try:
        with _atomic_open(path) as fh:
            fh.write(("\n".join(header_lines) + "\n").encode())
            for text in texts:
                fh.write(text)
    except BaseException:
        if pool is not None:
            pool.terminate()
        raise
    finally:
        if pool is not None:
            pool.close()
            pool.join()


def write_timeseries_csv(path, ts: TimeSeries):
    lines = ["# optomech_timeseries v1",
             f"# sample_rate_hz={_fmt(ts.sample_rate)}",
             f"# t0_s={_fmt(ts.t0)}",
             f"# calibration_m_per_unit={_fmt(ts.calibration)}",
             f"# center_freq_hz={_fmt(ts.center_freq)}"]
    for w in ts.warnings:
        lines.append(f"# warning={w}")
    if ts.is_complex:
        lines.append("value_re,value_im")
        columns = [ts.values.real, ts.values.imag]
    else:
        lines.append("value")
        columns = [ts.values]
    _write_csv(path, lines, columns)


def _parse_headers(fh):
    meta = {}
    warnings = []
    pos = fh.tell()
    line = fh.readline()
    while line.startswith("#"):
        body = line[1:].strip()
        if "=" in body:
            key, val = body.split("=", 1)
            if key.strip() == "warning":
                warnings.append(val.strip())
            else:
                meta[key.strip()] = val.strip()
        pos = fh.tell()
        line = fh.readline()
    fh.seek(pos)
    return meta, warnings


def read_timeseries_csv(path) -> TimeSeries:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# optomech_timeseries"):
            raise FormatError(f"{path}: not an optomech timeseries CSV")
        meta, warnings = _parse_headers(fh)
        cols = fh.readline().strip()
        try:
            if cols == "value_re,value_im":
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
                # a view keeps the sign of a zero imaginary part, which
                # re + 1j*im would drop
                values = data.view(np.complex128)[:, 0]
            elif cols == "value":
                values = np.loadtxt(fh, ndmin=1)
            else:
                raise FormatError(f"{path}: unexpected column header {cols!r}")
            return TimeSeries(
                sample_rate=float(meta["sample_rate_hz"]),
                t0=float(meta.get("t0_s", 0.0)),
                values=values,
                calibration=float(meta.get("calibration_m_per_unit", 1.0)),
                center_freq=float(meta.get("center_freq_hz", 0.0)),
                warnings=tuple(warnings),
            )
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: malformed timeseries CSV: {exc}") from exc


def write_timeseries_bin(path, ts: TimeSeries):
    flags = 1 if ts.is_complex else 0
    head = _TS_MAGIC + struct.pack("<B3x", flags)
    head += struct.pack("<4dQ", ts.sample_rate, ts.t0, ts.calibration,
                        ts.center_freq, ts.n)
    # complex128 memory is already the interleaved re/im float64 payload
    payload = np.ascontiguousarray(ts.values,
                                   dtype="<c16" if flags else "<f8")
    with _atomic_open(path) as fh:
        fh.write(head)
        fh.write(payload)


def read_timeseries_bin(path) -> TimeSeries:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _TS_MAGIC:
        raise FormatError(f"{path}: bad magic, not an OMB1 record")
    try:
        (flags,) = struct.unpack_from("<B3x", raw, 4)
        fs, t0, cal, cf, n = struct.unpack_from("<4dQ", raw, 8)
        body = np.frombuffer(raw, dtype="<f8", offset=8 + struct.calcsize("<4dQ"))
        if flags & 1:
            if body.size != 2 * n:
                raise FormatError(f"{path}: truncated complex payload")
            values = body.view("<c16").astype(np.complex128)
        else:
            if body.size != n:
                raise FormatError(f"{path}: truncated payload")
            values = body.copy()
        return TimeSeries(fs, t0, values, cal, cf)
    except struct.error as exc:
        raise FormatError(f"{path}: malformed OMB1 record: {exc}") from exc


def write_timeseries(path, ts: TimeSeries, fmt: str = "csv"):
    if fmt == "csv":
        write_timeseries_csv(path, ts)
    elif fmt == "bin":
        write_timeseries_bin(path, ts)
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'bin'")


def read_timeseries(path) -> TimeSeries:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _TS_MAGIC:
        return read_timeseries_bin(path)
    return read_timeseries_csv(path)


def write_driverecord_csv(path, rec: DriveRecord):
    base, resp = rec.base_motion, rec.response_motion
    if base.is_complex or resp.is_complex:
        raise ValueError("drive records must be real-valued")
    lines = ["# optomech_driverecord v1",
             f"# drive_freq_hz={_fmt(rec.drive_freq)}",
             f"# sample_rate_hz={_fmt(base.sample_rate)}",
             f"# t0_s={_fmt(base.t0)}",
             f"# base_calibration_m_per_unit={_fmt(base.calibration)}",
             f"# response_calibration_m_per_unit={_fmt(resp.calibration)}",
             "base,response"]
    _write_csv(path, lines, [base.values, resp.values])


def read_driverecord_csv(path) -> DriveRecord:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# optomech_driverecord"):
            raise FormatError(f"{path}: not an optomech drive-record CSV")
        meta, _ = _parse_headers(fh)
        cols = fh.readline().strip()
        if cols != "base,response":
            raise FormatError(f"{path}: unexpected column header {cols!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
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
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: malformed drive-record CSV: {exc}") from exc


def write_result_doc(path, doc: dict):
    if doc.get("schema") != RESULT_SCHEMA:
        raise SchemaError(f"result document must declare schema={RESULT_SCHEMA!r}")
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with _atomic_open(path) as fh:
        fh.write(payload.encode())


def read_result_doc(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA:
        raise SchemaError(
            f"{path}: schema mismatch (expected {RESULT_SCHEMA!r}, "
            f"got {doc.get('schema')!r})")
    return doc


def make_result_doc(command: str, config: dict, outputs: dict) -> dict:
    return {"schema": RESULT_SCHEMA, "command": command,
            "config": config, "outputs": outputs}


def write_table_csv(path, columns: dict):
    """Column-oriented plot-ready data file: {name: 1-D array}."""
    _write_csv(path, [",".join(columns)], list(columns.values()))
