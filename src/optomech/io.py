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

CSV writers stream rows in fixed chunks, so memory stays bounded.  Long
CSV records and whole sweeps are formatted and parsed on every CPU the
process may run on, one forked worker per CPU: writers format the chunks
of a long record, or of all the records of a sweep, on the workers; readers
parse a long record in byte ranges, and the files of a sweep one per
worker.  Results are put back in order, so the bytes written and the values
read do not depend on the CPU count.
"""

import contextlib
import io
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
# Shorter CSV bodies, and batches of files, are parsed in process: parsing
# runs at ~30 MB/s per CPU, and a pool of two wins only above ~5 MiB on the
# same host.
_POOL_MIN_BYTES = 6 << 20
_RANGE_BYTES = 1 << 20  # bytes of a long CSV body one worker parses at a time


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


# The function a pool worker applies to its jobs; set in each worker only,
# which also keeps a worker from starting a pool of its own.
_worker_fn = None


def _set_worker_fn(fn):
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(job):
    return _worker_fn(job)


def _pool_cpus() -> int:
    """CPUs a pool may use: those this process may run on.  1, meaning no
    pool, without CPU affinity or ``fork``, and inside a pool worker."""
    if _worker_fn is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def _cpu_imap(fn, jobs, parallel):
    """Yield ``fn(job)`` for each of ``jobs``, in order.

    With ``parallel`` set, the jobs run on a pool of forked workers, one per
    CPU of ``_pool_cpus()`` capped at the job count; with fewer than two
    workers they run in this process.  Workers inherit ``fn`` through fork,
    so it may close over large arrays: only the jobs and the results are
    pickled.  Spawned workers would re-import numpy and need ``fn`` pickled.
    Fork is safe here because this process runs no Python threads of its
    own and no job calls BLAS, whose threads a forked child lacks.  The
    pool is closed and joined when the iteration ends, also when it raises
    or is closed early (wrap the call in ``contextlib.closing``), so no
    worker outlives it.  It is never terminated: a worker killed while it
    sends a result keeps the result queue's lock, and the pool's shutdown
    then waits for that lock forever.  After an error the workers finish
    the queued jobs instead.
    """
    jobs = list(jobs)
    workers = min(_pool_cpus(), len(jobs)) if parallel else 1
    if workers < 2:
        yield from map(fn, jobs)
        return
    import multiprocessing
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_set_worker_fn, initargs=(fn,))
    try:
        yield from pool.imap(_call_worker_fn, jobs)
    finally:
        pool.close()
        pool.join()


def _csv_columns(columns):
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if not columns:
        raise ValueError("a CSV needs at least one column")
    if any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-D")
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("all columns must have equal length")
    return columns


def _write_csv(files):
    """Stream CSVs of equal-length 1-D float columns, one per
    ``(path, header_lines, columns)`` entry of ``files``, in order.

    Rows are formatted ``_CHUNK_ROWS`` at a time.  When the files hold
    ``_POOL_MIN_ROWS`` rows or more together, all their chunks are formatted
    on one pool (``_cpu_imap``).  Workers only format text: this process
    writes each file in order through ``_atomic_open``, so the bytes never
    depend on the CPU count.
    """
    files = [(path, header, _csv_columns(columns))
             for path, header, columns in files]
    jobs = [(k, start) for k, (_, _, columns) in enumerate(files)
            for start in range(0, columns[0].size, _CHUNK_ROWS)]

    def format_chunk(job):
        k, start = job
        return _format_rows(files[k][2], start, start + _CHUNK_ROWS)

    n_rows = sum(columns[0].size for _, _, columns in files)
    with contextlib.closing(
            _cpu_imap(format_chunk, jobs, n_rows >= _POOL_MIN_ROWS)) as texts:
        for path, header, columns in files:
            with _atomic_open(path) as fh:
                fh.write(("\n".join(header) + "\n").encode())
                for _ in range(0, columns[0].size, _CHUNK_ROWS):
                    fh.write(next(texts))


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
    _write_csv([(path, lines, columns)])


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
        try:
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
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: malformed {kind} CSV: {exc}") from exc
        return meta, warnings, line.strip(), fh.tell()


def _parse_rows(fh):
    return np.loadtxt(fh, delimiter=",", ndmin=2)


def _read_ranges(path, offset, ncols):
    """Rows of a long CSV body parsed on the pool, one ~``_RANGE_BYTES``
    range at a time, into one shared array.

    Ranges end at newlines, and each range's rows are expected to be its
    newline count.  Returns None, so that the caller re-reads the body
    serially, if a range parses to a different shape (blank or '#' lines,
    which ``loadtxt`` skips, or another column count) or fails to parse;
    values and errors are then exactly those of the serial reader.
    """
    ranges = []                       # (start, stop, first row, rows)
    n_rows = 0
    with open(path, "rb") as fh:
        start = offset
        while True:
            fh.seek(start)
            block = fh.read(_RANGE_BYTES)
            if not block:
                break
            stop = len(block)
            if stop == _RANGE_BYTES:
                stop = block.rfind(b"\n") + 1
                if not stop:
                    return None       # a line longer than a range
            rows = block.count(b"\n", 0, stop)
            rows += not block.endswith(b"\n", 0, stop)
            ranges.append((start, start + stop, n_rows, rows))
            n_rows += rows
            start += stop
    import mmap
    # anonymous shared memory: the workers' writes land in this process
    out = np.frombuffer(mmap.mmap(-1, n_rows * ncols * 8),
                        dtype=np.float64).reshape(n_rows, ncols)

    def parse_range(job):
        start, stop, row, rows = job
        with open(path, "rb") as fh:
            fh.seek(start)
            text = io.TextIOWrapper(io.BytesIO(fh.read(stop - start)),
                                    encoding="utf-8")
        part = _parse_rows(text)
        if part.shape != (rows, ncols):
            return False
        out[row:row + rows] = part
        return True

    try:
        with contextlib.closing(_cpu_imap(parse_range, ranges, True)) as done:
            if all(done):
                return out
    except ValueError:
        pass
    return None


def _read_rows(path, offset, ncols):
    """The rows after byte ``offset`` of a CSV file as an (n, ncols) float64
    array, parsed like ``np.loadtxt(fh, delimiter=",", ndmin=2)`` on the
    file read from ``offset``.  Bodies of ``_POOL_MIN_BYTES`` or more are
    parsed in ranges on the pool (``_read_ranges``).
    """
    data = None
    if (os.path.getsize(path) - offset >= _POOL_MIN_BYTES
            and _pool_cpus() > 1):
        data = _read_ranges(path, offset, ncols)
    if data is None:
        with open(path, "r", encoding="utf-8") as fh:
            fh.seek(offset)           # a plain byte offset is a seek cookie
            data = _parse_rows(fh)
    if data.shape[1] != ncols:
        raise ValueError(f"expected {ncols} value(s) per row, "
                         f"got {data.shape[1]}")
    return data


def read_timeseries_csv(path) -> TimeSeries:
    meta, warnings, cols, offset = _read_header(
        path, b"# optomech_timeseries", "timeseries")
    if cols not in ("value", "value_re,value_im"):
        raise FormatError(f"{path}: unexpected column header {cols!r}")
    try:
        data = _read_rows(path, offset, 1 if cols == "value" else 2)
        # a view keeps the sign of a zero imaginary part, which re + 1j*im
        # would drop
        values = (data.view(np.complex128) if cols == "value_re,value_im"
                  else data)[:, 0]
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


def _driverecord_csv(rec: DriveRecord):
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
    return lines, [base.values, resp.values]


def write_driverecords_csv(paths, records):
    """Write each drive record to the path at the same position, formatting
    all of them on one pool when they are long enough together."""
    _write_csv([(path, *_driverecord_csv(rec))
                for path, rec in zip(paths, records, strict=True)])


def read_driverecord_csv(path) -> DriveRecord:
    meta, _, cols, offset = _read_header(
        path, b"# optomech_driverecord", "drive-record")
    if cols != "base,response":
        raise FormatError(f"{path}: unexpected column header {cols!r}")
    try:
        data = _read_rows(path, offset, 2)
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


def read_driverecords_csv(paths) -> list:
    """Drive records from several CSV files, in order.  Together at least
    ``_POOL_MIN_BYTES`` long, the files are read on the pool, one per job."""
    paths = list(paths)
    n_bytes = sum(os.path.getsize(p) for p in paths)
    with contextlib.closing(_cpu_imap(read_driverecord_csv, paths,
                                      n_bytes >= _POOL_MIN_BYTES)) as records:
        return list(records)


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
    _write_csv([(path, [",".join(columns)], list(columns.values()))])
