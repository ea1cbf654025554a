"""File formats: TimeSeries/DriveRecord CSV, compact binary records, and
JSON result documents.

CSV records are human-inspectable with '#'-prefixed header lines carrying
the metadata (sample_rate_hz, t0_s, calibration_m_per_unit, center_freq_hz;
center_freq_hz is 0 for baseband records, and complex-envelope records use
two value columns).  The binary variant (magic "OMB1", little-endian
float64 payload) is for large records; its reader checks the payload size
against the header and reads the payload straight into the record's one
array.  open_timeseries reads a record of either format as a BlockSeries,
a block at a time, for analyses that need it only once and in order:
.bin payloads in reused blocks, long CSV bodies a parsed range at a time,
so that neither is held whole.  All writes are atomic
(temp file + rename), and files are created with mode 0666 minus the
umask.  CSV floats are written exactly as repr writes them, the shortest
decimal that reads back as the same double, so a rerun with the same
inputs is byte-identical; _shortest.csv_text computes the digits of a
whole chunk at once with Ryu and leaves zeros, subnormals, non-finite
values and the few others it does not cover to repr.

CSV writers stream rows in fixed chunks, so memory stays bounded, and
format them in this process: at well under a microsecond per value, a
pool of workers would spend more CPU time than it saves in wall time.
Long CSV records and whole sweeps are parsed on every CPU the process may
run on, one forked worker per CPU: a long record in byte ranges, the files
of a sweep one per worker.  Results are put back in order, a few jobs
ahead of the one in use, so the values read do not depend on the CPU count
and results never pile up.
"""

import collections
import contextlib
import io
import json
import os
import struct

import numpy as np

# imported with io, not at the first CSV write: a module loaded after a
# command has freed large blocks keeps the malloc heap from shrinking
from ._shortest import csv_text
from .synth import BlockSeries, DriveRecord, TimeSeries, _all_finite, _chunks

RESULT_SCHEMA = "optomech.result/1"
_TS_MAGIC = b"OMB1"
# magic, flags (bit 0: complex payload), sample rate, t0, calibration,
# center frequency, sample count
_TS_HEAD = struct.Struct("<4sB3x4dQ")

_CHUNK_ROWS = 1 << 14  # rows formatted and written at a time
# Shorter CSV bodies, and batches of files, are parsed in process: parsing
# runs at ~40 MB/s per CPU (36-44 MB/s measured), and a pool of two wins
# only above ~5 MiB on the same host (4 MiB: 113 ms serial, 156 ms pooled;
# 6 MiB: 157 ms serial, 117 ms pooled).
_POOL_MIN_BYTES = 6 << 20
_RANGE_BYTES = 1 << 20  # bytes of a long CSV body one worker parses at a time
_JOBS_PER_WORKER = 2    # pool jobs in flight per worker (see _cpu_imap)


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
    """CSV lines of rows [start, stop): each float as its repr."""
    return csv_text(np.stack([c[start:stop] for c in columns], axis=1))


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
    At most m = ``_JOBS_PER_WORKER`` * workers jobs are submitted and not
    yet yielded: job k + m is submitted only once the caller, done with the
    result of job k, asks for the next one.  So results never pile up, and
    job k may write into slot k % (``_JOBS_PER_WORKER`` * allowed CPUs) of
    a ring that the caller reads its result from.
    Fork is safe here because this process runs no threads of its own: no
    Python threads, and no BLAS threads either, since importing optomech
    holds OpenBLAS to one thread unless the environment sets
    OPENBLAS_NUM_THREADS.  Even then no job calls BLAS, whose threads a
    forked child lacks.  The
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
        pending = collections.deque()
        for job in jobs:
            if len(pending) == _JOBS_PER_WORKER * workers:
                yield pending.popleft().get()
            pending.append(pool.apply_async(_call_worker_fn, (job,)))
        while pending:
            yield pending.popleft().get()
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
    ``(path, header_lines, columns)`` entry of ``files``, in order, each
    through ``_atomic_open``, formatting ``_CHUNK_ROWS`` rows at a time."""
    files = [(path, header, _csv_columns(columns))
             for path, header, columns in files]
    for path, header, columns in files:
        with _atomic_open(path) as fh:
            fh.write(("\n".join(header) + "\n").encode())
            for start in range(0, columns[0].size, _CHUNK_ROWS):
                fh.write(_format_rows(columns, start, start + _CHUNK_ROWS))


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


def _line_rows(block, stop):
    """The number of lines in ``block[:stop]``, which starts a line, or None
    if ``loadtxt`` may not read each line as one row: it skips empty lines
    and comments ('#'), and the text reader also ends a line at a carriage
    return not followed by a newline.  Any other line is one row or a parse
    error."""
    ends = np.flatnonzero(np.frombuffer(block, np.uint8, count=stop) == 10)
    if (block.find(b"#", 0, stop) >= 0 or (ends.size and ends[0] == 0)
            or (np.diff(ends) == 1).any()):
        return None
    if block.find(b"\r", 0, stop) >= 0 and (
            block.startswith(b"\r\n") or block.find(b"\n\r\n", 0, stop) >= 0
            or block.count(b"\r", 0, stop) != block.count(b"\r\n", 0, stop)):
        return None
    return ends.size + (not block.endswith(b"\n", 0, stop))


def _scan_ranges(path, offset):
    """The body after byte ``offset`` cut at newlines into ranges of about
    ``_RANGE_BYTES``, as ``(start, stop, rows)`` with ``rows`` the lines in
    ``[start, stop)``; None, so that the body is parsed whole, if a line is
    longer than a range or may not be one row (``_line_rows``)."""
    ranges = []
    with open(path, "rb") as fh:
        start = offset
        while True:
            fh.seek(start)
            block = fh.read(_RANGE_BYTES)
            if not block:
                return ranges
            stop = len(block)
            if stop == _RANGE_BYTES:
                stop = block.rfind(b"\n") + 1
                if not stop:
                    return None       # a line longer than a range
            rows = _line_rows(block, stop)
            if rows is None:
                return None
            ranges.append((start, start + stop, rows))
            start += stop


class _CsvBody:
    """The rows after byte ``offset`` of a CSV file, parsed like
    ``np.loadtxt(fh, delimiter=",", ndmin=2)`` on the file read from
    ``offset``, with ``ncols`` values per row.

    A body of ``_POOL_MIN_BYTES`` or more that ``_scan_ranges`` cuts into
    ranges is parsed a range at a time, on the pool when there is one, and
    handed over in order (``blocks``), so it is never held whole.  Any
    other body is parsed at once, serially, when it is opened.  A range
    that fails to parse, or parses to another shape, ends the iteration
    with the error of the serial parse, so the values and the errors never
    depend on the CPU count.
    """

    def __init__(self, path, offset, ncols):
        self.path, self.offset, self.ncols = path, offset, ncols
        self.ranges = None
        if os.path.getsize(path) - offset >= _POOL_MIN_BYTES:
            self.ranges = _scan_ranges(path, offset)
        if self.ranges is None:
            self.data = self._parse_whole()
            self.n = self.data.shape[0]
        else:
            self.n = sum(rows for _, _, rows in self.ranges)

    def _parse_whole(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            fh.seek(self.offset)      # a plain byte offset is a seek cookie
            data = _parse_rows(fh)
        if data.shape[1] != self.ncols:
            raise ValueError(f"expected {self.ncols} value(s) per row, "
                             f"got {data.shape[1]}")
        return data

    def blocks(self):
        """The rows in order, as (rows, ncols) float64 arrays; each is valid
        until the next is requested."""
        if self.ranges is None:
            yield self.data
            return
        import mmap
        path, ncols = self.path, self.ncols
        # one slot per job in flight, in anonymous shared memory, so that
        # the workers' writes land in this process
        slots = _JOBS_PER_WORKER * _pool_cpus()
        size = max(rows for _, _, rows in self.ranges)
        ring = np.frombuffer(mmap.mmap(-1, slots * size * ncols * 8),
                             dtype=np.float64).reshape(slots, size, ncols)
        jobs = [(k % slots, *r) for k, r in enumerate(self.ranges)]

        def parse_range(job):
            slot, start, stop, rows = job
            with open(path, "rb") as fh:
                fh.seek(start)
                text = io.TextIOWrapper(io.BytesIO(fh.read(stop - start)),
                                        encoding="utf-8")
            part = _parse_rows(text)
            if part.shape != (rows, ncols):
                return False
            ring[slot, :rows] = part
            return True

        try:
            with contextlib.closing(_cpu_imap(parse_range, jobs, True)) as done:
                for (slot, _, _, rows), ok in zip(jobs, done):
                    if not ok:
                        break
                    yield ring[slot, :rows]
                else:
                    return
        except ValueError:
            pass
        self._parse_whole()           # raises the serial parse's error
        raise ValueError("the rows changed while being read")

    def read(self):
        """All the rows, as one (n, ncols) float64 array."""
        if self.ranges is None:
            return self.data
        out = np.empty((self.n, self.ncols))
        row = 0
        with contextlib.closing(self.blocks()) as blocks:
            for part in blocks:
                out[row:row + part.shape[0]] = part
                row += part.shape[0]
        return out


def _csv_values(rows, is_complex):
    # a view keeps the sign of a zero imaginary part, which re + 1j*im
    # would drop
    return (rows.view(np.complex128) if is_complex else rows)[:, 0]


def _timeseries_csv(path):
    """(TimeSeries fields but the values, is_complex, body) of a timeseries
    CSV; the fields raise FormatError if malformed."""
    meta, warnings, cols, offset = _read_header(
        path, b"# optomech_timeseries", "timeseries")
    if cols not in ("value", "value_re,value_im"):
        raise FormatError(f"{path}: unexpected column header {cols!r}")
    is_complex = cols == "value_re,value_im"
    try:
        body = _CsvBody(path, offset, 2 if is_complex else 1)
        fields = {"sample_rate": float(meta["sample_rate_hz"]),
                  "t0": float(meta.get("t0_s", 0.0)),
                  "calibration": float(meta.get("calibration_m_per_unit",
                                                1.0)),
                  "center_freq": float(meta.get("center_freq_hz", 0.0)),
                  "warnings": tuple(warnings)}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed timeseries CSV: {exc}") from exc
    return fields, is_complex, body


def read_timeseries_csv(path) -> TimeSeries:
    fields, is_complex, body = _timeseries_csv(path)
    try:
        return TimeSeries(values=_csv_values(body.read(), is_complex),
                          **fields)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed timeseries CSV: {exc}") from exc


def _timeseries_csv_blocks(path) -> BlockSeries:
    """A timeseries CSV as a BlockSeries: a long body is parsed a range at a
    time as it is read (``_CsvBody``)."""
    fields, is_complex, body = _timeseries_csv(path)

    def blocks():
        try:
            with contextlib.closing(body.blocks()) as parts:
                for part in parts:
                    values = _csv_values(part, is_complex)
                    if not _all_finite(values):
                        raise ValueError("TimeSeries values must be finite")
                    yield values
        except ValueError as exc:
            raise FormatError(
                f"{path}: malformed timeseries CSV: {exc}") from exc

    try:
        return BlockSeries(n=body.n, dtype=complex if is_complex else float,
                           blocks=blocks, **fields)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed timeseries CSV: {exc}") from exc


def write_timeseries_bin(path, ts: TimeSeries):
    flags = 1 if ts.is_complex else 0
    head = _TS_HEAD.pack(_TS_MAGIC, flags, ts.sample_rate, ts.t0,
                         ts.calibration, ts.center_freq, ts.n)
    # complex128 memory is already the interleaved re/im float64 payload
    payload = np.ascontiguousarray(ts.values,
                                   dtype="<c16" if flags else "<f8")
    with _atomic_open(path) as fh:
        fh.write(head)
        fh.write(payload)


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
    dtype = np.dtype("<c16" if flags & 1 else "<f8")
    expected = n * dtype.itemsize
    found = os.fstat(fh.fileno()).st_size - _TS_HEAD.size
    if found != expected:
        raise FormatError(
            f"{path}: {'complex ' if flags & 1 else ''}payload of {found} "
            f"bytes, expected {expected} for {n} samples")
    return fs, t0, cal, cf, n, dtype


def _readinto(fh, values, path):
    if fh.readinto(values.view(np.uint8)) != values.nbytes:
        raise FormatError(f"{path}: payload changed while being read")
    return values.astype(values.dtype.newbyteorder("="), copy=False)


def read_timeseries_bin(path) -> TimeSeries:
    """An OMB1 record, read straight into its one array once the payload
    size is checked (``_read_bin_header``)."""
    with open(path, "rb") as fh:
        fs, t0, cal, cf, n, dtype = _read_bin_header(fh, path)
        values = _readinto(fh, np.empty(n, dtype=dtype), path)
    try:
        return TimeSeries(fs, t0, values, cal, cf)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed OMB1 record: {exc}") from exc


def _timeseries_bin_blocks(path) -> BlockSeries:
    """An OMB1 record as a BlockSeries.  The header and the payload size are
    checked first; the payload is then read into one reused block, a chunk
    of samples (``synth._chunks``) at a time."""
    with open(path, "rb") as fh:
        fs, t0, cal, cf, n, dtype = _read_bin_header(fh, path)

    def blocks():
        with open(path, "rb") as fh:
            fh.seek(_TS_HEAD.size)
            buf = np.empty(next(_chunks(n))[1], dtype=dtype)  # the longest
            for start, stop in _chunks(n):
                values = _readinto(fh, buf[:stop - start], path)
                if not _all_finite(values):
                    raise FormatError(f"{path}: malformed OMB1 record: "
                                      "TimeSeries values must be finite")
                yield values

    try:
        return BlockSeries(fs, t0, n, dtype.newbyteorder("="), blocks, cal, cf)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed OMB1 record: {exc}") from exc


def write_timeseries(path, ts: TimeSeries, fmt: str = "csv"):
    if fmt == "csv":
        write_timeseries_csv(path, ts)
    elif fmt == "bin":
        write_timeseries_bin(path, ts)
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'bin'")


def _is_bin(path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == _TS_MAGIC


def read_timeseries(path) -> TimeSeries:
    return read_timeseries_bin(path) if _is_bin(path) else read_timeseries_csv(path)


def open_timeseries(path) -> BlockSeries:
    """A record file of either format as a BlockSeries, for analyses that
    read a record once, in order, such as welch_psd."""
    return (_timeseries_bin_blocks(path) if _is_bin(path)
            else _timeseries_csv_blocks(path))


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
    """Write each drive record to the path at the same position."""
    _write_csv([(path, *_driverecord_csv(rec))
                for path, rec in zip(paths, records, strict=True)])


def read_driverecord_csv(path) -> DriveRecord:
    meta, _, cols, offset = _read_header(
        path, b"# optomech_driverecord", "drive-record")
    if cols != "base,response":
        raise FormatError(f"{path}: unexpected column header {cols!r}")
    try:
        data = _CsvBody(path, offset, 2).read()
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
    except json.JSONDecodeError as exc:
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
    _write_csv([(path, [",".join(columns)], list(columns.values()))])
