"""The CSV float kernel writes each value exactly as repr does.

``_shortest.csv_text`` computes shortest round-trip digits with Ryu's
common case and lays them out as ``repr(float)``; the values that case
does not cover are written by ``repr`` itself.  Every test here compares
the kernel's text with ``repr`` value by value.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from optomech import _shortest
from optomech import io as omio
from optomech.io import write_table_csv, write_timeseries_csv
from optomech.synth import TimeSeries
from test_io import _ref_timeseries_csv


def _assert_repr_text(values, ncols=1):
    """csv_text of ``values`` in rows of ``ncols`` equals repr value by
    value, with ',' and '\\n' between them."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, ncols)
    lines = _shortest.csv_text(values).split(b"\n")
    assert lines[-1] == b""
    got = [v for line in lines[:-1] for v in line.split(b",")]
    want = [repr(v).encode() for v in values.reshape(-1).tolist()]
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} values differ from repr, e.g. {bad[:5]}"


def _left_to_repr(values):
    bits = np.asarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    return _shortest._shortest(bits, _shortest._tables())[2]


def _ulps_around(centres, steps):
    """Each of ``centres`` and its neighbours up to ``steps`` ulps away on
    both sides, with both signs."""
    out = [np.asarray(centres, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        v = out[0]
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    x = np.concatenate(out)
    return np.concatenate([x, -x])


class TestSameAsRepr:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20181)
        x = rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64).view(np.float64)
        x = x[np.isfinite(x)]
        assert x.size > 200_000
        _assert_repr_text(x)
        _assert_repr_text(x[:60_000], ncols=3)

    def test_around_every_power_of_ten_and_of_two(self):
        tens = [float(f"1e{k}") for k in range(-323, 309)]
        twos = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
        _assert_repr_text(_ulps_around(tens + twos, 2))

    def test_integers_near_two_to_53_and_1e22_and_1e23(self):
        ints = [float(n) for n in range(2 ** 53 - 300, 2 ** 53 + 300)]
        _assert_repr_text(np.concatenate([
            ints, _ulps_around([2.0 ** 53, 1e22, 1e23], 200)]))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 3e5, 1e200, 1e-200])
    def test_record_like_values(self, scale):
        rng = np.random.default_rng(7)
        _assert_repr_text(rng.standard_normal(40_000) * scale, ncols=2)
        _assert_repr_text(np.arange(40_000) * (scale / 3))

    def test_positional_and_exponent_boundaries(self):
        # 1e-5 and 1e16 switch to the exponent form; 17 significant digits
        # and negative values take the longest text
        values = [1e-4, 1e-5, 0.00012345678901234567, 9.999999999999999e15,
                  1e16, 1.2345678901234567e16, 123456789012345.67,
                  -1.2345678901234567e-300, -1.7976931348623157e308, 0.1,
                  0.3, 2.5, 100.0, 1e15 + 0.5, 5e-324, 2.2250738585072014e-308]
        _assert_repr_text(values)
        _assert_repr_text(np.negative(values))


class TestFallback:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, 0.5,
               -2.0, 1024.0, float(2 ** 60), 1e20, float("inf"),
               float("-inf"), float("nan")]

    def test_values_left_to_repr(self):
        assert _left_to_repr(self.SPECIAL).all()
        assert not _left_to_repr([0.1, 1e-12, 3.3e300, -7.25e-5]).any()

    def test_left_to_repr_exactly_where_ryu_leaves_the_common_case(self):
        """Biased exponent 0 or 2047, e2 >= 0 with q <= 21, e2 < 0 with
        q <= 1, or mv = 4 m2 a multiple of 2^q (exact integers here)."""
        rng = np.random.default_rng(11)
        b = rng.integers(0, 2048, 100_000)
        zeros = rng.integers(0, 60, b.size)    # trailing zero bits of m2
        frac = rng.integers(0, 2 ** 52, b.size) >> zeros << zeros
        x = ((b << 52) | frac).view(np.float64)
        q = [len(str(2 ** e2)) - 1 - (e2 > 3) if e2 >= 0
             else len(str(5 ** -e2)) - 1 - (-e2 > 1)
             for e2 in range(-1077, 2048 - 1077)]
        want = []
        for bb, f in zip(b.tolist(), frac.tolist()):
            e2, mv = bb - 1077, 4 * ((1 << 52) | f)
            want.append(bb in (0, 2047) or q[bb] <= (21 if e2 >= 0 else 1)
                        or (e2 < 0 and mv % 2 ** q[bb] == 0))
        wrong = np.flatnonzero(_left_to_repr(x) != np.array(want))
        assert wrong.size == 0, f"misclassified: {x[wrong[:5]].tolist()}"
        _assert_repr_text(x)

    def test_table_column_with_special_values(self, tmp_path):
        special = np.array(self.SPECIAL)
        columns = {"freq_hz": np.linspace(0.0, 1e3, special.size),
                   "value": special, "fit": special[::-1] * 1e-12}
        path = tmp_path / "table.csv"
        write_table_csv(path, columns)
        lines = [",".join(columns)]
        lines += [",".join(repr(float(c[i])) for c in columns.values())
                  for i in range(special.size)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("ncols", [1, 2])
    def test_fallbacks_at_chunk_and_block_edges(self, tmp_path, ncols):
        """Values left to repr first and last, and on each side of every
        chunk (io._CHUNK_ROWS) and kernel block boundary of a record."""
        rows = 2 * omio._CHUNK_ROWS + 5
        x = np.random.default_rng(3).standard_normal((rows, ncols)) * 1e-9
        edges = {0, rows - 1}
        for step in (omio._CHUNK_ROWS, _shortest._BLOCK_VALUES // ncols):
            for start in range(step, rows, step):
                edges |= {start - 1, start}
        edges = sorted(edges)
        x[edges] = np.resize(self.SPECIAL, (len(edges), 1))
        _assert_repr_text(x, ncols)
        finite = [v for v in self.SPECIAL if math.isfinite(v)]
        x[edges] = np.resize(finite, (len(edges), 1))
        assert _left_to_repr(x[edges]).all()
        ts = TimeSeries(1.0, 0.0, x.view(np.complex128)[:, 0] if ncols == 2
                        else x[:, 0])
        path = tmp_path / "rec.csv"
        write_timeseries_csv(path, ts)
        assert path.read_bytes() == _ref_timeseries_csv(ts)


def _exact_rows():
    """Ryu's rows from their definitions, with exact integers."""
    inv = [2 ** ((5 ** q).bit_length() - 1 + 125) // 5 ** q + 1
           for q in range(342)]
    pos = [5 ** i * 2 ** 125 // 2 ** (5 ** i).bit_length() for i in range(326)]
    return inv + pos


class TestTables:
    def test_pow5_rows_are_the_exact_formulas(self):
        assert _shortest.pow5_rows() == _exact_rows()

    def test_exponent_params_are_exact(self):
        for b in range(2048):
            e2 = b - 1077
            if e2 >= 0:
                q = len(str(2 ** e2)) - 1 - (e2 > 3)
                j = -e2 + q + (5 ** q).bit_length() - 1 + 125
                row = q
            else:
                q = len(str(5 ** -e2)) - 1 - (-e2 > 1)
                j = q - ((5 ** (-e2 - q)).bit_length() - 125)
                row = 342 - e2 - q
            covered = 0 < b < 2047 and q > (21 if e2 >= 0 else 1)
            want = (e2, q, j, row) if covered else None
            assert _shortest.exponent_params(b) == want, b
            # the 64-bit window of 2 m2 M starts in its limb 3
            assert not covered or 118 <= j <= 125

    def test_tables_hold_the_rows_limb_for_limb(self):
        t = _shortest._tables()
        rows = _exact_rows()
        for b in range(2048):
            params = _shortest.exponent_params(b)
            limbs = [int(t.mult[k][b]) for k in range(4)]
            if params is None:
                assert limbs == [0] * 4 and t.keep[b] == 0
                continue
            e2, q, j, row = params
            m = rows[row]
            assert limbs == [(m >> (32 * k)) % 2 ** 32 for k in range(4)]
            assert t.shift[b] == j - 97
            assert t.vm_pow2[b] == ((4 << 52) - 1) * m >> j

    def test_import_builds_no_table(self):
        code = ("import optomech.cli, optomech._shortest as s; "
                "print(s._tables.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "0"
