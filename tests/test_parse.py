"""The CSV parse kernel reads every body np.loadtxt reads, to its bits, and
declines every body np.loadtxt declines."""

import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optomech import _parse
from optomech._shortest import csv_text


def _loadtxt(text, ncols):
    return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2).reshape(
        -1, ncols)


def _rows(text):
    return text.count("\n") + (not text.endswith("\n"))


def _loadtxt_or_none(text, ncols):
    """np.loadtxt's values of a body of one row per line, or None where it
    declines it.  loadtxt skips an empty first line and ends a line at a
    final CR, so such a body is no row per line and is None too."""
    if text.startswith(("\n", "\r\n")) or text.endswith("\r"):
        return None
    try:
        got = np.loadtxt(io.TextIOWrapper(io.BytesIO(text.encode()),
                                          newline="\n"),
                         delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    return got if got.shape == (_rows(text), ncols) else None


def _padded(text):
    """The text as the reader hands a range over: after PAD, with a spare
    byte."""
    return bytearray(_parse.PAD + text.encode() + b"?")


def _kernel(text, ncols):
    return _parse.parse_rows(_padded(text), _rows(text), ncols)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_reads_like_loadtxt(fields):
    """Each field, alone and in a two-column table, parses in the kernel to
    np.loadtxt's bits."""
    text = "".join(f"{f}\n" for f in fields)
    got = _kernel(text, 1)
    assert got is not None, fields
    assert _same_bits(got, _loadtxt(text, 1)), fields
    pairs = fields + fields[:len(fields) % 2]
    text = "".join(f"{a},{b}\n" for a, b in zip(pairs[::2], pairs[1::2]))
    assert _same_bits(_kernel(text, 2), _loadtxt(text, 2)), fields


_finite = st.floats(allow_nan=False, allow_infinity=False,
                    allow_subnormal=True)


class TestWriterText:
    @settings(max_examples=200, deadline=None)
    @given(values=hnp.arrays(np.float64, st.tuples(st.integers(1, 40),
                                                   st.integers(1, 3)),
                             elements=_finite))
    @example(values=np.array([[0.0, -0.0, 5e-324, -5e-324,
                               2.2250738585072011e-308,
                               2.2250738585072014e-308,
                               1.7976931348623157e308,
                               -1.7976931348623157e308, 1e23, 1e-5, 1e16,
                               9007199254740993.0, 0.1]]).T)
    def test_repr_and_csv_text_read_back_bit_exact(self, values):
        ncols = values.shape[1]
        for text in (csv_text(values).decode(),
                     "".join(",".join(map(repr, row)) + "\n"
                             for row in values.tolist())):
            got = _kernel(text, ncols)
            assert got is not None
            assert _same_bits(got, _loadtxt(text, ncols))
            assert _same_bits(got, values)


class TestSpellings:
    @pytest.mark.parametrize("fields", [
        ["0.0", "-0.0", "0", "-0", "0e0", "0.000e-5", "+0.0"],
        ["5e-324", "-5e-324", "2.2250738585072011e-308",
         "2.2250738585072014e-308", "1.7976931348623157e308",
         "-1.7976931348623157e308"],
        # 2^53 + 1 and + 3: ties between doubles, rounded to even
        ["9007199254740993", "9007199254740995", "9007199254740993e0",
         "900719925474099.3e1", "-9007199254740993", "9007199254740992",
         "9007199254740994", "9007199254740997"],
        ["1e23", "8.98846567431158e307", "1e22", "1e-7",
         "4.9406564584124654e-324"],
        # 19 significant digits, the most the kernel converts itself
        ["1234567890123456789", "9999999999999999999", "1.234567890123456789",
         "-0.001234567890123456789", "9223372036854775807e-3",
         "1000000000000000000e-36"],
        ["1E5", "+1.5", ".5", "5.", "1e+05", "0001.5", "-.5", "+5.e-3",
         "1e005", "1E-005", "007", "00000000000000000000001"],
        # decimal exponents outside the kernel's table, and results that
        # would be subnormal or infinite: converted with float()
        ["1e-400", "-1e-400", "1e400", "-1e400", "1e-320", "123e-330",
         "2e308", "1e-342", "1e-343", "1e308", "1e309"],
        # outside the narrow grammar: more than 19 significant digits, more
        # than 24 bytes, padding, 4 exponent digits, all through float()
        ["12345678901234567890", "1.2345678901234567890e-5",
         "1234567890123456789012345", "0.000000000000000000000000001",
         " 1.0", "1.0 ", "\t-2.5e-3", "2.5\t", " \t+.5e1 \t", " 10", "\t10",
         "1e1234", "-1e-0400", "1e0000000000000000000000005"],
        # np.savetxt's '%.18e': a sign before 24 bytes, read from those 24
        ["-1.088363103968046742e-11", "+1.088363103968046742e-11",
         "-0.000000000000000000e+00", "-9.999999999999999999e+99",
         "-4.940656458412465442e-324", "-1.797693134862315708e+308",
         "-1234567890123456789012.5", "-000000000000000000001e-3"],
    ])
    def test_fields_read_like_loadtxt(self, fields):
        _assert_reads_like_loadtxt(fields)

    @pytest.mark.parametrize("field", [
        "1_0", "nan", "inf", "-inf", "0x1p3", "1e", "1e+", "e5", ".", "-",
        "+-1", "1..0", "1.0.0", "1e5.0", "1ee5", "--1", "1-", "1e-+5", "",
        "1,0", "1 0", " ", "\t", "1e 5", "- 1",
        # a second sign before a window of 24 bytes that begins with one
        "--1.23456789012345678e-11", "+-1.23456789012345678e-11",
        "-+1.23456789012345678e-11", "-1.0e5.00000000000000000",
    ])
    def test_fields_outside_the_grammar_are_declined(self, field):
        assert _kernel(f"1.5\n{field}\n2.5\n", 1) is None
        assert _kernel(f"1.5\r\n{field}\r\n2.5\r\n", 1) is None

    @pytest.mark.parametrize("text, ncols", [
        ("1.0\r\n2.0\r\n", 1), ("1.0,2.0\r\n3.0,4.0", 2),
        ("1.0\n2.0\r\n3.0\n", 1), ("-1.5 ,\t2.0\r\n", 2),
    ])
    def test_crlf_line_ends_read_like_loadtxt(self, text, ncols):
        got = _kernel(text, ncols)
        assert got is not None
        assert _same_bits(got, _loadtxt(text, ncols))

    @pytest.mark.parametrize("text, ncols", [
        ("1.0,2.0\n3.0\n", 2), ("1.0\n2.0,3.0\n", 1), ("1.0,2.0\n", 1),
        ("1.0\n2.0\n", 2), ("1.0\n\n2.0\n", 1), ("1.0,\n", 2),
        # a CR anywhere but before a newline
        ("1.0\r2.0\n", 1), ("1.0\r", 1), ("1.0\n2.0\r", 1),
        ("1.0\r\r\n", 1), ("1.0\r,2.0\n", 2), ("\r1.0\n", 1),
        ("\r\n1.0\n", 1), ("1.0\r\n\r\n2.0\n", 1),
    ])
    def test_other_shapes_are_declined(self, text, ncols):
        assert _kernel(text, ncols) is None


_digits = st.text("0123456789", max_size=25)
_pad = st.sampled_from(["", "", "", " ", "\t", " \t "])


@st.composite
def _decimal_texts(draw):
    """Text that is a decimal, or near one: padding, sign, 0 to 25 digits,
    point, 0 to 25 digits and an exponent of 0 to 4 digits; now and then
    '%.18e' (or '%.16e', '%.17e') after 0 to 2 signs."""
    if draw(st.integers(0, 9)) == 0:
        return (draw(st.sampled_from(["", "+", "-", "--", "+-", "-+"]))
                + "%.*e" % (draw(st.integers(16, 18)), draw(st.floats(
                    0, allow_infinity=False))))
    text = draw(st.sampled_from(["", "+", "-"])) + draw(_digits)
    if draw(st.booleans()):
        text += "." + draw(_digits)
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE"))
                 + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.text("0123456789", max_size=4)))
    return draw(_pad) + text + draw(_pad)


@st.composite
def _bodies(draw):
    """(text, ncols): rows of 1 or 2 such fields, ended by LF or CRLF, the
    last line's end there or not."""
    ncols = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(_decimal_texts(), min_size=ncols,
                                  max_size=ncols), min_size=1, max_size=5))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(rows), max_size=len(rows)))
    text = "".join(",".join(row) + end for row, end in zip(rows, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return text, ncols


class TestGrammar:
    @settings(max_examples=500, deadline=None)
    @given(body=_bodies())
    @example(body=("1\n-00.000\n+.0e-0\n", 1))
    @example(body=("-1.088363103968046742e-11,\t1.0 \r\n", 2))
    @example(body=("--1.23456789012345678e-11\r\n", 1))
    @example(body=("1e5.0\n", 1))
    def test_kernel_reads_exactly_what_loadtxt_reads(self, body):
        text, ncols = body
        want = _loadtxt_or_none(text, ncols)
        got = _kernel(text, ncols)
        assert (got is None) == (want is None)
        if got is not None:
            assert _same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text("0123456789.eE+-,\n\r \t", max_size=80),
           ncols=st.integers(1, 3))
    def test_kernel_never_raises(self, text, ncols):
        got = _kernel(text, ncols)
        assert got is None or got.shape == (_rows(text), ncols)


def test_pow5_rows_are_lemires():
    # the first, middle and last rows of fast_float's power_of_five_128
    rows = [divmod(r, 1 << 64) for r in _parse.pow5_rows()]
    assert len(rows) == 651
    assert rows[0] == (0xEEF453D6923BD65A, 0x113FAA2906A13B3F)     # 5^-342
    assert rows[342] == (0x8000000000000000, 0)                    # 5^0
    assert rows[343] == (0xA000000000000000, 0)                    # 5^1
    assert rows[-1] == (0x8E679C2F5E44FF8F, 0x570F09EAA7EA7648)    # 5^308


def test_import_builds_no_table():
    code = ("import optomech.cli, optomech._parse as p; "
            "print(p._tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              [str(pathlib.Path(_parse.__file__).parents[1])]
                              + sys.path)})
    assert proc.stdout.split() == ["0"]
