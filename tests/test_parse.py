"""The CSV parse kernel gives the bits np.loadtxt gives, for every field of
its grammar, and declines every other text so that np.loadtxt reads it."""

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
from optomech import io as omio
from optomech._shortest import csv_text


def _loadtxt(text, ncols):
    return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2).reshape(
        -1, ncols)


def _padded(text):
    """The text as the reader hands a range over: after PAD, with a spare
    byte."""
    return bytearray(_parse.PAD + text.encode() + b"?")


def _kernel(text, ncols):
    rows = text.count("\n") + (not text.endswith("\n"))
    return _parse.parse_rows(_padded(text), rows, ncols)


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
    ])
    def test_fields_read_like_loadtxt(self, fields):
        _assert_reads_like_loadtxt(fields)

    @pytest.mark.parametrize("field", [
        "12345678901234567890",            # 20 significant digits
        "1.2345678901234567890e-5",
        "1234567890123456789012345",       # 25 bytes
        " 1.0", "1.0 ", "1_0", "nan", "inf", "-inf", "0x1p3", "1e", "1e+",
        "e5", ".", "-", "+-1", "1..0", "1.0.0", "1e5.0", "1e1234", "1ee5",
        "--1", "1-", "1e-+5", "", "1,0",
    ])
    def test_fields_outside_the_grammar_are_declined(self, field):
        assert _kernel(f"1.5\n{field}\n2.5\n", 1) is None

    @pytest.mark.parametrize("text, ncols", [
        ("1.0,2.0\n3.0\n", 2), ("1.0\n2.0,3.0\n", 1), ("1.0,2.0\n", 1),
        ("1.0\n2.0\n", 2), ("1.0\r\n2.0\r\n", 1), ("1.0\n\n2.0\n", 1),
        ("1.0,\n", 2),
    ])
    def test_other_shapes_are_declined(self, text, ncols):
        assert _kernel(text, ncols) is None


_digits = st.text("0123456789", max_size=12)


@st.composite
def _decimal_texts(draw):
    """Text in the grammar, or near it: sign, digits, point, digits and an
    exponent of 0 to 4 digits."""
    text = draw(st.sampled_from(["", "+", "-"])) + draw(_digits)
    if draw(st.booleans()):
        text += "." + draw(_digits)
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE"))
                 + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.text("0123456789", max_size=4)))
    return text


def _in_grammar(text):
    mantissa, _, exponent = text.lower().partition("e")
    digits = mantissa.lstrip("+-").replace(".", "")
    return (bool(digits) and len(text) <= 24
            and len(digits.lstrip("0")) <= 19
            and ("e" not in text.lower()
                 or 1 <= len(exponent.lstrip("+-")) <= 3))


class TestGrammar:
    @settings(max_examples=500, deadline=None)
    @given(fields=st.lists(_decimal_texts(), min_size=1, max_size=6))
    @example(fields=["1", "-00.000", "+.0e-0"])
    def test_kernel_reads_exactly_the_grammar(self, fields):
        text = "".join(f"{f}\n" for f in fields)
        got = _kernel(text, 1)
        assert (got is not None) == all(map(_in_grammar, fields))
        if got is not None:
            assert _same_bits(got, _loadtxt(text, 1))

    @settings(max_examples=200, deadline=None)
    @given(fields=st.lists(_decimal_texts().filter(bool), min_size=1,
                           max_size=6))
    def test_range_reader_gives_loadtxt_values_or_declines(self, fields):
        # the reader's path for any range: the kernel, or np.loadtxt
        text = "".join(f"{f}\n" for f in fields)
        try:
            want = _loadtxt(text, 1)
        except ValueError:
            want = None
        got = omio._range_rows(_padded(text), len(fields), 1)
        assert (got is None) == (want is None)
        if got is not None:
            assert _same_bits(got, want)


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
