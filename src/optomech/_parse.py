"""Decimal CSV fields to float64, each the double nearest its decimal.

``parse_rows`` reads a range of CSV text, rows of ``ncols`` fields ended
by ',' and by '\\n' or '\\r\\n', when every field is a decimal
``[+-]? d* [. d*] ([eE] [+-]? d+)?`` with a mantissa digit, padded by
spaces and tabs or not; for any other range it returns None.

The fields of the narrow grammar (unpadded, 1 to 19 significant digits,
1 to 3 exponent digits, at most 24 bytes or a sign and 24 without one)
are converted together.  Such a field is w 10^q with w < 10^19 exact in
a uint64, and its double is rounded from w and q by the method of Eisel
and Lemire (Lemire, "Number parsing at a gigabyte per second", Software:
Practice and Experience 51(8), 2021): the high bits of w times a 128-bit
power of five.  Mushtak and Lemire ("Fast number parsing without
fallback", SPE 53(6), 2023) prove that this product is always precise
enough for such w, so no value needs big-number arithmetic.  The 64-bit
products are formed from 32-bit limbs; the high word is first taken
without the carry from the low limbs, which can change the result only
where the bits below it are near all ones or all zeros, and is made
exact there.

The fields are laid out in three uint64 words each, right-aligned at
their end.  Byte classes are read from single bits, eight bytes at a
time, and packed into 24-bit masks; the digits are turned into a number
eight at a time with the multiply trick.

Every other field, and the zeros and values with q below -307 or above
289 (every subnormal and infinite result), is converted with ``float()``,
which rounds correctly too; a field that it does not read declines the
range.

The 651 rows of 128-bit powers of five and the other tables are built
from exact Python integers on first use, not at import.
"""

import functools
from types import SimpleNamespace

import numpy as np

_FIELD_BYTES = 24          # the window of a field, its last bytes
_MIN_Q, _MAX_Q = -342, 308  # decimal exponents of the power-of-five rows
_BLOCK_FIELDS = 1 << 13   # fields converted at a time, kept in cache
# the bytes a range may hold: the fields', their padding, the separators
# and a CR before a newline; any other declines it
_ALPHABET = b"0123456789.eE+-,\n\r \t"
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
# bit b of each byte of a word: (word & plane) * (_PACK >> b) >> 56 is
# an 8-bit mask, bit k from byte k
_PACK = 0x0102040810204080
# the 24 bytes before a range's text, so that every field has three words
# before its separator (any bytes above ',' will do)
PAD = b"0" * _FIELD_BYTES


def pow5_rows():
    """The 128-bit rows for q = -342..308 (Lemire's power_of_five_128):
    5^q truncated to its 128 leading bits for q >= 0, and for q < 0 the
    128 leading bits of 2^b / 5^-q + 1, b large enough."""
    rows = []
    for q in range(_MIN_Q, _MAX_Q + 1):
        if q >= 0:
            p = 5 ** q
            shift = p.bit_length() - 128
            rows.append(p >> shift if shift >= 0 else p << -shift)
        else:
            p = 5 ** -q
            z = (p - 1).bit_length()       # the least z with 2^z >= p
            b = z + 127 if q >= -27 else 2 * z + 128
            c = (1 << b) // p + 1
            rows.append(c >> max(0, c.bit_length() - 128))
    return rows


@functools.cache
def _tables():
    """The tables of the conversion, built once per process from Python
    integers."""
    rows = pow5_rows()
    q = np.arange(_MIN_Q, _MAX_Q + 1)

    def words(byte_mask):
        return [byte_mask >> 64 * k & (2 ** 64 - 1) for k in range(3)]

    def byte_masks(masks):
        return np.array([words(m) for m in masks], dtype=np.uint64).T.copy()

    nibbles = int.from_bytes(b"\x0f" * _FIELD_BYTES, "little")
    full = 2 ** (8 * _FIELD_BYTES) - 1
    at = range(_FIELD_BYTES + 1)
    return SimpleNamespace(
        pow5_high=np.array([r >> 64 for r in rows], dtype=np.uint64),
        pow5_low=np.array([r & (2 ** 64 - 1) for r in rows], dtype=np.uint64),
        # Lemire's power(q) = ((217706 q) >> 16) + 63 plus the exponent
        # bias 1023, less the 1 that the mantissa's hidden bit adds
        power2=(((217706 * q) >> 16) + 63 + 1023 - 1).astype(np.uint64),
        # the bits of a field of k bytes, for k = 0..24
        field=np.array([0xFFFFFF ^ ((1 << 24 - k) - 1) for k in at]),
        first=np.array([(1 << 24 - k) & 0xFFFFFF for k in at]),
        # the low nibbles of bytes 24 - k on, the values of k digits there
        top_digits=byte_masks(nibbles & (full ^ ((1 << 8 * (24 - k)) - 1))
                              for k in at),
        # bytes 0 to k - 1
        below=byte_masks((1 << 8 * k) - 1 for k in at))


def _plane(words, b, flags):
    """24-bit masks of the bytes of each field's words with bit b set, bit
    i for byte i; ``flags`` is scratch of the words' shape."""
    np.bitwise_and(words, _U(0x0101010101010101 << b), out=flags)
    flags *= _U(_PACK >> b)
    flags >>= _U(56)
    return (flags[0] | (flags[1] << _U(8)) | (flags[2] << _U(16))).view(
        np.int64)


def _popcount(x):
    return np.bitwise_count(x).astype(np.int64)


def _eight_digits(x):
    """The value of the eight decimal digits in each uint64 of x, one per
    byte, the most significant in the lowest byte, computed in x."""
    for mask, times, shift in ((-1, 2561, 8),
                               (0x00FF00FF00FF00FF, 6553601, 16),
                               (0x0000FFFF0000FFFF, 42949672960001, 32)):
        if mask != -1:
            x &= _U(mask)
        x *= _U(times)
        x >>= _U(shift)
    return x


def _high_product(a, b):
    """(high, low) uint64 halves of the 128-bit products a * b."""
    a1, a0 = a >> _U(32), a & _M32
    b1, b0 = b >> _U(32), b & _M32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    high = a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    return high, (mid << _U(32)) | (p00 & _M32)


def _exact_high(w, m, row, q, t):
    """The high word of the products w m, made exact as Lemire's
    compute_product_approximation makes it, less one where w 10^q lies
    halfway between two doubles and rounds down, to the even one."""
    high, low = _high_product(w, m)
    # where the 9 bits below the result's 55 are all ones, the low word
    # may lack a carry, which the product with the row's low word settles
    extra = _high_product(w, np.take(t.pow5_low, row))[0]
    unsure = (high & _U(0x1FF)) == _U(0x1FF)
    carried = low + extra
    high += unsure & (extra > carried)
    low = np.where(unsure, carried, low)
    shift = (high >> _U(63)) + _U(9)
    mantissa = high >> shift
    tie = ((low <= _U(1)) & (q >= -4) & (q <= 23)
           & ((mantissa & _U(3)) == _U(1)) & ((mantissa << shift) == high))
    return high - tie


def _eisel_lemire(w, q, t):
    """float64 bit patterns of w 10^q for 0 < w < 10^19 and -307 <= q <=
    289, whose values are all normal doubles (Lemire's compute_float,
    binary64)."""
    row = q - _MIN_Q
    # w's bit length from float(w), which may round up to a power of two
    length = (w.astype(np.float64).view(np.uint64) >> _U(52)) - _U(1022)
    length -= (w >> (length - _U(1))) == 0
    lz = _U(64) - length
    w = w << lz
    m = np.take(t.pow5_high, row)
    # the high word of w m but for a carry of 0 to 2 from the low limbs,
    # which can change the result only where the 9 bits below its 55 are
    # near all ones or all zeros; there it is computed exactly
    w1, m1 = w >> _U(32), m >> _U(32)
    high = (w1 * m1 + ((w1 * (m & _M32)) >> _U(32))
            + (((w & _M32) * m1) >> _U(32)))
    near = np.flatnonzero(((high + _U(3)) & _U(0x1FF)) <= _U(3))
    if near.size:
        high[near] = _exact_high(np.take(w, near), np.take(m, near),
                                 np.take(row, near), np.take(q, near), t)
    upper = high >> _U(63)
    mantissa = ((high >> (upper + _U(9))) + _U(1)) >> _U(1)
    # mantissa is 2^52 to 2^53 with its hidden bit, which carries into the
    # exponent field when rounding reached 2^53
    power2 = np.take(t.power2, row) + upper - lz
    return (power2 << _U(52)) + mantissa


def _classes(words, length, before, padded, t):
    """(mantissa digits, exponent digits, '.', '-', 'e') masks of fields of
    ``length`` bytes whose last 24 are right-aligned in the (3, n) uint64
    ``words``, the 'e' mask 2^24 without one, and the masks of the
    negative fields and of those outside the narrow grammar, left to
    float().  ``before`` is the byte before each field's last 24, None if
    no field is longer; ``padded``, whether a field may hold a pad.

    One bit tells each class of the fields' bytes apart: bit 4 is set in
    digits alone, bit 6 in 'e' and 'E'; of '.', '+' and '-' (0x2E, 0x2B,
    0x2D) only '.' has bit 0 clear and only '-' bit 1, and only they have
    both bits 3 and 5, which a space (0x20) or a tab (0x09) lacks."""
    if before is not None:
        length, full = np.minimum(length, _FIELD_BYTES), length
    field = np.take(t.field, length)
    first = np.take(t.first, length)
    scratch = np.empty_like(words)
    digits = _plane(words, 4, scratch) & field
    exp = _plane(words, 6, scratch) & field
    other = field & ~(digits | exp)
    odd = _plane(words, 0, scratch)
    dot = other & ~odd
    sign = other & odd
    minus = sign & ~_plane(words, 1, scratch)
    # the mantissa lies below the 'e', the exponent's sign and digits above
    e = np.where(exp, exp, 1 << 24)
    mant = field & (e - 1)
    mant_digits = digits & mant
    exp_digits = digits & ~mant
    n_exp = _popcount(exp_digits)
    # one 'e' and one '.' at most, the point in the mantissa, signs first
    # and after the 'e', no space or tab, a mantissa digit, 1 to 3
    # exponent digits after an 'e'
    bad = ((exp & (exp - 1)) | (dot & (dot - 1)) | (dot & ~mant)
           | (sign & ~(first | (e << 1))))
    if padded:
        bad |= other & ~(_plane(words, 3, scratch)
                         & _plane(words, 5, scratch))
    left = ((bad != 0) | (mant_digits == 0) | (n_exp > 3)
            | ((n_exp == 0) & (exp != 0)))
    negative = (minus & first) != 0
    if before is not None:
        # a sign before 24 bytes without one (a negative '%.18e') is the
        # field's; any other longer field is left
        signed = ((full == _FIELD_BYTES + 1) & ((sign & first) == 0)
                  & np.isin(before, (43, 45)))
        left |= (full > _FIELD_BYTES) & ~signed
        negative |= signed & (before == 45)
    # no 'e' keeps the point's shift, and each table index, in range
    e[left] = 1 << 24
    return mant_digits, exp_digits, dot, minus, e, negative, left


def _mantissa(words, mant_digits, dot, e, t):
    """w, the mantissa's digits as an integer, with ``words`` overwritten,
    and the mask of those with more than 19 significant digits."""
    # the digits right-aligned at byte 23: the words moved up past the
    # exponent, then the bytes up to the point's up by one byte more
    tail = 24 - _popcount(e - 1)
    bits = tail.astype(np.uint64) << _U(3)
    up = words << bits
    scratch = np.empty_like(words)
    up[1:] |= np.right_shift(words[:-1], _U(64) - bits, out=scratch[:-1])
    moved = np.left_shift(up, _U(8), out=scratch)
    moved[1:] |= np.right_shift(up[:-1], _U(56), out=words[:-1])
    below_point = _popcount(((dot << tail) << 1) - (dot != 0))
    n_digits = _popcount(mant_digits)
    for k in range(3):
        up[k] ^= (up[k] ^ moved[k]) & np.take(t.below[k], below_point)
        up[k] &= np.take(t.top_digits[k], n_digits)
    groups = _eight_digits(up)
    return (groups[0] * _U(10 ** 16) + groups[1] * _U(10 ** 8) + groups[2],
            groups[0] >= _U(1000))


def _exponent(last, exp_digits, minus, e, mant_digits, dot):
    """q, the power of ten of each field: its exponent, read from the
    field's ``last`` word, less the digits after its point."""
    # the exponent's digits are the field's last bytes
    n_exp = _popcount(exp_digits).astype(np.uint64)
    last3 = (last >> _U(40)) & (_U(0x0F0F0F) << (_U(8) * (_U(3) - n_exp)))
    e10 = ((last3 & _U(0xFF)) * _U(100) + ((last3 >> _U(8)) & _U(0xFF))
           * _U(10) + (last3 >> _U(16))).view(np.int64)
    e10 = np.where((minus & (e << 1)) != 0, -e10, e10)
    return e10 - _popcount(mant_digits & -(dot << 1))


def _convert(words, length, before, padded, t):
    """float64 bit patterns of fields of ``length`` bytes whose last 24 are
    right-aligned in the (3, n) uint64 ``words``, which it overwrites, and
    the mask of those left to float(); ``before`` and ``padded`` as
    ``_classes`` takes them.  Each step's work arrays go with it, so that
    a block's stay few."""
    mant_digits, exp_digits, dot, minus, e, negative, left = _classes(
        words, length, before, padded, t)
    q = _exponent(words[2], exp_digits, minus, e, mant_digits, dot)
    w, long = _mantissa(words, mant_digits, dot, e, t)
    # zeros, and values that may be subnormal or beyond the doubles
    special = left | long | (w == 0) | (q < -307) | (q > 289)
    if special.any():
        w = np.where(special, _U(1), w)
        q = np.where(special, 0, q)
    bits = _eisel_lemire(w, q, t)
    bits |= negative.astype(np.uint64) << _U(63)
    return bits, special


def parse_rows(buf, rows, ncols):
    """The (rows, ncols) float64 values of the text in the bytearray
    ``buf`` after ``PAD`` and before its last byte, which it overwrites:
    ``rows`` lines of ``ncols`` fields each, ',' between the fields of a
    line and '\\n' or '\\r\\n' after each (the last line's may be
    missing); None for other text."""
    n = rows * ncols
    buf[-1] = 10                  # a final newline if the text lacks one
    if not n or buf.translate(None, _ALPHABET):
        return None
    crs = b"\r" in buf
    padded = b" " in buf or b"\t" in buf
    text = np.frombuffer(buf, np.uint8, count=len(buf) - (buf[-2] == 10))
    ends = np.flatnonzero(text <= 44)  # ',' and '\n', and '+', CR and pads
    if crs or padded or buf.find(b"+", _FIELD_BYTES) >= 0:
        kinds = np.take(text, ends)
        # a CR ends a line with the newline after it; any other, also one
        # before the newline appended above, declines the range
        if crs and (buf[-2] == 13
                    or (np.take(text, ends[kinds == 13] + 1) != 10).any()):
            return None
        ends = ends[(kinds == 44) | (kinds == 10)]
    if ends.size != n:
        return None
    kinds = np.take(text, ends).reshape(rows, ncols)
    if (kinds[:, :-1] != 44).any() or (kinds[:, -1] != 10).any():
        return None
    # a field ends at its separator, or at the CR before its newline
    stop = ends - (np.take(text, ends - 1) == 13) if crs else ends
    length = np.empty_like(ends)
    length[0] = stop[0] - _FIELD_BYTES
    np.subtract(stop[1:], ends[:-1] + 1, out=length[1:])
    if length.min() < 1:
        return None
    longer = length.max() > _FIELD_BYTES
    t = _tables()
    window = np.ndarray((text.size - _FIELD_BYTES + 1,),
                        dtype=np.dtype((np.void, _FIELD_BYTES)),
                        buffer=text, strides=(1,))
    values = np.empty(n, dtype=np.float64)
    left = []
    for i in range(0, n, _BLOCK_FIELDS):
        block = slice(i, i + _BLOCK_FIELDS)
        words = window[stop[block] - _FIELD_BYTES].view(np.uint64)
        before = (np.take(text, stop[block] - (_FIELD_BYTES + 1)) if longer
                  else None)
        bits, special = _convert(
            np.ascontiguousarray(words.reshape(-1, 3).T), length[block],
            before, padded, t)
        values[block] = bits.view(np.float64)
        left.append(np.flatnonzero(special) + i)
    left = np.concatenate(left)
    end = stop[left]
    start = end - length[left]
    try:
        values[left] = [float(buf[a:b])
                        for a, b in zip(start.tolist(), end.tolist())]
    except ValueError:
        return None
    return values.reshape(rows, ncols)
