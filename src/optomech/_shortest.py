"""Shortest round-trip decimal text of float64 arrays, laid out as repr.

``repr(float)`` writes the shortest decimal that reads back as the same
double, the closest to it when several are as short: positional when the
decimal point falls within 16 digits of the first digit (with ".0" on
integral values), ``d.ddde±XX`` otherwise.  ``csv_text`` writes the same
bytes for a whole array of rows at once with numpy.  The digits come from
Ryu (Adams, "Ryu: fast float to string conversion", PLDI 2018); the text
is laid out eight bytes at a time in int64 words.

Besides Ryu's common case, the kernel covers the values whose scaled
significand mv is a multiple of 2^q (integers and short binary fractions,
such as the frequency grid of a PSD): vr is then exact, and a last
removed digit of 5 is a tie, rounded to even (Ryu's vrIsTrailingZeros).
The rest are written with ``repr`` itself, the definition being matched:
zeros and subnormals (biased exponent 0), infinities and NaN (2047), and
values whose interval bounds may be exact decimals too (e2 >= 0 with
q <= 21, e2 < 0 with q <= 1), in Ryu's notation.

The 668 rows of power-of-five multipliers and every table derived from
them are built from exact Python integers on first use, not at import.
"""

import array
import functools
import mmap
from types import SimpleNamespace

import numpy as np

_ROW_BITS = 125           # bits of each multiplier row
_INV_ROWS = 342           # rows floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1
_POS_ROWS = 326           # rows 5^i normalised to 125 bits
_MASK32 = 0xFFFFFFFF
# values converted at a time, so that their ~40 work arrays stay in cache
_BLOCK_VALUES = 1 << 13
# a value's slot: 24 bytes of text, then 8 of exponent and separator
_TEXT_BYTES = 24
_SLOT_BYTES = 32
# tail rows: exponent e (-400..400) at e + 400, then no exponent; the rows
# ending in ',' and then those ending in '\n'
_EXP_OFFSET = 400
_NO_EXP = 2 * _EXP_OFFSET + 1
_TAIL_ROWS = _NO_EXP + 1


def pow5_rows():
    """Ryu's multipliers: the 342 rows floor(2^(bitlen(5^q) - 1 + 125) /
    5^q) + 1 for q = 0..341, then the 326 rows 5^i normalised to 125 bits
    for i = 0..325."""
    rows = []
    for q in range(_INV_ROWS):
        p = 5 ** q
        rows.append((1 << (p.bit_length() - 1 + _ROW_BITS)) // p + 1)
    for i in range(_POS_ROWS):
        p = 5 ** i
        shift = p.bit_length() - _ROW_BITS
        rows.append(p >> shift if shift >= 0 else p << -shift)
    return rows


def _pow5_bits(e):
    """bitlen(5^e) for 0 <= e <= 3528 (Ryu's pow5bits)."""
    return ((e * 1217359) >> 19) + 1


def exponent_params(b):
    """(e2, q, j, row of ``pow5_rows``) for biased exponent b, or None
    where its values are left to ``repr``.

    e2 = b - 1077, so that the value is (4 m2) 2^e2 / 4 with m2 the
    significand and its hidden bit.  q = floor(log10(2^e2)) - (e2 > 3) for
    e2 >= 0 and floor(log10(5^-e2)) - (-e2 > 1) otherwise, computed with
    Ryu's integer approximations, which are exact over this range.
    """
    e2 = b - 1077
    if e2 >= 0:
        q = ((e2 * 78913) >> 18) - (e2 > 3)
        params = e2, q, q - e2 + _pow5_bits(q) - 1 + _ROW_BITS, q
    else:
        q = ((-e2 * 732923) >> 20) - (-e2 > 1)
        i = -e2 - q
        params = e2, q, q - _pow5_bits(i) + _ROW_BITS, _INV_ROWS + i
    if 0 < b < 2047 and q > (21 if e2 >= 0 else 1):
        return params
    return None


@functools.cache
def _tables():
    """Every lookup table the conversion uses, built once per process from
    Python integers and packed into one anonymous memory mapping
    (``_mapped``)."""
    rows = pow5_rows()
    mult = [[0] * 2048 for _ in range(4)]
    shift, e10, vm_pow2 = [21] * 2048, [0] * 2048, [0] * 2048
    exact, to_repr = [0] * 2048, [True] * 2048
    for b in range(2048):
        params = exponent_params(b)
        if params is None:
            continue
        to_repr[b] = False
        e2, q, j, row = params
        m = rows[row]
        for k in range(4):
            mult[k][b] = m >> (32 * k) & _MASK32
        # vr = (4 m2 M) >> j = (2 m2 M) >> (j - 1), whose bits start in
        # limb 3 of 2 m2 M, at bit j - 1 - 96 (between 21 and 24)
        shift[b] = j - 97
        # m2 & exact == 0: mv = 4 m2 a multiple of 2^q, m2 one of
        # 2^(q - 2), so that vr is exact (never for e2 >= 0 and q > 21)
        exact[b] = -1 if e2 >= 0 else (1 << min(q - 2, 62)) - 1
        e10[b] = q if e2 >= 0 else q + e2
        # at a power of two (m2 = 2^52, Ryu's mmShift = 0) the lower bound
        # is (4 m2 - 1) M >> j, not (4 m2 - 2) M >> j
        vm_pow2[b] = ((4 << 52) - 1) * m >> j

    # text: for word k of a 24-byte text and byte position d, the bytes
    # below d, the bytes above d, and '.' at d, as int64 bit patterns
    def below(d, k):
        return (1 << 8 * min(8, max(0, d - 8 * k))) - 1

    def word(v):
        v &= 2 ** 64 - 1
        return v - (v >> 63 << 64)

    at = range(_TEXT_BYTES + 1)
    dot_masks = [word(v) for k in range(3) for v in (
        [below(d, k) for d in at] + [~below(d + 1, k) for d in at]
        + [(below(d + 1, k) ^ below(d, k)) & 0x2E2E2E2E2E2E2E2E for d in at])]
    # tails: 'e-05', 'e+16', 'e-308', or nothing for positional text, then
    # the separator
    tails = [((f"e{e:+03d}" if e <= _EXP_OFFSET else "") + sep).encode()
             for sep in ",\n"
             for e in range(-_EXP_OFFSET, _TAIL_ROWS - _EXP_OFFSET)]
    # the bytes of a slot that are text: the first `end` of its 24 text
    # bytes and the first `tail` of the last 8, at row 8 end + tail
    slot_keep = [c < end or _TEXT_BYTES <= c < _TEXT_BYTES + tail
                 for end in range(_TEXT_BYTES + 1) for tail in range(8)
                 for c in range(_SLOT_BYTES)]
    return _mapped(
        mult=("q", (4, 2048), [v for limbs in mult for v in limbs]),
        exact=("q", 2048, exact), vm_pow2=("q", 2048, vm_pow2),
        p10=("q", 19, [10 ** k for k in range(19)]),
        dot_masks=("q", (3, 3, _TEXT_BYTES + 1), dot_masks),
        tail=("q", 2 * _TAIL_ROWS,
              [int.from_bytes(t, "little") for t in tails]),
        tail_len=("q", 2 * _TAIL_ROWS, [len(t) for t in tails]),
        shift=("q", 2048, shift), e10=("q", 2048, e10),
        to_repr=("?", 2048, to_repr),
        slot_keep=("?", (8 * (_TEXT_BYTES + 1), _SLOT_BYTES), slot_keep))


def _mapped(**tables):
    """numpy arrays of the ``(typecode, shape, values)`` of each table, in
    one anonymous memory mapping of their own.

    Tables built on the malloc heap would sit above whatever a command has
    freed by its first CSV write, and keep the heap from shrinking below
    them (``report`` peaked 5 MB higher: its first table is written while
    it holds a sweep)."""
    packed = {name: (np.dtype(code), shape, array.array(
        "B" if code == "?" else code, values).tobytes())
        for name, (code, shape, values) in tables.items()}
    buf = mmap.mmap(-1, sum(len(data) for _, _, data in packed.values()))
    out, offset = {}, 0
    # widest items first, so that every table starts aligned
    for name, (dtype, shape, data) in sorted(
            packed.items(), key=lambda item: -item[1][0].itemsize):
        buf[offset:offset + len(data)] = data
        out[name] = np.frombuffer(buf, dtype, len(data) // dtype.itemsize,
                                  offset).reshape(shape)
        offset += len(data)
    return SimpleNamespace(**out)


def _shortest(bits, t):
    """(digits, decimal exponent, written by repr) for the float64 values
    with int64 bit patterns ``bits``: the shortest digits d with d 10^e in
    the value's rounding interval, the closest to the value when several
    are as short, and the even one of two as close (Ryu)."""
    b = (bits >> 52) & 0x7FF
    frac = bits & ((1 << 52) - 1)
    m2 = frac | (1 << 52)
    fallback = np.take(t.to_repr, b)
    exact = (m2 & np.take(t.exact, b)) == 0
    # P = 2 m2 M in 32-bit limbs: 2 m2 = x1 2^32 + x0, M = sum(M_k 2^32k).
    # x0 M_k fills 64 bits, so it is split into a low (lo) and a high (hi)
    # half; x1 < 2^22, so x1 M_k < 2^54 is added whole.  Column c of P:
    # lo_c + hi_(c-1) + x1 M_(c-1), plus the carry from column c - 1.
    x0, x1 = (m2 << 1) & _MASK32, m2 >> 31
    mk = [np.take(t.mult[k], b) for k in range(4)]
    lo, hi, wide = [], [], []
    for k in range(4):
        p = x0 * mk[k]                  # wraps: the unsigned product's bits
        lo.append(p & _MASK32)
        hi.append((p >> 32) & _MASK32)
        wide.append(x1 * mk[k])
    col = [hi[c - 1] + lo[c] + wide[c - 1] for c in (1, 2, 3)]
    sh = np.take(t.shift, b)
    top = (hi[3] + wide[3]) << (32 - sh)      # columns 4 and 5, shifted

    def window(c0, add):
        """floor((P + A) / 2^(j - 1)) given column 0 of P + A and the
        limbs 1..3 of A: the carries ripple up to column 3, which holds
        the window's low bits."""
        c = c0
        for k in range(3):
            c = col[k] + add[k] + (c >> 32)
        return (c >> sh) + top

    vr = window(lo[0], (0, 0, 0))
    vp = window(lo[0] + mk[0], mk[1:])
    vm = window(lo[0] - mk[0], [-m for m in mk[1:]])
    vm = np.where((frac == 0) & (b > 1), np.take(t.vm_pow2, b), vm)
    # remove the k digits vp and vm do not share: the count of k with
    # vp // 10^k > vm // 10^k, which holds up to some k and then never
    # again; once fewer than half the values go on, only those are carried
    removed = np.zeros_like(vr)
    qp, qm = vp // 10, vm // 10
    of = None                          # the values qp, qm are of; None: all
    while qp.size:
        more = qp > qm
        go_on = np.flatnonzero(more)
        if 2 * go_on.size < more.size:
            of = go_on if of is None else np.take(of, go_on)
            qp, qm = np.take(qp, go_on), np.take(qm, go_on)
            removed[of] += 1
        elif of is None:
            removed += more
        else:
            removed[of] += more
        qp //= 10
        qm //= 10
    # round up when the last removed digit is 5 or more, and when the
    # result is vm, which lies outside the interval.  Unless vr is exact,
    # the value lies above vr, so a 5 is past the half.  An exact vr (mv a
    # multiple of 2^q) with a last removed 5 is a tie, rounded to even.
    # Ryu also checks that the digits removed before that 5 are zeros;
    # here they always are.  vr = (mv / 2^q) 5^i with i >= 3, so its last
    # k <= 3 digits are a multiple of 5^k: 5x and 5xx only as 50 and 500.
    # Four or more removed digits 5xxx other than 50..0 would put vr more
    # than 400 from the multiple of 10^removed in [vm, vp], but
    # vp - vm <= 4 * 5^-e2 / 10^q + 1 < 401.
    cut = removed > 0
    r = vr // np.take(t.p10, removed - 1, mode="clip")     # vr at 0
    out = np.where(cut, r // 10, r)
    last = r - 10 * out                                    # 0 at 0
    round_up = cut & (last >= 5)
    tie = np.flatnonzero(exact & (last == 5))
    round_up[tie] = (np.take(out, tie) & 1) == 1
    out += round_up | (out == vm // np.take(t.p10, removed))
    return out, np.take(t.e10, b) + removed, fallback


def _eight_digits(v):
    """int64 words whose eight bytes are the decimal digits of v < 10^8,
    the most significant in the lowest byte: v is split into 4-digit, then
    2-digit, then 1-digit lanes, dividing with multiply and shift."""
    high = v // 10000
    v = high | ((v - 10000 * high) << 32)
    p = ((v * 10486) >> 20) & 0x7F0000007F                  # lanes // 100
    v = p | ((v - 100 * p) << 16)
    p = ((v * 103) >> 10) & 0x000F000F000F000F              # lanes // 10
    return p | ((v - 10 * p) << 8)


def _layout(out, e10, negative, t):
    """The text of digits ``out`` times 10^``e10`` laid out as repr, with a
    '-' for ``negative``: its three int64 words (24 bytes, the first in
    the lowest byte), its length, and the exponent of ``d.ddde±XX`` plus
    ``_EXP_OFFSET`` (``_NO_EXP`` for positional text)."""
    s = negative.astype(np.int64)
    length = np.searchsorted(t.p10[1:18], out, side="right") + 1
    point = length + e10                      # digits before the point
    positional = (point >= 1) & (point <= 16)
    small = (point <= 0) & (point >= -3)      # 0.000ddd
    # the digits, zero-filled to 17, the first in byte 0
    d17 = out * np.take(t.p10, 17 - length)
    high, tenths = d17 // 10 ** 9, d17 // 10
    w0 = _eight_digits(high)
    w1 = _eight_digits(tenths - 10 ** 8 * high)
    w2 = d17 - 10 * tenths
    # move up by the sign's byte and the leading zeros of 0.000ddd, then
    # turn digits and zero fill into characters (no byte exceeds 0x39, so
    # the int64 words stay positive)
    lead = np.where(small, 1 - point, 0) + s
    up = lead << 3
    down = 64 - up
    zeros = 0x3030303030303030
    w2 = ((w2 << up) | (w1 >> down)) + zeros
    w1 = ((w1 << up) | (w0 >> down)) + zeros
    w0 = (w0 << up) + zeros
    w0 -= 3 * s                               # the sign byte: '0' - 3 = '-'
    # insert '.' at byte `dot`: the bytes from there on move up by one
    dot = np.where(positional, point, 1) + s
    words = []
    for (w, moved), masks in zip(((w0, w0 << 8),
                                  (w1, (w1 << 8) | (w0 >> 56)),
                                  (w2, (w2 << 8) | (w1 >> 56))), t.dot_masks):
        below, above, point_char = (np.take(m, dot) for m in masks)
        words.append((w & below) | (moved & above) | point_char)
    # the text ends after ddd.d, ddd000.0, 0.000ddd, d.ddd or d
    end = s + np.where(
        positional, np.where(length > point, length, point + 1) + 1,
        np.where(small, lead - s + 1 + length, length + (length > 1)))
    return words, end, np.where(positional | small, _NO_EXP,
                                point - 1 + _EXP_OFFSET)


def _block_text(x, t):
    """``csv_text`` of a block of rows."""
    n, ncols = x.shape
    values = x.reshape(-1)
    bits = values.view(np.int64)
    out, e10, fallback = _shortest(bits, t)
    words, end, tail = _layout(out, e10, bits < 0, t)
    last = np.zeros(ncols, dtype=np.int64)
    last[-1] = _TAIL_ROWS                     # the tails ending in '\n'
    tail += np.tile(last, n)
    slots = np.empty((n * ncols, _SLOT_BYTES // 8), dtype=np.int64)
    for k in range(3):
        slots[:, k] = words[k]
    slots[:, 3] = np.take(t.tail, tail)
    size = 8 * end + np.take(t.tail_len, tail)
    picked = np.flatnonzero(fallback)
    if picked.size:
        texts = [repr(v).encode() for v in values[picked].tolist()]
        slots[picked, :3] = np.array(texts, dtype=f"S{_TEXT_BYTES}").view(
            np.int64).reshape(-1, 3)
        # the separator alone: the no-exponent row of the same separator
        slots[picked, 3] = np.take(t.tail, np.take(tail, picked)
                                   // _TAIL_ROWS * _TAIL_ROWS + _NO_EXP)
        size[picked] = 8 * np.array([len(v) for v in texts]) + 1
    keep = np.take(t.slot_keep, size, axis=0)
    return slots.view(np.uint8).reshape(-1, _SLOT_BYTES)[keep].tobytes()


def csv_text(rows) -> bytes:
    """The CSV text of a 2-D float64 array: each value as its repr, ','
    between the values of a row and '\\n' after each row."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    t = _tables()
    step = max(1, _BLOCK_VALUES // rows.shape[1])
    return b"".join(_block_text(rows[i:i + step], t)
                    for i in range(0, rows.shape[0], step))
