"""``repr`` of every float64 of a table at once: CSV text with no Python call per value.

Each finite value gets the shortest decimal digits that read back to the
same float, the closest of them to the value, ties to an even last digit:
the digits of ``repr``.  They are found by Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), which needs only fixed-width
integer arithmetic; here it runs over whole columns in numpy ``uint64``,
each 64 x 64-bit product formed from 32-bit halves.  The digits are then
laid out as ``repr`` lays them out: positional for decimal exponents -4 to
15 (with ``.0`` on integral values), ``d.ddde±XX`` otherwise, and ``-0.0``.
Non-finite values go through ``repr`` itself.

Each field is assembled in a fixed-width row of four 8-byte words, NUL
where the field has no byte, and the rows are compacted once:

    word 0     the sign, "0." and up to three zeros for exponents -4 to -1,
               then the first digit and, after it, a dot or NUL
    words 1-2  the other 16 digits, trailing zeros NUL; for exponents 1 to
               15 the digits after the integral part move up one byte,
               and the dot takes the byte they leave
    word 3     the last digit if it moved, then "e", the exponent's sign
               and digits for exponents outside -4 to 15, then the
               separator ("," or LF)

Most numpy calls here take a constant; ``_u`` makes it a 0-d array, which a
ufunc call takes ~0.5 us faster than a numpy or Python scalar.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_NDIGITS = 17
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the nonzero float64 values
_INFINITY = 0x7FF0_0000_0000_0000  # the bits of inf; above them, of NaN

# Tables below this many values are formatted by ``repr``.  The vectorised
# passes cost 150-240 us however few the values (some 120 numpy calls), then
# 0.2-0.4 us a value, against ~0.9 us for ``repr``.  In a loop of their own
# they pass ``repr`` at ~240 values; but in solve_sweep's loop, whose other
# work evicts their tables, a 64-cap sweep (320 values) took 357 us on them
# and 280 us by ``repr``.
_MIN_VECTOR_VALUES = 512


@functools.cache
def _u(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d uint64 array."""
    array = np.array(value, dtype=_U)
    array.flags.writeable = False
    return array


def format_table(table: np.ndarray) -> bytes:
    """The rows of a 2-D float64 table as CSV text: ``repr`` of each value, ``,`` between, LF after."""
    if table.size < _MIN_VECTOR_VALUES:
        return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()
    return _format(np.ascontiguousarray(table, dtype=np.float64))


def _format(table: np.ndarray) -> bytes:
    values = table.ravel()
    bits = values.view(_U)
    magnitude = bits & _u(2**63 - 1)
    # Zero, and the non-finite values until repr replaces them, are "0.0".
    irregular = np.flatnonzero(magnitude - _u(1) >= _u(_INFINITY - 1))
    digits, exponent = _digits(*_decimal(bits))
    if irregular.size:
        digits[irregular] = 0
        exponent[irregular] = 0
    lead = digits // _u(10**16)
    block = _digit_words(digits - lead * _u(10**16))

    # A column of constants per value; where two of its rows meet an array
    # of values, order="C" makes numpy iterate along the values.
    row = _text_tables().rows.take(exponent - _E_MIN, axis=0).T
    words = np.empty((values.size, 4), dtype=_U)
    head = row[4] | (lead << _u(48)) | ((bits >> _u(63)) * _u(ord("-")))
    np.bitwise_or(head, row[6] * (block[0] != 0), out=words[:, 0])  # with the dot of "d.ddde±XX"
    # The dot of "ddd.ddd": the digits from its place on move up one byte.
    stay = np.bitwise_and(block, row[:2], order="C")
    move = block ^ stay
    np.bitwise_or(stay | (move << _u(8)), row[2:4], out=words[:, 1:3].T, order="C")
    words[:, 2] |= move[0] >> _u(56)
    np.bitwise_or(row[5], move[1] >> _u(56), out=words[:, 3])
    words.reshape(table.shape + (4,))[:, -1, 3] ^= _u((ord(",") ^ ord("\n")) << 48)

    text = words.view(np.uint8)
    for i in irregular[magnitude[irregular] >= _u(_INFINITY)]:
        field = (repr(float(values[i])) + ("\n" if (i + 1) % table.shape[1] == 0 else ",")).encode()
        text[i] = 0
        text[i, : len(field)] = np.frombuffer(field, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# Schubfach


# floor(e log10 2), floor(log10(3/4 · 2**e)) and floor(e log2 10): Schubfach's
# fixed-point forms, equal to the exact values at least for |e| <= 1100.
def _flog10pow2(e):
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38


@functools.cache
def _binary_tables() -> np.ndarray:
    """Schubfach's constants per biased exponent ``b`` and ``quarter`` flag, a row at ``2 b + quarter``.

    ``quarter`` marks a power of two above the least normal one, whose
    lower neighbour is half as far as its upper one; below it, both rows
    of ``b`` are the same.  The columns: ``k`` (as ``int64``); ``h + 2``;
    the normal bit; ``g = floor(10**-k / 2**r) + 1`` in ``[2**125, 2**126)``
    as its high and low 63 bits ``g1`` and ``g0``; then what moves ``Z`` to
    the lower and the upper end of the rounding interval (see ``_decimal``),
    side by side: the low word of ``-g0 · d`` and of ``g0 · d``, and
    ``-(K + [that word is not 0])`` and ``K`` (mod 2**127) as their bits 0-62
    and their bits from 63 up.  ``g`` is computed exactly from Python
    integers.
    """
    biased = np.repeat(np.arange(2048), 2)
    quarter = np.tile([0, 1], 2048) * (biased > 1)
    q = np.maximum(biased, 1) - 1075
    k = np.where(quarter == 1, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = q + _flog2pow10(-k) + 2
    k_min, k_max = int(k.min()), int(k.max())
    powers_of_5 = [1]
    for _ in range(max(-k_min, k_max)):
        powers_of_5.append(5 * powers_of_5[-1])
    g1, g0 = [], []
    for e in range(-k_min, -k_max - 1, -1):  # 10**e / 2**r = 5**e * 2**(e - r)
        shift = e - (_flog2pow10(e) - 125)
        if e < 0:
            g = (1 << shift) // powers_of_5[-e] + 1
        else:
            g = (powers_of_5[e] << shift if shift >= 0 else powers_of_5[e] >> -shift) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    g1 = np.array(g1, dtype=_U)[k - k_min]
    g0 = np.array(g0, dtype=_U)[k - k_min]

    def step(s):  # for d = 2**s, 0 < s < 64: g0 · d's low word, and K in two parts
        s = s.astype(_U)
        k_low = ((g1 << (s - _u(1))) & _u(2**63 - 1)) + (g0 >> (_u(64) - s))
        return g0 << s, k_low & _u(2**63 - 1), (g1 >> (_u(64) - s)) + (k_low >> _u(63))

    low_word, k_low, k_high = step(h + 1 - quarter)  # drop_l = (2 - quarter) << h
    # Negated: -K - 1 (mod 2**127) if the low word is not 0, which is negated mod 2**64.
    k_low = k_low + (low_word != 0)
    k_high = k_high + (k_low >> _u(63))
    k_low &= _u(2**63 - 1)
    lower = (_u(0) - low_word, (_u(2**63) - k_low) & _u(2**63 - 1), _u(0) - k_high - (k_low != 0))
    upper = step(h + 1)  # add_r = 2 << h
    return np.column_stack([
        k.astype(np.int64).view(_U), (h + 2).astype(_U), np.where(biased > 0, 1 << 52, 0).astype(_U),
        g1, g0, *(word for pair in zip(lower, upper) for word in pair),
    ])


def _mul_high(a, b_hi, b_lo):
    """The high 64 bits of ``a * b`` from 32-bit halves, for ``a`` < 2**63 and ``b`` < 2**60."""
    a_hi, a_lo = np.right_shift(a, _u(32), order="C"), np.bitwise_and(a, _u(2**32 - 1), order="C")
    mid = a_lo * b_hi + a_hi * b_lo + ((a_lo * b_lo) >> _u(32))  # < 2**64 at these sizes
    return a_hi * b_hi + (mid >> _u(32))


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, k)`` with ``f · 10**k`` the shortest correctly rounded decimal of each nonzero value.

    Schubfach's ``toDecimal`` over arrays, less its minimum of two digits
    for the least subnormals; ``f`` is uint64 and may end in zeros.

    ``vb``, ``vbl`` and ``vbr`` are Schubfach's ``rop`` at ``cp`` and at the
    interval's ends ``cp - drop_l`` and ``cp + add_r``, where ``drop_l`` and
    ``add_r`` are powers of two ``d = 2**s``.  For ``g = g1 · 2**63 + g0``,
    ``rop`` reads ``Z(cp) = floor(g1 · cp / 2) + floor(g0 · cp / 2**64)``:
    it is the floor of ``Z / 2**63``, with its last bit set if ``Z`` has
    other bits (rounding to odd).  It drops the low word of ``g0 · cp``,
    and so does this code, which multiplies at ``cp`` alone.  ``g1 · d`` is
    even, so ``Z(cp ± d) = Z(cp) ± K ± c``, with the row's constant
    ``K = g1 · 2**(s - 1) + (g0 >> (64 - s))`` and ``c`` the carry (borrow)
    of adding (subtracting) ``g0 · d``'s low word ``w`` to (from) ``g0 ·
    cp``'s.  For the lower end, ``-K - c`` is ``-(K + [w != 0])`` plus the
    carry of adding ``-w`` (mod 2**64).  The ends are thus the very ``rop``
    of the products at ``cp ± d``.
    """
    t = bits & _u(2**52 - 1)
    at = ((bits >> _u(51)) & _u(0xFFE)) | ((t - _u(1)) >> _u(63))  # 2 b + (t == 0)
    row = _binary_tables().take(at.view(np.intp), axis=0).T  # a column per value, as in _format
    k = row[0].view(np.int64)

    c = t | row[2]
    out = c & _u(1)  # an odd significand excludes the rounding interval's ends
    cp = c << row[1]
    g = row[3:5]
    high = _mul_high(g, cp >> _u(32), cp & _u(2**32 - 1))  # of g1 · cp and g0 · cp
    low = np.multiply(g, cp, order="C")  # uint64 arrays wrap: the low words
    z = (low[0] >> _u(1)) + high[1]  # Z(cp) = high[0] · 2**63 + z
    floor = high[0] + (z >> _u(63))
    z &= _u(2**63 - 1)
    vb = floor | (z != 0)
    # The ends, lower and upper in a row each.
    end_low = np.add(low[1], row[5:7], order="C")
    end_z = np.add(z, row[7:9], order="C") + (end_low < low[1])
    ends = (np.add(floor, row[9:11], order="C") + (end_z >> _u(63))) | ((end_z & _u(2**63 - 1)) != 0)
    vbl = ends[0] + out
    vbr = ends[1] - out

    s = vb >> _u(2)
    # One digit shorter: the multiple of 10 below or above s, if just one is inside.
    sp10 = (s // _u(10)) * _u(10)
    sp40 = sp10 << _u(2)
    upin = vbl <= sp40
    wpin = sp40 + _u(40) <= vbr
    # Otherwise s or s + 1, whichever is inside, else the closer, else the even:
    # vb & 7 is 3, 6 or 7 where s + 1 is closer, or as close and even.
    s4 = vb & _u(2**64 - 4)
    uin = vbl <= s4
    win = s4 + _u(4) <= vbr
    up = np.where(uin == win, (_u(0xC8) >> (vb & _u(7))) & _u(1), win)
    f = np.where(upin == wpin, s + up, sp10 + _u(10) * wpin)
    return f, k


def _digits(f: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each ``f · 10**k``: ``f`` scaled to 17 digits, and the exponent ``e`` of ``d.ddd × 10**e``.

    A normal value's ``f`` has 16 or 17 digits (``s`` is in ``[2**52, 10 ·
    2**53)``); only subnormals have fewer, and go through a search.
    """
    short = f < _u(10**16)
    scaled = np.where(short, f * _u(10), f)
    exponent = k + 16 - short
    few = np.flatnonzero(f < _u(10**15))
    if few.size:
        length = np.searchsorted(_POW10, f[few], side="right")
        scaled[few] = f[few] * _TO_17_DIGITS[length]
        exponent[few] = k[few] + length - 1
    return scaled, exponent


# f has 1 to 17 digits: f <= s + 10, and s < 10 c < 10 · 2**53.
_POW10 = np.array([10**i for i in range(_NDIGITS)], dtype=_U)
_TO_17_DIGITS = np.array([10 ** (_NDIGITS - i) for i in range(_NDIGITS + 1)], dtype=_U)


def _digit_words(rest: np.ndarray) -> np.ndarray:
    """The 16 digits after the first as two words of text, a row each, trailing zeros NUL."""
    halves = np.empty((2, rest.size), dtype=_U)  # digits 1-8 and 9-16
    np.floor_divide(rest, _u(10**8), out=halves[0])
    np.subtract(rest, halves[0] * _u(10**8), out=halves[1])
    first = halves // _u(10_000)
    second = halves - first * _u(10_000)
    # A group of four shows its trailing zeros (at + 10 000) if a later digit is not 0.
    later = np.zeros(halves.shape, dtype=bool)
    np.not_equal(halves[1], _u(0), out=later[0])
    groups = _text_tables().groups
    return (groups.take(first + _u(10_000) * (later | (second != 0)))
            | (groups.take(second + _u(10_000) * later) << _u(32)))


# ---------------------------------------------------------------------------
# Layout


class _TextTables:
    """The bytes of a field, indexed by what ``_format`` knows of each value."""

    def __init__(self):
        def words(rows) -> np.ndarray:
            rows = np.array(rows, dtype=np.uint8)  # a copy: the caller reuses its array
            return rows.view(_U).reshape(rows.shape[:-1])

        # Four digits at the group's value, at + 10 000 with its trailing zeros shown.
        digits = np.indices((10,) * 4).reshape(4, -1).T  # of 0 to 9999, in order
        trailing = np.arange(10_000)[:, None] % [10_000, 1000, 100, 10] == 0  # from this digit on
        text = np.zeros((2, 10_000, 8), dtype=np.uint8)
        text[:, :, :4] = digits + ord("0")
        text[0, :, :4][trailing] = 0
        self.groups = words(text).ravel()

        # A row per exponent e - e_min; its columns:
        #   0-1  the bytes of words 1-2 that stay in place, the others moving up one;
        #   2-3  the dot of "ddd.ddd" and the zeros that pad it to one fraction digit;
        #   4    word 0: "0." and zeros, the first digit's "0", and its dot if e is 0;
        #   5    word 3: a moved padding zero, "e±XX", ",";
        #   6    word 0's dot in "d.ddde±XX", there if another digit follows.
        exponent = np.arange(_E_MIN, _E_MAX + 1)
        rows = np.zeros((len(exponent), 7, 8), dtype=np.uint8)
        keep = np.full((len(exponent), 16), 0xFF, dtype=np.uint8)
        pad = np.zeros((len(exponent), 17), dtype=np.uint8)  # words 1-2, then word 3's first byte
        rows[:, 4, 6] = ord("0")
        rows[-_E_MIN, 4, 7] = ord(".")
        pad[-_E_MIN, 0] = ord("0")
        for e in range(1, 16):  # digits 1 to e, the dot, digit e + 1
            keep[e - _E_MIN, e:] = 0
            pad[e - _E_MIN, : e + 2] = ord("0")
            pad[e - _E_MIN, e] = ord(".")
        rows[:, :2] = keep.reshape(-1, 2, 8)
        rows[:, 2:4] = pad[:, :16].reshape(-1, 2, 8)
        rows[:, 5, 0] = pad[:, 16]
        for e in range(-4, 0):
            rows[e - _E_MIN, 4, 1 : 2 - e] = np.frombuffer(b"0." + b"0" * (-1 - e), np.uint8)
        scientific = (exponent < -4) | (exponent > 15)
        power = np.abs(exponent)[:, None]
        places = np.where(power >= 100, [100, 10, 1], [10, 1, 0])  # 0: no third digit
        sci = np.zeros((len(exponent), 5), dtype=np.uint8)
        sci[:, 0] = ord("e")
        sci[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
        sci[:, 2:] = np.where(places > 0, power // np.maximum(places, 1) % 10 + ord("0"), 0)
        rows[scientific, 5, 1:6] = sci[scientific]
        rows[:, 5, 6] = ord(",")
        rows[scientific, 6, 7] = ord(".")
        self.rows = words(rows)


@functools.cache
def _text_tables() -> _TextTables:
    return _TextTables()
