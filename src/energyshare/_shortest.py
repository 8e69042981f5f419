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

Each field is assembled in a fixed-width row of six 8-byte words, NUL
where the field has no byte, and the rows are compacted once:

    word 0     the sign, "0." and up to three zeros for exponents -4 to -1,
               then the first digit and its dot
    words 1-4  16 slots of (digit, "." or NUL) for the other digits
    word 5     "e", the exponent's sign and digits for exponents outside
               -4 to 15, then the separator ("," or LF)
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_NDIGITS = 17
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the nonzero float64 values

# Tables below this many values are formatted by ``repr``.  The vectorised
# passes cost ~200 us however few the values (some 200 numpy calls), and save
# ~0.5 us a value: measured, they are 8 % slower than ``repr`` at 320 values
# (a 64-cap sweep) and 21 % faster at 480.
_MIN_VECTOR_VALUES = 512


def format_table(table: np.ndarray) -> bytes:
    """The rows of a 2-D float64 table as CSV text: ``repr`` of each value, ``,`` between, LF after."""
    if table.size < _MIN_VECTOR_VALUES:
        return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()
    last = np.zeros(table.shape, dtype=np.intp)
    last[:, -1] = 1
    return _format(np.ascontiguousarray(table, dtype=np.float64).ravel(), last.ravel())


def _format(values: np.ndarray, last: np.ndarray) -> bytes:
    bits = values.view(_U)
    finite = np.isfinite(values)
    # Zero, and the non-finite values until repr replaces them, are "0.0".
    irregular = np.flatnonzero(~finite | (values == 0.0))
    regular_bits = bits
    if irregular.size:
        regular_bits = bits.copy()
        regular_bits[irregular] = np.float64(1.0).view(_U)
    groups, exponent, ndigits = _digits(*_decimal(regular_bits))
    groups[:, irregular] = 0
    exponent[irregular] = 0
    ndigits[irregular] = 1

    t = _text_tables()
    row = exponent - _E_MIN
    layout = row * (_NDIGITS + 1) + ndigits
    words = np.empty((values.size, 6), dtype=_U)
    words[:, 0] = t.prefix[2 * row + (bits >> _U(63)).astype(np.intp)] | t.lead[groups[0]]
    words[:, 1:5] = (t.group[groups[1:]] & t.keep[:, t.shown[layout]]).T
    words[:, 5] = t.suffix[2 * row + last]
    text = words.view(np.uint8)
    # The dot, or with none a NUL over the first digit's NUL.
    text.ravel()[np.arange(0, text.size, text.shape[1]) + t.dot_at[layout]] = t.dot[layout]
    for i in np.flatnonzero(~finite):
        field = (repr(float(values[i])) + ",\n"[last[i]]).encode()
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
def _binary_tables() -> tuple[np.ndarray, ...]:
    """Schubfach's constants per biased exponent ``b`` and ``quarter`` flag, at ``2 b + quarter``.

    ``quarter`` marks a power of two above the least normal one, whose
    lower neighbour is half as far as its upper one.  The tables: the
    normal bit; ``k``; ``h + 2``; ``cp - cp_l``; ``cp_r - cp``; and
    ``g = floor(10**-k / 2**r) + 1`` in ``[2**125, 2**126)`` as its high and
    low 63 bits.  ``g`` is computed exactly from Python integers.
    """
    biased = np.repeat(np.arange(2048), 2)
    quarter = np.tile([0, 1], 2048)
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
    return (
        np.where(biased > 0, 1 << 52, 0).astype(_U), k, (h + 2).astype(_U),
        ((2 - quarter) << h).astype(_U), (2 << h).astype(_U),
        np.array(g1, dtype=_U)[k - k_min], np.array(g0, dtype=_U)[k - k_min],
    )


def _mul_high(a, b_hi, b_lo):
    """The high 64 bits of ``a * b`` from 32-bit halves, for ``a`` < 2**63 and ``b`` < 2**60."""
    a_hi, a_lo = a >> _U(32), a & _M32
    mid = a_lo * b_hi + a_hi * b_lo + ((a_lo * b_lo) >> _U(32))  # < 2**64 at these sizes
    return a_hi * b_hi + (mid >> _U(32))


def _rop(g1, g0, cp):
    """Schubfach's ``rop``: ``g * cp / 2**127`` rounded to odd, for ``g = g1 · 2**63 + g0``."""
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mul_high(g0, cp_hi, cp_lo)  # uint64 arrays wrap: g1 * cp's low word
    return (_mul_high(g1, cp_hi, cp_lo) + (z >> _U(63))) | ((z << _U(1)) != 0)


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, k)`` with ``f · 10**k`` the shortest correctly rounded decimal of each nonzero value.

    Schubfach's ``toDecimal`` over arrays, less its minimum of two digits
    for the least subnormals; ``f`` is uint64 and may end in zeros.
    """
    t = bits & _U(2**52 - 1)
    biased = (bits >> _U(52)) & _U(0x7FF)
    at = ((biased << _U(1)) + ((t == 0) & (biased > _U(1)))).view(np.intp)
    normal_bit, k, shift, drop_l, add_r, g1, g0 = (table[at] for table in _binary_tables())

    c = t | normal_bit
    out = c & _U(1)  # an odd significand excludes the rounding interval's ends
    cp = c << shift
    vb = _rop(g1, g0, cp)
    vbl = _rop(g1, g0, cp - drop_l) + out
    vbr = _rop(g1, g0, cp + add_r) - out

    s = vb >> _U(2)
    # One digit shorter: the multiple of 10 below or above s, if just one is inside.
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    # Otherwise s or s + 1, whichever is inside, else the closer, else the even.
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    f = np.where(upin != wpin, sp10 + _U(10) * wpin, s + ~lower)
    return f, k


def _digits(f: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each ``f · 10**k``: its first 17 digits as a lead digit and four groups of four
    (a row each), the exponent ``e`` of ``d.ddd × 10**e``, and the number of digits less
    trailing zeros."""
    length = np.searchsorted(_POW10, f, side="right")
    f = f * _TO_17_DIGITS[length]
    groups = np.empty((5, len(f)), dtype=np.intp)
    for i in range(4, 0, -1):
        rest = f // _U(10_000)
        np.subtract(f, rest * _U(10_000), out=groups[i], casting="unsafe")
        f = rest
    groups[0] = f
    zeros = _text_tables().trailing_zeros
    trailing = zeros[groups[4]]
    for i in range(3, 0, -1):  # while every later group is zero
        trailing += (trailing == 4 * (4 - i)) * zeros[groups[i]]
    return groups, k + length - 1, _NDIGITS - trailing


# f has 1 to 17 digits: f <= s + 10, and s < 10 c < 10 · 2**53.
_POW10 = np.array([10**i for i in range(_NDIGITS)], dtype=_U)
_TO_17_DIGITS = np.array([10 ** (_NDIGITS - i) for i in range(_NDIGITS + 1)], dtype=_U)


# ---------------------------------------------------------------------------
# Layout


class _TextTables:
    """The 8-byte words of a field, indexed by what ``_format`` knows of each value."""

    def __init__(self):
        def words(rows) -> np.ndarray:
            rows = np.array(rows, dtype=np.uint8)  # a copy: the caller reuses its array
            return rows.view(_U).reshape(rows.shape[:-1])

        # Four digits, a NUL after each, at the group's value; the first
        # digit, in the last slot of word 0, at its value.
        digits = np.indices((10,) * 4).reshape(4, -1).T  # of 0 to 9999, in order
        slots = np.zeros((10_000, 8), dtype=np.uint8)
        slots[:, ::2] = digits + ord("0")
        self.group = words(slots)
        self.lead = words(slots[:10] * (np.arange(8) == 6))
        self.trailing_zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)

        # The sign and "0.000", at 2 (e - e_min) + negative; the exponent
        # and the separator, at 2 (e - e_min) + last in its row.
        exponent = np.arange(_E_MIN, _E_MAX + 1)
        positional = (-4 <= exponent) & (exponent <= 15)
        prefix = np.zeros((len(exponent), 2, 8), dtype=np.uint8)
        prefix[:, 1, 0] = ord("-")
        for e in range(-4, 0):
            prefix[e - _E_MIN, :, 1 : 2 - e] = np.frombuffer(b"0." + b"0" * (-1 - e), np.uint8)
        power = np.abs(exponent)[:, None]
        places = np.where(power >= 100, [100, 10, 1], [10, 1, 0])  # 0: no third digit
        sci = np.zeros((len(exponent), 5), dtype=np.uint8)
        sci[:, 0] = ord("e")
        sci[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
        sci[:, 2:] = np.where(places > 0, power // np.maximum(places, 1) % 10 + ord("0"), 0)
        suffix = np.zeros((len(exponent), 2, 8), dtype=np.uint8)
        suffix[~positional, :, :5] = sci[~positional, None]
        suffix[:, :, 6] = [ord(","), ord("\n")]
        self.prefix = words(prefix).ravel()
        self.suffix = words(suffix).ravel()

        # At (e - e_min) (_NDIGITS + 1) + digits: how many digits are shown,
        # and the dot's byte in the row.  Positional: "ddd.ddd" with at
        # least one fraction digit, padded with zeros, or (after "0.000")
        # "ddd"; else "d.ddd", or "d" alone, before the exponent.
        nd = np.arange(_NDIGITS + 1)
        e = exponent[:, None]
        self.shown = np.where(positional[:, None] & (e >= 0), np.maximum(nd, e + 2), nd).ravel()
        dot = np.where(positional[:, None], np.where(e >= 0, e, -1), np.where(nd > 1, 0, -1))
        self.dot_at = np.where(dot >= 0, 2 * dot + 7, 7).ravel()  # digit i's dot byte: 2 i + 7
        self.dot = np.where(dot >= 0, ord("."), 0).astype(np.uint8).ravel()
        # Word i of 1-4 with the digits past the first ``shown`` cleared, at [i - 1, shown].
        keep = np.zeros((_NDIGITS + 1, 16, 2), dtype=np.uint8)
        keep[:, :, 0] = np.where(np.arange(1, 17) < np.arange(_NDIGITS + 1)[:, None], 0xFF, 0)
        self.keep = words(keep.reshape(-1, 4, 8)).T.copy()


@functools.cache
def _text_tables() -> _TextTables:
    return _TextTables()
