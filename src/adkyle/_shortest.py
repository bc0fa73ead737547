"""The text of whole numeric arrays at once: repr(float(v)) of a float, str(v) of an integer.

`cli._block_text` sends a block of numeric arrays here when one of its dtype groups is
large (README).  It imports this module on first use; `cli.cmd_simulate` does before it
builds many paths.  So a small run never loads or, without bytecode caching, compiles it.

A float's digits are Ryū's (Adams, "Ryū: fast float-to-string conversion", PLDI 2018): of
the decimals that read back to the double, the shortest, and of those the nearest, which
is what repr prints.  Ryū scales 4m ± 2 (the double's mantissa and its rounding interval)
by a 128-bit power of 5; here each product is built from 32-bit halves of uint64 arrays,
so a few dozen numpy passes serve the whole array.  Where the scaled value is exact (an
integer-valued or short dyadic double), Ryū tracks trailing zeros digit by digit: those
values, like ±0, ±inf and NaN, go through one batched repr.

A value's text is laid out in fixed columns of a (values, width) uint8 array, with NUL
bytes wherever a column is unused, so that deleting every NUL of a row of cells leaves
the row's text.
"""

from __future__ import annotations

import numpy as np

_LOW = np.uint64(0xFFFFFFFF)
_ROWS = 1024  # rows joined at a time: bounds the join's buffer (peak memory)
_P10 = 10 ** np.arange(20, dtype=np.uint64)
_P5 = 5 ** np.arange(24, dtype=np.uint64)  # 4m + 2 < 2**55 < 5**24 divides by no higher power
_DIGITS = np.stack([np.repeat(np.tile(np.arange(10, dtype=np.uint8), 10**c), 10 ** (3 - c))
                    for c in range(4)], axis=1) + np.uint8(ord("0"))  # rows "0000" ... "9999"
_QUADS = _DIGITS.view(np.uint32).ravel()  # a row's 4 ASCII digits as one word
# words and byte masks built from bytes, so that they hold on either byte order
_MINUS, _POINT = np.frombuffer(b"-\0\0\0" b".\0\0\0", dtype=np.uint32)
_BLANKS = np.frombuffer(bytes.fromhex("ffffffff 00ffffff 0000ffff 000000ff 00000000"),
                        dtype=np.uint32)  # [k]: NUL the first k bytes of a word
_EXPONENTS = np.array([b"e%+03d" % e for e in range(-324, 309)], dtype="S8").view(
    np.uint32).reshape(-1, 2)  # "e-324", ..., "e-05", ..., "e+308" in two words


def _multipliers() -> np.ndarray:
    """Ryū's tables indexed by a double's biased exponent: "t", its 128-bit power of 5 moved
    to bit 128 (so that a product's top 64 bits are the scaled value) as five 32-bit limbs;
    "q", the power of 10 (or 5) it divides (multiplies) by; "e10", the scaled value's unit."""
    pow5 = [1]
    while len(pow5) < 330:
        pow5.append(5 * pow5[-1])
    table = bytearray()
    for biased in range(2048):
        e2 = max(biased, 1) - 1077  # 2**e2 is the unit of 4m
        if e2 >= 0:  # x / 10**q with q = floor(e2 log10 2), less one from e2 = 4
            q = (e2 * 78913 >> 18) - (e2 > 3)
            k = pow5[q].bit_length() + 124
            mult, shift, e10 = (1 << k) // pow5[q] + 1, q + k - e2, q
        else:  # x * 10**-e10 with e10 = q + e2, q = floor(-e2 log10 5), less one from e2 = -2
            q = (-e2 * 732923 >> 20) - (-e2 > 1)
            p = pow5[-e2 - q]
            mult, shift, e10 = (p << 125) >> p.bit_length(), q - p.bit_length() + 125, q + e2
        table += (mult << (128 - shift)).to_bytes(20, "little")  # shift is 118 ... 125
        table += q.to_bytes(2, "little") + e10.to_bytes(2, "little", signed=True)
    return np.frombuffer(table, dtype=[("t", "<u4", 5), ("q", "<i2"), ("e10", "<i2")])


_TABLE = _multipliers()
_LIMBS = _TABLE["t"].T  # limb k of every exponent: a strided view


def _digits(out, v, shown) -> None:
    """Write the last `shown` decimal digits of each v into the uint32 columns of out, 4
    ASCII digits a word, the last digit last, with NUL before them (at least in the first
    byte of out[:, 0])."""
    least = int(np.min(shown, initial=0))
    for k in range(out.shape[1] - 1, -1, -1):
        v, quad = np.divmod(v, np.uint64(10_000))
        out[:, k] = _QUADS[quad.view(np.int64)]  # a signed index is not converted
        if 4 * (out.shape[1] - k) > least:  # some rows have bytes before their digits here
            out[:, k] &= _BLANKS[np.clip(4 * (out.shape[1] - k) - shown, 0, 4)]


def _carried(y, carry):
    """The carry out of a sum's 32-bit column that holds y, given the carry into it (int8)."""
    return ((y.view(np.int64) + carry) >> 32).astype(np.int8)  # a floor, as the shift is signed


def _shortest(x):
    """Ryū's digits of finite nonzero doubles: (n, e, general), n * 10**e the shortest nearest
    decimal of x; where general, the scaled value is exact and n is not to be used."""
    bits = x.view(np.uint64)
    biased = (bits >> 52 & 0x7FF).astype(np.intp)
    mv = bits & (1 << 52) - 1  # the fraction, then 4m: the double's interval is (4m - 2, 4m + 2)
    wide = (mv != 0) | (biased <= 1)  # else 4m - 1 bounds it below, at a power of 2
    even = (mv & 1) == 0  # round-half-even reading accepts an even mantissa's bounds
    mv |= (biased > 0).astype(np.uint64) << 52
    mv <<= 2
    q = _TABLE["q"][biased]
    # 2**q divides 4m (< 2**55): 4m 2**e2 10**-e10 = 4m 5**(-e2-q) / 2**q
    exact = (biased < 1077) & (mv & (1 << np.minimum(q, 63).astype(np.uint64)) - 1 == 0)
    (big,) = np.nonzero((biased >= 1077) & (q < len(_P5)))  # 5**q may divide 4m, 4m + 2, ...
    if len(big):
        p5, m = _P5[q[big]], mv[big]
        exact[big] = (m % p5 == 0) | even[big] & ((m - 1 - wide[big]) % p5 == 0)
        excluded = ~even[big] & ((m + 2) % p5 == 0)  # an exact upper bound, not accepted

    # vr, vp, vm: the top 64 bits of X + c T = (4m + c) T for c = 0, 2 and -1 - wide, carried
    # up the 32-bit columns of X = 4m T; column k is complete once limb k of T is multiplied in
    lo, hi = (mv & _LOW).astype(np.uint32), (mv >> 32).astype(np.uint32)
    del mv, q, even
    vr = vp = vm = 0  # the carries out of the columns so far
    ahead = [0, 0]  # the halves of columns k + 1 and k + 2 met so far
    for k, limb in enumerate(_LIMBS):
        tk = limb[biased]
        p = np.multiply(lo, tk, dtype=np.uint64)
        column = p & _LOW
        column += ahead[0]
        p >>= 32
        ahead[0] = p + ahead[1]
        p = np.multiply(hi, tk, dtype=np.uint64)
        ahead[0] += p & _LOW
        ahead[1] = p >> 32  # 0 at k = 4, as X < 2**192
        if k < 4:
            vr = _carried(column, vr)
            vp = _carried(column + tk + tk, vp)
            vm = _carried(column - tk - tk * wide, vm)  # two's complement where negative
    column += ahead[0] << 32  # the top 64 bits of X, less the carry into them
    del lo, hi, p, ahead
    top = column.view(np.int64)
    vr, vp, vm = (top + vr).view(np.uint64), top + vp + tk + tk, top + vm - tk - tk * wide
    vp, vm = vp.view(np.uint64), vm.view(np.uint64)
    del column, top, tk, wide
    if len(big):
        vp[big] -= excluded

    # drop r digits, the most that leave a multiple of 10**r in (vm, vp]: with 10**(s-1) <=
    # vp - vm < 10**s that is s - 1, or s plus the zero digits of vp above its last s when
    # those s are below vp - vm
    d = vp - vm
    s = np.searchsorted(_P10, d, side="right")
    w = vp // _P10[s]
    r = s - 1 + (vp - w * _P10[s] < d)
    del vp, d
    (more,) = np.nonzero(r == s)
    w = w[more]
    del s
    for k in (16, 8, 4, 2, 1):  # count the zeros: w > 0 has at most 19 digits
        q, rest = np.divmod(w, _P10[k])
        zero = rest == 0
        w = np.where(zero, q, w)
        r[more] += k * zero
    head = vr // _P10[np.maximum(r - 1, 0)]
    del vr
    n, last = np.divmod(head, np.uint64(10))
    up = (r > 0) & (last >= 5)
    del last
    n = np.where(r > 0, n, head)
    del head
    n += up | (n * _P10[r] <= vm)  # round up, or stay above vm
    return n, _TABLE["e10"][biased] + r, exact


def _float_cells(x):
    """Cells of repr of finite nonzero doubles x, from Ryū's digits n * 10**e: digits, a
    point, and e+XX or e-XX outside 10**-4 <= |x| < 10**16; and the mask of the values
    whose digits are general, whose cells are to be overwritten."""
    n, e, general = _shortest(x)
    length = np.searchsorted(_P10, n, side="right")
    point = e + length  # |x| = 0.digits * 10**point
    del e
    fixed = (point > -4) & (point <= 16) | general  # (a general value sizes no column)
    before = np.where(fixed, point, 1)  # digits before the point; "0" stands for <= 0
    after = np.where(general, 0, length - before)  # > 0 if fixed: an integer is general
    before[general] = 1
    del length
    scale = _P10[np.minimum(after, 19)]  # n < 10**17
    head = n // scale
    n -= head * scale
    del scale
    # words of the integer digits, with a NUL for the sign; of the fraction, with one for
    # the point; and of the exponent
    i, f = int(np.max(before, initial=1)) // 4 + 1, int(np.max(after, initial=0)) // 4 + 1
    exp = 0 if fixed.all() else 1 + bool(np.any(np.abs(point - 1) >= 100))
    out = np.empty((len(x), i + f + exp), dtype=np.uint32)
    _digits(out[:, i:i + f], n, after)
    out[:, i] |= (after > 0) * _POINT
    del n, after
    _digits(out[:, :i], head, np.maximum(before, 1))
    out[:, 0] |= (x < 0) * _MINUS
    if exp:
        out[:, i + f:] = _EXPONENTS[np.clip(point + 323, 0, 632), :exp] * ~fixed[:, None]
    return out.view(np.uint8), general


def _int_cells(v):
    """Cells of str of each integer in v."""
    negative = v < 0
    mag = v.astype(np.uint64)  # two's complement of a negative value
    mag = np.where(negative, 0 - mag, mag)
    length = np.searchsorted(_P10, mag, side="right")
    out = np.empty((len(v), int(np.max(length, initial=0)) // 4 + 1), dtype=np.uint32)
    _digits(out, mag, np.maximum(length, 1))
    out[:, 0] |= negative * _MINUS  # a NUL before the first digit takes the sign
    return out.view(np.uint8)


def cells(values):
    """The text of each value of a 1-d bool, integer or float array (no longdouble) as a
    (len(values), width) uint8 array: the bytes of repr(float(v)) for floats and of str(v)
    otherwise, with NUL bytes among them that are not part of the text."""
    kind = values.dtype.kind
    if kind == "b":
        words = np.frombuffer(b"True\0False", dtype=np.uint8).reshape(2, 5)
        return words[values.astype(np.intp) ^ 1]
    if kind in "iu":
        return _int_cells(values)
    with np.errstate(invalid="ignore"):  # a signalling NaN raises the flag as it widens
        x = values.astype(np.float64, copy=False)
    special = ~np.isfinite(x) | (x == 0)
    out, general = _float_cells(np.where(special, 1.0, x))
    (rest,) = np.nonzero(general | special)
    if len(rest):  # one batched repr
        text = np.array(list(map(repr, x[rest].tolist())), dtype=bytes)
        if text.itemsize > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.itemsize - out.shape[1])))
        out[rest] = 0
        out[rest, :text.itemsize] = text.view(np.uint8).reshape(len(rest), -1)
    return out


def rows(k: int, groups: list) -> bytes:
    """ASCII CSV text of a block of k numeric columns from their dtype groups, each
    (columns, distinct values, each column's indices into them): each row's cells, commas
    and line end, less every NUL.  Empties groups."""
    columns = [None] * k  # each column's (its group's cells as void items, indices into them)
    for js, values, inverse in groups:
        text = cells(values)
        text = text.view(f"V{text.shape[1]}")[:, 0]
        for j, index in zip(js, inverse):
            columns[j] = (text, index)
    groups.clear()  # (peak memory)
    n = len(columns[0][1])
    if any(len(index) != n for _, index in columns):
        raise ValueError("adkyle._shortest: a block's columns differ in length")
    width, pieces = sum(text.itemsize + 1 for text, _ in columns) + 1, []
    for start in range(0, n, _ROWS):  # a bounded buffer (peak memory)
        data = bytearray(min(_ROWS, n - start) * width)
        out, at = np.frombuffer(data, dtype=np.uint8).reshape(-1, width), 0
        for text, index in columns:
            out[:, at:at + text.itemsize].view(text.dtype)[:, 0] = text[index[start:start + _ROWS]]
            out[:, at + text.itemsize] = ord(",")
            at += text.itemsize + 1
        out[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
        del out
        pieces.append(data.translate(None, b"\0"))
    return b"".join(pieces)
