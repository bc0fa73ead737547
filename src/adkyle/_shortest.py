"""The text of whole numeric arrays at once: repr(float(v)) of a float, str(v) of an integer.

`cli._write_tables` sends a table of numeric arrays here when its blocks print many
values (README).  It imports this module on first use; `cli.cmd_simulate` does before it
builds many paths.  So a small run never loads or, without bytecode caching, compiles it.

A float's digits are Ryū's (Adams, "Ryū: fast float-to-string conversion", PLDI 2018): of
the decimals that read back to the double, the shortest, and of those the nearest, which
is what repr prints.  Ryū scales 4m ± 2 (the double's mantissa and its rounding interval)
by a 128-bit power of 5 and keeps the top 64 bits of each 192-bit product.  Here the three
products share the top 96 bits of 4m's, summed in uint64 arrays from 32-bit limbs: the
bits left out can carry at most 3 into them, so a value whose carry that leaves in doubt
(0.06% of random bit patterns, most of them integers above 2**61; no random normal double)
is printed like the values Ryū tracks digit by digit, those whose scaled value is exact
(integer-valued and short dyadic doubles), and like ±0, ±inf and NaN: by one batched repr.

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
_EXPONENTS = np.array([b"e%+03d" % e for e in range(-324, 309)] + [b""], dtype="S8").view(
    np.uint64)  # "e-324", ..., "e-05", ..., "e+308", then none, as two words


def _multipliers() -> np.ndarray:
    """Tables by a double's biased exponent, rows of 2,048 uint64 words.  Ryū's, with T the
    exponent's 128-bit power of 5 moved to bit 128 (so that the top 64 bits of 4m T are 4m's
    scaled value), T < 2**136: [0], [1], 32-bit limbs 1 and 2 of 4T; [2], 4T >> 96; [3], the
    mask of the bits of m that are 0 where 2**q divides 4m, all ones where the scaled value
    is never exact, 0 where 5**q may divide it and for NaN and ±inf; [4], the scaled value's
    unit e10 (int64).  [5]: the decimal digits g of the least integer whose double has this
    exponent, at most 19: a uint64 of this exponent has g + 1 if at least 10**g, else g."""
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
            exact = 0 if q < len(_P5) or biased == 2047 else (1 << 64) - 1
        else:  # x * 10**-e10 with e10 = q + e2, q = floor(-e2 log10 5), less one from e2 = -2
            q = (-e2 * 732923 >> 20) - (-e2 > 1)
            p = pow5[-e2 - q]
            mult, shift, e10 = (p << 125) >> p.bit_length(), q - p.bit_length() + 125, q + e2
            exact = (1 << min(max(q - 2, 0), 63)) - 1
        t = mult << (130 - shift)  # 4T: shift is 118 ... 125
        k = biased - 1023  # the least integer whose double is 2**k (ties to even), a uint64's
        least = (1 << k) - (k > 53 and 1 << (k - 54)) if 0 <= k <= 64 else 0
        for word in (t >> 32 & 0xFFFFFFFF, t >> 64 & 0xFFFFFFFF, t >> 96, exact, e10 % (1 << 64),
                     min(len(str(least)), 19) if least else 0):
            table += word.to_bytes(8, "little")
    return np.frombuffer(table, dtype="<u8").reshape(2048, -1).T.astype(np.uint64, order="C")


_TABLE = _multipliers()


def _lengths(v):
    """The decimal digits of each uint64 v, 0 for 0: one of two, by the exponent of v's
    double."""
    g = v.astype(np.float64).view(np.int64)
    g >>= 52
    _TABLE[5].view(np.int64).take(g, mode="clip", out=g)
    g += v >= _P10.take(g, mode="clip")
    return g


def _digits(out, v, shown) -> None:
    """Write the last `shown` decimal digits of each v into the uint32 columns of out, 4
    ASCII digits a word, the last digit last, with NUL before them (at least in the first
    byte of out[:, 0]).  v, which out's words hold, is overwritten."""
    words = out.shape[1]
    least = int(np.minimum.reduce(shown, initial=4 * words))  # digits every row shows
    q, scratch = np.empty_like(v) if words > 1 else None, np.empty_like(v)
    for k in range(words - 1, -1, -1):
        if k:  # numpy divides by a scalar faster than np.divmod does
            np.floor_divide(v, np.uint64(10_000), out=q)
            v -= np.multiply(q, np.uint64(10_000), out=scratch)
        quad = _QUADS.take(v.view(np.int64))  # a signed index is not converted
        if 4 * (words - k) <= least:  # no row has a byte before its digits here
            out[:, k] = quad
        else:
            blank = np.subtract(4 * (words - k), shown, out=scratch.view(np.int64))
            np.bitwise_and(quad, _BLANKS.take(blank, mode="clip"), out=out[:, k])
        v, q = q, v


def _shortest(x):
    """Ryū's digits of doubles: (n, e, general), n * 10**e the shortest nearest decimal of x;
    where general, n is not to be used: x is ±0, ±inf or NaN, its scaled value is exact, or
    it is so near a carry that the bits summed here leave it in doubt."""
    bits = x.view(np.uint64)
    biased = bits << np.uint64(1)
    biased >>= np.uint64(53)
    biased = biased.view(np.intp)
    m = bits & np.uint64((1 << 52) - 1)  # the fraction, then the mantissa
    (narrow,) = np.nonzero(m == 0)  # a power of 2: 4m - 1, not 4m - 2, bounds it below
    narrow = narrow[biased[narrow] > 1]  # (not 2**-1022: subnormals are as close below)
    m |= np.uint64(1 << 52)
    (sub,) = np.nonzero(biased == 0)
    m[sub] ^= np.uint64(1 << 52)
    # where 2**q divides 4m (< 2**55): 4m 2**e2 10**-e10 = 4m 5**(-e2-q) / 2**q
    general = (m & _TABLE[3].take(biased, mode="clip")) == 0
    (big,) = np.nonzero(general)
    big = big[(biased[big] >= 1077) & (biased[big] < 2047)]  # 5**q may divide 4m, 4m + 2, ...
    if len(big):  # (q is e10 where e2 >= 0)
        p5, m4 = _P5[_TABLE[4].view(np.int64)[biased[big]]], m[big] << np.uint64(2)
        even = (m4 & np.uint64(4)) == 0  # round-half-even reading accepts an even m's bounds
        general[big] = (m4 % p5 == 0) | even & ((m4 - 1 - (m4 != 1 << 54)) % p5 == 0)
        excluded = ~even & ((m4 + 2) % p5 == 0)  # an exact upper bound, not accepted

    # X = 4m T = m 4T < 2**191 from 32-bit limbs t1 ... t4 of 4T (t0 is not needed): bits
    # 128+ of X sum to top and bits 96+ to top 2**32 + col, col < 2**34.  The partial
    # products left out sum to less than 3.01 2**96, so they carry at most 3 into col.
    hi = m >> np.uint64(32)
    lo = m
    lo &= _LOW
    del m
    t = _TABLE[1].take(biased, mode="clip")  # t2
    col = lo * t
    col >>= np.uint64(32)  # lo t2 >> 32
    t *= hi
    top = t >> np.uint64(32)  # hi t2 >> 32
    t &= _LOW
    col += t  # hi t2 & LOW
    _TABLE[0].take(biased, out=t, mode="clip")  # t1
    t *= hi
    t >>= np.uint64(32)
    col += t  # hi t1 >> 32
    a = _TABLE[2].take(biased, mode="clip")  # t3 + t4 2**32
    hi *= a
    top += hi  # hi (t3 + t4 2**32) < 2**63
    np.bitwise_and(a, _LOW, out=t)
    t *= lo
    col += np.bitwise_and(t, _LOW, out=hi)  # lo t3 & LOW
    t >>= np.uint64(32)
    top += t  # lo t3 >> 32
    np.right_shift(a, np.uint64(32), out=t)
    t *= lo
    top += t  # lo t4
    c4 = np.right_shift(a, np.uint64(33), out=lo)  # 2T = c4 2**128 + c3 2**96 + ...
    a >>= np.uint64(1)
    c3 = a
    c3 &= _LOW
    del lo, hi, a

    # vr, vp, vm: the top 64 bits of X, X + 2T and X - 2T (X - T if narrow), top plus the
    # carry out of col, col + c3 and col - c3.  With the bits left out those sums gain a to
    # b (0 to 3, 0 to 4 and -1 to 3), so the carry is in doubt if ((sum + b) & LOW) < b - a.
    np.add(col, np.uint64(3), out=t)
    t &= _LOW
    doubt = t < 3
    vr = col >> np.uint64(32)
    vr += top
    np.add(col, c3, out=t)
    vp = t >> np.uint64(32)
    vp += top
    vp += c4
    t += np.uint64(4)
    t &= _LOW
    doubt |= t < 4
    if len(narrow):  # T = (2T) / 2
        c3[narrow] = c3[narrow] >> np.uint64(1) | (c4[narrow] & np.uint64(1)) << np.uint64(31)
        c4[narrow] >>= np.uint64(1)
    vm = t.view(np.int64)
    np.subtract(col.view(np.int64), c3.view(np.int64), out=vm)
    np.add(vm, 3, out=col.view(np.int64))
    col &= _LOW
    doubt |= col < 4
    vm >>= 32  # a floor: the borrow is -1
    vm += top.view(np.int64)
    vm = vm.view(np.uint64)
    vm -= c4
    general |= doubt
    del t, col, top, c4, doubt
    if len(big):
        vp[big] -= excluded

    # drop r digits, the most that leave a multiple of 10**r in (vm, vp]: with 10**(s-1) <=
    # vp - vm < 10**s that is s - 1, or s plus the zero digits of vp above its last s when
    # those s are below vp - vm (vp - vm is 14 to 402 unless general, so s is 2 or 3)
    d = np.subtract(vp, vm, out=c3)
    s3 = d >= 100  # else s = 2
    w = vp // np.uint64(100)  # numpy divides by a scalar faster than by an array
    np.copyto(w, w // np.uint64(10), where=s3)
    p = np.where(s3, np.uint64(1000), np.uint64(100))
    p *= w
    vp -= p
    below = vp < d
    del vp, d, p
    r = s3.astype(np.intp)
    r += below
    r += 1
    (more,) = np.nonzero(np.greater(below, general, out=below))
    del s3, below
    w = w.take(more)
    for _ in range(2):  # count the zeros, a digit a pass over the values still ending in 0
        q = w // np.uint64(10)
        (zero,) = np.nonzero(q * np.uint64(10) == w)
        more, w = more.take(zero), q.take(zero)
        r[more] += 1
    if len(more):  # then, at once, the rest of the few (short decimals): w < 10**14
        r[more] += np.count_nonzero(w[:, None] % _P10[1:14] == 0, axis=1)
    p = _P10.take(r, mode="clip")
    n = p >> np.uint64(1)  # round half up
    n += vr
    del vr
    n //= p
    p *= n
    n += p <= vm  # or stay above vm
    return n, _TABLE[4].view(np.int64).take(biased, mode="clip") + r, general


def _float_cells(x):
    """Cells of repr of doubles x, from Ryū's digits n * 10**e: digits, a point, and e+XX or
    e-XX outside 10**-4 <= |x| < 10**16; and the mask of the general values, whose cells
    are to be overwritten."""
    n, e, general = _shortest(x)
    np.copyto(n, 1, where=general)  # a general value sizes no column
    np.copyto(e, 0, where=general)
    length = _lengths(n)
    point = e
    point += length  # |x| = 0.digits * 10**point
    low, high = int(np.minimum.reduce(point, initial=1)), int(np.maximum.reduce(point, initial=1))
    exp = 0 if -4 < low and high <= 16 else 1 + (low <= -99 or high >= 101)
    if exp:
        fixed = (point + 3).view(np.uint64) < 20  # -4 < point <= 16
        before = np.where(fixed, point, 1)  # digits before the point; "0" stands for <= 0
        point += 323  # the exponent's row
        np.copyto(point, len(_EXPONENTS) - 1, where=fixed)
        del fixed
    else:
        before = point
    after = length
    after -= before  # > 0 if fixed: an integer is general
    # words of the integer digits, with a NUL for the sign; of the fraction, with one for
    # the point; and of the exponent
    i = int(np.maximum.reduce(before, initial=1)) // 4 + 1
    f = int(np.maximum.reduce(after, initial=0)) // 4 + 1
    out = np.empty((len(x), i + f + exp), dtype=np.uint32)
    if exp:
        out[:, i + f:] = _EXPONENTS.take(point, mode="clip").view(np.uint32).reshape(-1, 2)[:, :exp]
    del point, length
    scale = _P10.take(after, mode="clip")  # n < 10**17
    head = n // scale
    n -= np.multiply(scale, head, out=scale)
    del scale
    _digits(out[:, :i], head, np.maximum(before, 1, out=before))
    del head, before
    _digits(out[:, i:i + f], n, after)
    out[:, i] |= (after > 0) * _POINT
    out[:, 0] |= (x < 0) * _MINUS
    return out.view(np.uint8), general


def _int_cells(v):
    """Cells of str of each integer in v."""
    negative = v < 0
    mag = v.astype(np.uint64)  # two's complement of a negative value
    mag = np.where(negative, 0 - mag, mag)
    length = _lengths(mag)
    out = np.empty((len(v), int(np.maximum.reduce(length, initial=0)) // 4 + 1), dtype=np.uint32)
    _digits(out, mag, np.maximum(length, 1, out=length))
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
    out, general = _float_cells(x)
    (rest,) = np.nonzero(general)
    if len(rest):  # one batched repr
        text = np.array(list(map(repr, x[rest].tolist())), dtype=bytes)
        if text.itemsize > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.itemsize - out.shape[1])))
        out[rest] = 0
        out[rest, :text.itemsize] = text.view(np.uint8).reshape(len(rest), -1)
    return out


def _joined(columns):
    """Yield the ASCII CSV text of a block of columns, each None and its entries, or its
    source's cells as void items and its index into them, _ROWS rows at a time: the rows'
    cells, commas and line ends, less NULs."""
    if len({len(rows) for _, rows in columns}) > 1:
        raise ValueError("adkyle._shortest: a block's columns differ in length")
    by_dtype = {}  # the entries to print, one `cells` call a dtype (a fixed ~0.15 ms each)
    for j, (text, rows) in enumerate(columns):
        if text is None:
            by_dtype.setdefault(rows.dtype, []).append(j)
    columns = [rows if text is None else text[rows] for text, rows in columns]
    for js in by_dtype.values():
        text = cells(np.concatenate([columns[j] for j in js]))
        for j, part in zip(js, text.view(f"V{text.shape[1]}").reshape(len(js), -1)):
            columns[j] = part
    n, width = len(columns[0]), sum(text.itemsize + 1 for text in columns) + 1
    for start in range(0, n, _ROWS):  # a bounded buffer, its text written before the next
        data = bytearray(min(_ROWS, n - start) * width)
        out, at = np.frombuffer(data, dtype=np.uint8).reshape(-1, width), 0
        for text in columns:
            out[:, at:at + text.itemsize].view(text.dtype)[:, 0] = text[start:start + _ROWS]
            out[:, at + text.itemsize] = ord(",")
            at += text.itemsize + 1
        out[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
        del out
        yield data.translate(None, b"\0")


def table(columns, cuts, budget: int, rows_of):
    """Yield the ASCII CSV text of each block of a table of numeric arrays cut at `cuts`, _ROWS
    rows at a time, whose entries of an array are `rows_of(array, start, stop)`.  A column
    that broadcasts a source (the array less its stride-0 axes) of at most `budget` values
    prints it once, and each block takes its cells through a broadcast index view; other
    columns print their entries."""
    texts, columns = {}, list(columns)  # column number -> the cells of its source
    for j, column in enumerate(columns):
        source = column[tuple(slice(None if stride else 1) for stride in column.strides)]
        if source.size < column.size and source.size <= budget:
            text = cells(source.reshape(-1))
            texts[j] = text.view(f"V{text.shape[1]}")[:, 0]
            columns[j] = np.broadcast_to(np.arange(source.size).reshape(source.shape), column.shape)
    for start in cuts:  # a block's text is freed once written, before the next is printed
        yield from _joined([(texts.get(j), rows_of(column, start, start + cuts.step))
                            for j, column in enumerate(columns)])
