"""The vectorized printer: the bytes of repr(float(v)) and str(v), value by value."""

import tracemalloc

import numpy as np

from adkyle._shortest import cells


def _lines(values) -> bytes:
    """The printer's text of each value, one a line: its cells less their NULs."""
    text = cells(values)
    return np.concatenate([text, np.full((len(text), 1), ord("\n"), dtype=np.uint8)],
                          axis=1).tobytes().translate(None, b"\0")


def _assert_reprs(values) -> None:
    with np.errstate(invalid="ignore"):  # a signalling NaN raises the flag as it widens
        expected = "".join(f"{v!r}\n" for v in values.astype(np.float64).tolist()).encode()
    got = _lines(values)
    if got != expected:
        pairs = zip(got.decode().splitlines(), expected.decode().splitlines())
        wrong = [(g, e) for g, e in pairs if g != e]
        raise AssertionError(f"{len(wrong)} values printed unlike repr, e.g. {wrong[:5]}")


def test_random_bit_patterns_print_as_repr():
    # a million doubles of random bits: every exponent, subnormals, NaN payloads of either
    # sign and +-inf among them (one in 2,048 has an exponent of all ones)
    rng = np.random.default_rng(20181)
    for _ in range(8):
        bits = rng.integers(0, 2**64, 131_072, dtype=np.uint64, endpoint=False)
        bits[:4] = [0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000001,
                    0xFFF0000000000007]  # +inf, -inf, two NaNs with payloads
        _assert_reprs(bits.view(np.float64))


def test_powers_of_two_and_ten_and_their_neighbours_print_as_repr():
    powers = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in
                                                              range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    edges = np.array([1e-5, 1e-4, 9999999999999998.0, 1e16, 0.0, -0.0, np.inf, -np.inf,
                      np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    _assert_reprs(np.concatenate([values, -values, edges]))


def test_exact_scaled_values_print_as_repr():
    # Ryu's general case: integer-valued doubles and short dyadic fractions, whose scaled
    # value is exact, and the digits at the ends of the fixed-point range
    rng = np.random.default_rng(7)
    values = np.concatenate([
        np.arange(-3000, 3000) / 8.0,
        rng.integers(-2**53, 2**53, 20_000).astype(np.float64),
        rng.integers(1, 2**20, 20_000) / 2.0**rng.integers(1, 40, 20_000),
        np.round(rng.standard_normal(20_000), 3) * 10.0**rng.integers(-6, 18, 20_000),
    ])
    _assert_reprs(values)


def test_short_decimals_print_as_repr_at_every_count_of_zeros():
    # doubles read from m e k, m of 1-17 significant digits and then 0-16 zeros, so that
    # the digits Ryu drops end in every count of zeros, at exponents across the range
    rng = np.random.default_rng(47)
    text = []
    for digits in range(1, 18):
        for zeros in range(17):
            for _ in range(24):
                m = int(rng.integers(10 ** (digits - 1), 10**digits))
                m += int(rng.integers(1, 10)) - m % 10  # the last digit is not 0
                k = int(rng.integers(-323 - digits, 309 - digits - zeros))
                text.append(f"{'-' if rng.integers(2) else ''}{m}{'0' * zeros}e{k}")
    values = np.array([float(t) for t in text])
    _assert_reprs(values[values != 0])


def test_doubles_whose_carry_the_printer_cannot_settle_print_as_repr():
    # integer-valued doubles of 2**61 to 2**78, most not divisible by the power of 5 Ryu
    # divides by: the bits of the scaled value that the printer sums leave its carry in doubt
    # for many
    # (about 1 in 1,100 of them would print a wrong digit if it were guessed)
    rng = np.random.default_rng(61)
    values = np.ldexp(rng.integers(2**52, 2**53, 200_000).astype(np.float64),
                      rng.integers(9, 25, 200_000))
    _assert_reprs(np.concatenate([values, -values]))


def test_a_float_cells_call_holds_at_most_120_bytes_a_value():
    # the tracemalloc peak of a call grows by at most 120 bytes a value: the 5,461 random
    # doubles of a CSV block, then the same doubles twice (so that both have the same width)
    x = np.random.default_rng(5461).standard_normal(5_461)

    def peak(values) -> int:
        cells(values)  # first-call allocations
        tracemalloc.start()
        try:
            cells(values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(np.concatenate([x, x])) - peak(x)) / len(x) <= 120


def test_narrow_floats_print_as_the_double_they_widen_to():
    for dtype in (np.float16, np.float32):
        width = np.dtype(dtype).itemsize
        bits = np.arange(2**16, dtype=np.uint64) * (1 if width == 2 else 65_537)
        _assert_reprs(bits.astype(f"u{width}").view(dtype))
    _assert_reprs(np.array([0.1, -2.5, np.nan, 1e300], dtype=">f8"))


def test_integers_and_bools_print_as_str():
    for values in (np.array([-2**63, 2**63 - 1, 0, -1, 10**18, -10**18 - 7], dtype=np.int64),
                   np.array([0, 2**64 - 1, 10**19, 9], dtype=np.uint64),
                   np.arange(-128, 128, dtype=np.int8), np.array([True, False, True])):
        assert _lines(values) == "".join(f"{v}\n" for v in values.tolist()).encode()
