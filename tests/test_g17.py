"""The vectorized "%.17g" is `b"%.17g" % x` byte for byte, and each boundary
case takes the path it should: the exact fast path or the fallback."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim.g17 import FAST_MAX, FAST_MIN, WIDTH, fast_path, format_g17


def _texts(x) -> list:
    """format_g17's rows of x, each without its NULs."""
    out = format_g17(x)
    assert out.shape == (np.size(x), WIDTH)
    return np.hstack([out, np.full((len(out), 1), ord("\n"), np.uint8)]
                     ).tobytes().translate(None, b"\0").split(b"\n")[:-1]


def _reference(x) -> list:
    return [b"%.17g" % v for v in np.asarray(x, dtype=np.float64).ravel().tolist()]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_equals_percent_format_on_floats(values):
    assert _texts(values) == _reference(values)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_equals_percent_format_on_bit_patterns(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _texts(x) == _reference(x)


def test_equals_percent_format_on_many_values():
    # seeded batches: any bit pattern, and values over 60 decades, 43 of
    # them in the fast path's range
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, 30_000, dtype=np.uint64).view(np.float64)
    decades = rng.uniform(-1, 1, 30_000) * 10.0 ** rng.uniform(-30, 30, 30_000)
    for x in (bits, decades):
        assert _texts(x) == _reference(x)
    assert fast_path(decades)[1].mean() > 0.6


def _scaled_exactly(x: float) -> Fraction:
    """|x|·10^s exactly, for s = 16 - floor(log10|x|) as the fast path takes it."""
    s = 16 - int(np.floor(np.log10(abs(x))))
    return abs(Fraction(x)) * 10 ** s


class TestBoundaryCases:
    @pytest.mark.parametrize("x, text", [
        # 10^16 + 2.5 and 10^16 + 7.5 at s = 1: the 17th digit rounds half
        # to even, down and up
        (1e15 + 0.25, b"1000000000000000.2"),
        (1e15 + 0.75, b"1000000000000000.8"),
    ])
    def test_a_tie_takes_the_fallback(self, x, text):
        assert FAST_MIN <= x < FAST_MAX
        assert _scaled_exactly(x).denominator == 2
        assert not fast_path(np.array([x]))[1][0]
        assert _texts([x]) == [text]

    def test_log10_overshooting_below_a_power_of_ten_takes_the_fallback(self):
        # the double 1e-12 lies below 10^-12, but log10 rounds to -12, so its
        # scaled integer part has 16 digits
        x = 1e-12
        assert Fraction(x) < Fraction(1, 10 ** 12) and np.log10(x) == -12
        assert _scaled_exactly(x) < 10 ** 16
        assert not fast_path(np.array([x]))[1][0]
        assert _texts([x]) == [b"9.9999999999999998e-13"]

    def test_a_round_up_to_ten_to_the_17_takes_the_fallback(self):
        # the double 1e-14 lies below 10^-14 by less than half a unit in the
        # 17th digit, so "%.17g" rounds it up to 1e-14
        x = 1e-14
        assert Fraction(x) < Fraction(1, 10 ** 14)
        assert not fast_path(np.array([x]))[1][0]
        assert _texts([x]) == [b"1e-14"]

    @pytest.mark.parametrize("x, text, fast", [
        # the switch from the fixed to the exponent form below 1e-4
        (1e-4, b"0.0001", True),
        (-0.000123, b"-0.00012300000000000001", True),
        (1e-5, b"1.0000000000000001e-05", True),
        (9.87654321e-5, b"9.8765432099999994e-05", True),
        # and at 1e17, above the fast path
        (4e15 + 0.5, b"4000000000000000.5", True),
        (1e16, b"10000000000000000", False),
        (1e16 + 2, b"10000000000000002", False),
        (1e17, b"1e+17", False),
        # small ends of the fast path's range
        (FAST_MIN, b"1e-27", True),
        (1e-28, b"9.9999999999999997e-29", False),
    ])
    def test_fixed_and_exponent_forms(self, x, text, fast):
        assert fast_path(np.array([x]))[1][0] == fast
        assert _texts([x]) == [text]

    @pytest.mark.parametrize("x, text", [
        (5e-324, b"4.9406564584124654e-324"),
        (2.2250738585072009e-308, b"2.2250738585072009e-308"),
        (0.0, b"0"),
        (-0.0, b"-0"),
        (float("nan"), b"nan"),
        (float("inf"), b"inf"),
        (float("-inf"), b"-inf"),
        (1.7976931348623157e308, b"1.7976931348623157e+308"),
        (-1.7976931348623157e308, b"-1.7976931348623157e+308"),
    ])
    def test_special_values_take_the_fallback(self, x, text):
        assert not fast_path(np.array([x]))[1][0]
        assert _texts([x]) == [text]

    def test_trailing_zeros_and_the_point(self):
        x = [1.0, 10.0, 100.5, -2.5, 0.5, 123456789.0, 0.001, 2.0 ** -20, 1234567890123456.0]
        assert fast_path(np.array(x))[1].all()
        assert _texts(x) == [b"1", b"10", b"100.5", b"-2.5", b"0.5", b"123456789", b"0.001",
                             b"9.5367431640625e-07", b"1234567890123456"]
