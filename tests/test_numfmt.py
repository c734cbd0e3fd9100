from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from dimalg.numfmt import MAX_DIGITS, _floor_log10, format_rational, int_str, round_half_even


class TestRoundHalfEven:
    @pytest.mark.parametrize(
        "x,expect",
        [
            (F(1, 2), 0),
            (F(3, 2), 2),
            (F(5, 2), 2),
            (F(-1, 2), 0),
            (F(-3, 2), -2),
            (F(7, 3), 2),
            (F(8, 3), 3),
        ],
    )
    def test_ties_to_even(self, x, expect):
        assert round_half_even(x) == expect

    @given(st.fractions(min_value=-1000, max_value=1000))
    def test_within_half(self, x):
        n = round_half_even(x)
        assert abs(F(n) - x) <= F(1, 2)


class TestFormatRational:
    @pytest.mark.parametrize(
        "x,digits,expect",
        [
            (F(3, 43), 2, "0.070"),
            (F(43, 10), 4, "4.300"),
            (F(180, 43), 4, "4.186"),
            (F(0), 4, "0"),
            (F(1, 3), 4, "0.3333"),
            (F(2, 3), 4, "0.6667"),
            (F(-43, 10), 4, "-4.300"),
            (F(12345), 4, "12340"),  # tie goes to the even 1234
            (F(9999, 10), 2, "1000"),
            (F(1, 600000), 4, "0.000001667"),
            (F(100), 4, "100.0"),
            (F(1), 1, "1"),
            (F(25, 10), 1, "2"),
            (F(35, 10), 1, "4"),
        ],
    )
    def test_goldens(self, x, digits, expect):
        assert format_rational(x, digits) == expect

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            format_rational(F(1), 0)

    def test_rejects_digits_beyond_the_limit(self):
        assert len(format_rational(F(1, 3), MAX_DIGITS)) == MAX_DIGITS + 2
        with pytest.raises(ValueError, match=f"between 1 and {MAX_DIGITS}"):
            format_rational(F(1), MAX_DIGITS + 1)

    @given(st.fractions(min_value=F(1, 10000), max_value=10000), st.integers(1, 6))
    def test_formatting_already_rounded_is_idempotent(self, x, digits):
        once = format_rational(x, digits)
        assert format_rational(F(once), digits) == once


def _decimal_floor_log10(x: F) -> int:
    """The exponent of x's leading digit: a quotient rounded toward zero
    stays within the decade of the exact one."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 30, ROUND_FLOOR
        return (Decimal(x.numerator) / Decimal(x.denominator)).adjusted()


class TestFloorLog10:
    @given(st.integers(1, 2**5000), st.integers(1, 2**5000))
    def test_matches_a_decimal_oracle(self, n, d):
        for x in (F(n, d), F(n), F(1, d)):
            assert _floor_log10(x) == _decimal_floor_log10(x)

    @pytest.mark.parametrize("k", [1, 2, 7, 300, 5000])
    def test_next_to_powers_of_ten(self, k):
        for x in (F(10**k), F(10**k - 1), F(10**k + 1), F(10**k, 10**k - 1)):
            for y in (x, 1 / x):
                assert _floor_log10(y) == _decimal_floor_log10(y)


class TestIntStr:
    @pytest.mark.parametrize("n", [
        0, 7, -12, 10**1204, 2**4000, 2**4001, 10**4300 - 1, 10**5000, -(99999**1000), 3**30000,
    ], ids=lambda n: f"{n.bit_length()}-bits")
    def test_digits_beyond_the_str_limit(self, n):
        # Decimal converts integers without the 4300-digit limit
        assert int_str(n) == str(Decimal(n))
