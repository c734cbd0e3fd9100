"""Exact decimal rendering of rationals.

All arithmetic is integer-based; floats never appear, so goldens are
reproducible bit for bit.
"""

from fractions import Fraction

# Rendering builds 10^digits exactly, at a cost that grows faster than
# linearly in `digits`.
MAX_DIGITS = 100_000


def int_str(n: int) -> str:
    """str(n) for an integer of any length: str() refuses more than 4300
    digits, so a long integer is split at a power of ten and joined."""
    if n < 0:
        return "-" + int_str(-n)
    if n.bit_length() <= 4000:  # at most 1205 digits
        return str(n)
    m = n.bit_length() * 3 // 20  # about half of its digits
    hi, lo = divmod(n, 10**m)
    return int_str(hi) + int_str(lo).zfill(m)


def fraction_str(x: Fraction) -> str:
    """str(x) for a rational of any length."""
    if x.denominator == 1:
        return int_str(x.numerator)
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def round_half_even(x: Fraction) -> int:
    """Nearest integer to x, ties going to the even neighbour."""
    q, r = divmod(x.numerator, x.denominator)
    twice = 2 * r
    if twice > x.denominator or (twice == x.denominator and q % 2 == 1):
        q += 1
    return q


def _floor_log10(x: Fraction) -> int:
    """floor(log10(x)) for x > 0, computed exactly: the difference of the
    bit lengths times log10(2) is within one of it, and comparisons with
    powers of ten settle it."""
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    while x < Fraction(10) ** e:
        e -= 1
    while x >= Fraction(10) ** (e + 1):
        e += 1
    return e


def format_rational(x: Fraction, digits: int = 4) -> str:
    """Render x with exactly `digits` significant digits (half-even ties).

    Trailing zeros are kept so the digit count is visible in the output:
    Fraction(43, 10) at 4 digits renders as "4.300".
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be between 1 and {MAX_DIGITS}")
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    mag = -x if x < 0 else x
    e = _floor_log10(mag)
    scaled = mag * Fraction(10) ** (digits - 1 - e)
    n = round_half_even(scaled)
    if n == 10**digits:  # rounding bumped into the next decade
        n //= 10
        e += 1
    s = int_str(n)
    int_len = e + 1
    if e >= 0:
        if int_len >= digits:
            body = s + "0" * (int_len - digits)
        else:
            body = s[:int_len] + "." + s[int_len:]
    else:
        body = "0." + "0" * (-e - 1) + s
    return sign + body
