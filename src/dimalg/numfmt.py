"""Exact decimal rendering of rationals.

Every step works on a rational's numerator and denominator as integers:
the decade search, the scaling to the wanted digits and the half-even
rounding.  Floats never appear, so goldens are reproducible bit for bit.
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


def round_half_even(n: int, d: int) -> int:
    """Nearest integer to n/d for d > 0, ties going to the even neighbour."""
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    return q


def _floor_log10(x: Fraction) -> int:
    """floor(log10(x)) for x > 0, computed exactly: the difference of the
    bit lengths times log10(2) is within one of it, and comparisons with
    powers of ten settle it."""
    n, d = x.numerator, x.denominator
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    # x < 10^k exactly when n·10^max(-k, 0) < d·10^max(k, 0)
    while n * 10 ** max(-e, 0) < d * 10 ** max(e, 0):
        e -= 1
    while n * 10 ** max(-e - 1, 0) >= d * 10 ** max(e + 1, 0):
        e += 1
    return e


def format_rational(x: Fraction, digits: int = 4) -> str:
    """Render x with exactly `digits` significant digits (half-even ties).

    Trailing zeros are kept so the digit count is visible in the output:
    Fraction(43, 10) at 4 digits renders as "4.300".  The magnitude n/d is
    scaled by 10^(digits - 1 - e), e its decade, on the numerator or the
    denominator, and the quotient of the two integers rounded.
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be between 1 and {MAX_DIGITS}")
    n, d = x.numerator, x.denominator
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    n = abs(n)
    e = _floor_log10(abs(x))
    k = digits - 1 - e
    if k >= 0:
        n *= 10**k
    else:
        d *= 10**-k
    n = round_half_even(n, d)
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
