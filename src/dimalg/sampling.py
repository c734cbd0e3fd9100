"""Random draws for the `sample` methods, the tests' input API; no suite draws.

Everything draws from small exact rationals / integers so equality checks
stay bit-exact and witnesses stay readable.
"""

import random
from fractions import Fraction


def rand_fraction(rng: random.Random) -> Fraction:
    """n/d with -9 <= n <= 9 and 1 <= d <= 9."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        f = rand_fraction(rng)
        if f != 0:
            return f


def rand_int_vector(rng: random.Random, k: int) -> tuple:
    """k integers from -3 to 3."""
    return tuple(rng.randint(-3, 3) for _ in range(k))
