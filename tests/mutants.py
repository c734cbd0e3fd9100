"""Operator mutants: rings each built to break a law that a suite claims.

Every class keeps its parent's `slots()`, so a suite that decides on the
slot rule meets the mutant on its decided cases.
"""

from fractions import Fraction

from dimalg import ProductDimRing


class OffByOne(ProductDimRing):
    """Slice addition plus one: the product no longer distributes."""

    def add(self, a, b):
        total = super().add(a, b)
        return self.element(total.value + 1, total.dim)


class DoubledProduct(ProductDimRing):
    """Doubles every product: 1 is no longer neutral."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return self.element(2 * out.value, out.dim)


class ZeroTimesTwoIsOne(ProductDimRing):
    """0·2 = 1, every other product exact: random rationals rarely meet it."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return self.element(Fraction(1), out.dim) if (a.value, b.value) == (0, 2) else out


class DifferentHalvesAddOne(ProductDimRing):
    """Adds 1 to a sum of two different values with denominator 2."""

    def add(self, a, b):
        total = super().add(a, b)
        halves = Fraction(a.value).denominator == Fraction(b.value).denominator == 2
        if halves and a.value != b.value:
            return self.element(total.value + 1, total.dim)
        return total
