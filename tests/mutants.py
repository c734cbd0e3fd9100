"""Operator mutants: rings each built to break a law that a suite claims.

Every class but `ProbedLargeProductPlusOne` keeps its parent's `slots()`,
so a suite that decides on the slot rule meets the mutant on its decided
cases; that one gives no slots, so its suite probes.  The kinds so far:
product rings Q x M, then endomorphism rings Endo(Q x Z/n), then ring
morphisms, built by a function rather than a class.
`tests/test_mutants.py` pins the laws each one FAILs.
"""

import math
from fractions import Fraction

from dimalg import EndoRing, ProductDimRing, RingMorphism
from dimalg.core import DimElement

# ---------------------------------------------------------------------------
# Product rings
# ---------------------------------------------------------------------------


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


class FloorSumProduct(ProductDimRing):
    """Q x Z/2 whose sums round negative non-integers down in the slices
    `floored`."""

    floored = (0, 1)

    def add(self, a, b):
        s = super().add(a, b)
        if s.value < 0 and s.dim in self.floored:
            return DimElement(Fraction(math.floor(s.value)), s.dim)
        return s


class FloorSliceOneSum(FloorSumProduct):
    """Rounds down in slice 1 alone, away from the identity slice."""

    floored = (1,)


class OddEvenDoubledProduct(ProductDimRing):
    """Q x Z/2 whose product doubles only when a lies over 1 and b over 0:
    no cocycle twist, so not a ring."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return DimElement(2 * out.value, out.dim) if (a.dim, b.dim) == (1, 0) else out


class LargeProductPlusOne(ProductDimRing):
    """Adds 1 to a product above 100 in magnitude: no product of two slot
    values gets there, so the slot rule misses it."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return DimElement(out.value + 1, out.dim) if abs(out.value) > 100 else out


class ProbedLargeProductPlusOne(LargeProductPlusOne):
    """The same ring without the slot rule's data: its suite probes."""

    def slots(self):
        return None


# ---------------------------------------------------------------------------
# Endomorphism rings
# ---------------------------------------------------------------------------


class OwnMapMul(EndoRing):
    """Reads a's coefficients through a's own map instead of b's."""

    def mul(self, a, b):
        coeffs = tuple(a.value[self.index[a.dim[i]]] * b.value[i] for i in range(len(self.points)))
        return DimElement(coeffs, self.dims.combine(a.dim, b.dim))


class SwappedOrderMul(EndoRing):
    """Composes the dimension maps in the wrong order."""

    def mul(self, a, b):
        return DimElement(super().mul(a, b).value, self.dims.combine(b.dim, a.dim))


class SquareAcrossMaps(EndoRing):
    """Squares a's coefficients when the two dimension maps differ."""

    def mul(self, a, b):
        if a.dim != b.dim:
            a = DimElement(tuple(x * x for x in a.value), a.dim)
        return super().mul(a, b)


class WrongSlotMul(EndoRing):
    """Reads b's coefficients through b's own map: b(psi(i)) for b(i)."""

    def mul(self, a, b):
        coeffs = tuple(a.value[self.index[b.dim[i]]] * b.value[self.index[b.dim[i]]]
                       for i in range(len(self.points)))
        return DimElement(coeffs, self.dims.combine(a.dim, b.dim))


class ProductForSumEndo(EndoRing):
    """Multiplies the coefficients where it should add them."""

    def add(self, a, b):
        total = super().add(a, b)  # keeps the equal-map check
        return DimElement(tuple(x * y for x, y in zip(a.value, b.value)), total.dim)


class FloorEndo(EndoRing):
    """Composes, then floors each coefficient: exact on integers only."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return DimElement(tuple(Fraction(math.floor(c)) for c in out.value), out.dim)


class ThresholdMapMul(EndoRing):
    """Composes the maps only where a's first coefficient is negative: a sum
    of two compositions can then meet two maps."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return out if a.value[0] < 0 else DimElement(out.value, a.dim)


class FloorOffConstantMaps(EndoRing):
    """Composes, then floors each coefficient unless b's map is constant."""

    def mul(self, a, b):
        out = super().mul(a, b)
        if len(set(b.dim)) == 1:
            return out
        return DimElement(tuple(Fraction(math.floor(c)) for c in out.value), out.dim)


class UncheckedAdd(EndoRing):
    """Adds coefficients whatever the two dimension maps are."""

    def add(self, a, b):
        return DimElement(tuple(x + y for x, y in zip(a.value, b.value)), a.dim)


class SquaredRightFactor(EndoRing):
    """Composes with b's coefficients squared: linear in a, not in b, so
    only the right distributive law fails."""

    def mul(self, a, b):
        return super().mul(a, DimElement(tuple(x * x for x in b.value), b.dim))


class LeftHeavyEndo(EndoRing):
    """Endo(Q x Z/2) whose sum counts the left summand's first coefficient twice."""

    def add(self, a, b):
        c = super().add(a, b).value
        return DimElement((c[0] + a.value[0],) + c[1:], a.dim)


# ---------------------------------------------------------------------------
# Ring morphisms
# ---------------------------------------------------------------------------


def large_value_plus_one(ring):
    """A map of a product ring onto itself that adds 1 to each value above
    100 in magnitude: the identity on every value a draw n/d with |n|, d
    at most 9 gives."""

    def fn(a):
        return DimElement(a.value + 1, a.dim) if abs(a.value) > 100 else a

    return RingMorphism(ring, ring, lambda d: d, fn, "plus-one-past-100")
