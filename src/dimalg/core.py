"""The calculator's core: a quantity in Q x Z^k and the classes it is made of.

`DimElement`, the `Carrier` base and `Rationals`, the `DimRing` base with
its `Slots`, `ProductDimRing` (Q x D, computed on Fractions), and `Line`,
`Factor` and `PowerRing` are defined here and re-exported by `group`,
`carriers`, `ring` and `lines`.
`registry` needs only this module, so `eval` and `convert` load no law
suite, carrier presentation or linear algebra.

Records: a module a command loads defines records as `NamedTuple`s or
slotted classes; a frozen dataclass `exec`s each method at import, and
every command would pay for it.  Records made on the calculator's hot
path (the parser's tokens and tree nodes, `registry.Quantity`) are built
with `tuple.__new__(Cls, (...))`, which skips the NamedTuple's generated
Python `__new__`.
"""

import itertools
import operator
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import NamedTuple

from .errors import CarrierError, DimensionMismatch
from .monoid import DimMonoid


class DimElement:
    """A value tagged with its dimension; the atom of every dimensioned structure.

    Frozen, equal only to another DimElement, and hashed as (value, dim).
    A structure's elements are canonical, so every law compares them with
    `==`: equal exactly when their dimensions and values are.
    Not a tuple: monoids and carriers tell a dimension by `isinstance(x, tuple)`."""

    __slots__ = ("value", "dim")

    def __init__(self, value, dim):
        _set_value(self, value)
        _set_dim(self, dim)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dim == other.dim and self.value == other.value
        return NotImplemented

    def __ne__(self, other):  # the laws' usual test: spares `!=` a second dispatch to __eq__
        if other.__class__ is self.__class__:
            return self.dim != other.dim or self.value != other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.dim))

    def __reduce__(self):
        return DimElement, (self.value, self.dim)

    def __repr__(self):
        return f"DimElement(value={self.value!r}, dim={self.dim!r})"

    def __str__(self):
        return f"{self.value} @ {self.dim}"


_set_value, _set_dim = DimElement.value.__set__, DimElement.dim.__set__


def _units(k):
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


class Carrier(ABC):
    """An abelian group that can serve as a dimension slice, presented on
    its generators."""

    @abstractmethod
    def orders(self) -> tuple:
        """Per generator: None when its coefficient ranges over Q, 0 over
        Z, and n over Z/n."""

    @abstractmethod
    def coords(self, v) -> tuple:
        """The coefficients of v on `generators()`."""

    @abstractmethod
    def from_coords(self, c):
        """The element with coefficients c, each reduced by its order."""

    @abstractmethod
    def contains(self, v) -> bool: ...

    def zero(self):
        return self.from_coords((0,) * len(self.orders()))

    def add(self, a, b):
        return self.from_coords(tuple(map(operator.add, self.coords(a), self.coords(b))))

    def neg(self, a):
        return self.from_coords(tuple(-x for x in self.coords(a)))

    def int_mul(self, n, v):
        """n·v; n may be rational where the coefficients it meets are
        rational or 0."""
        c = self.coords(v)
        if n % 1 and any(x for x, m in zip(c, self.orders()) if m is not None):
            raise CarrierError(f"{n}·{v!r}: a non-integer multiple in {self}")
        return self.from_coords(tuple(n * x for x in c))

    def generators(self) -> tuple:
        """A spanning set: an additive map is determined by its values here."""
        return tuple(map(self.from_coords, _units(len(self.orders()))))

    def elements(self):
        """All elements when finite, else None."""
        orders = self.orders()
        if not all(orders):
            return None
        return tuple(map(self.from_coords, itertools.product(*map(range, orders))))

    def require(self, v):
        if not self.contains(v):
            raise CarrierError(f"{v!r} is not an element of {self}")


class Rationals(Carrier):
    """The group Q.  Every instance is equal to every other, and hashes alike."""

    def __eq__(self, other):
        return other.__class__ is self.__class__ or NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self):
        return "Rationals()"

    def orders(self):
        return (None,)

    def coords(self, v):
        return (v,)

    def from_coords(self, c):
        return Fraction(c[0])

    def contains(self, v):
        return isinstance(v, (Fraction, int))

    def __str__(self):
        return "Q"


class Slots(NamedTuple):
    dims: tuple  # the slot dimensions
    distinct: tuple  # one value per factor, at every slot dimension
    families: tuple  # (values, dimensions, dimensions within one slice) per family


class DimRing(ABC):
    """Protocol every concrete dimensioned ring implements.

    Elements are DimElement values; `value` encodings are ring-specific.
    Each element has one encoding, its canonical form, so two elements are
    equal, `==`, exactly when their values and dimensions are.
    `dims` is the dimension monoid.
    """

    dims: DimMonoid
    commutative: bool = True
    is_field: bool = False
    label: str = "ring"
    unit_candidate: dict | None = None  # dimension -> element, a unit section to check

    # -- additive structure (partial) -----------------------------------
    @abstractmethod
    def add(self, a: DimElement, b: DimElement) -> DimElement: ...

    @abstractmethod
    def neg(self, a: DimElement) -> DimElement: ...

    @abstractmethod
    def zero(self, d) -> DimElement: ...

    # -- multiplicative structure (total) -------------------------------
    @abstractmethod
    def mul(self, a: DimElement, b: DimElement) -> DimElement: ...

    @property
    @abstractmethod
    def one(self) -> DimElement: ...

    # -- probing ---------------------------------------------------------
    def probe_dims(self) -> tuple:
        return self.dims.probe_words(2)

    def elements(self):
        """Every element, when the ring lists them; None otherwise."""
        return None

    def slots(self) -> Slots | None:
        """The slot rule's data (`ring` module docstring), or None: the default."""
        return None

    def probe_elements(self) -> tuple:
        """The elements every probed suite quantifies over, in one fixed order,
        from tuples and rationals: the ring's `elements()`, else its `slots()`
        data (each distinct value at each slot dimension, then each family's
        values where it runs within one slice); any other ring builds its own."""
        elems = self.elements()
        if elems is None:
            slots = self.slots()
            elems = [DimElement(v, d) for d in slots.dims for v in slots.distinct]
            for values, _, within in slots.families:
                elems += [DimElement(v, d) for d in within for v in values]
        return tuple(elems)

    # -- derived ----------------------------------------------------------
    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a: DimElement) -> bool:
        return a == self.zero(a.dim)

    def reciprocal(self, a: DimElement) -> DimElement:
        raise CarrierError(f"{self.label} has no reciprocals")

    def is_unit(self, a: DimElement) -> bool:
        try:
            self.reciprocal(a)
            return True
        except (CarrierError, ZeroDivisionError, DimensionMismatch):
            return False

    def pow(self, a: DimElement, n: int) -> DimElement:
        if n < 0:
            return self.pow(self.reciprocal(a), -n)
        out = self.one
        while n:  # square-and-multiply: O(log n) products
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return out

    def show(self, a: DimElement) -> str:
        return str(a)


class ProductDimRing(DimRing):
    """Q x D: the rationals times a dimension monoid, a dimensioned field
    when D is a group.

    Elements are (value, dimension) pairs: addition is slice-wise in the
    value, multiplication multiplies values and combines dimensions.  The
    values are rationals, as a field's dimensionless slice is Q in every
    field dimalg builds (`ring.units_trivialization`); `scalars` accepts
    `Rationals()` alone.
    """

    def __init__(self, scalars, monoid: DimMonoid, label: str = ""):
        if not isinstance(scalars, Rationals):
            raise CarrierError(f"a product ring is over Q, not over {scalars}")
        self.dims = monoid
        self.is_field = monoid.is_group
        self.label = label or f"Qx{monoid.kind}"

    def element(self, value, dim) -> DimElement:
        if not self.dims.contains(dim):
            raise CarrierError(f"unknown dimension {dim!r}")
        return DimElement(value, dim)

    def add(self, a, b):
        if a.dim != b.dim:
            raise DimensionMismatch(a.dim, b.dim, self.label)
        return DimElement(a.value + b.value, a.dim)

    def neg(self, a):
        return DimElement(-a.value, a.dim)

    def zero(self, d):
        return DimElement(Fraction(0), d)

    def mul(self, a, b):
        return DimElement(a.value * b.value, self.dims.combine(a.dim, b.dim))

    @property
    def one(self):
        return DimElement(Fraction(1), self.dims.identity)

    def reciprocal(self, a):
        if not self.is_field:
            raise CarrierError(f"{self.label} is not a dimensioned field")
        v = a.value
        if v == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return DimElement(Fraction(v.denominator, v.numerator), self.dims.inverse(a.dim))

    def slots(self):
        """DISTINCT, then COEFF_PROBES at the identity or in every slice."""
        from .ring import COEFF_PROBES, DISTINCT  # the slot rule's table: loaded on use

        dims = self.probe_dims()
        return Slots(dims, DISTINCT, ((COEFF_PROBES, (self.dims.identity,), dims),))

    def probe_elements(self):
        """Each of `PROBE_VALUES` (`ring`) over each probe dimension."""
        from .ring import PROBE_VALUES

        return tuple(DimElement(v, d) for d in self.probe_dims() for v in PROBE_VALUES)


class Line(NamedTuple):
    """A 1-dimensional rational vector space, identified by name only."""

    name: str


class Factor:
    """An invertible linear map between lines: a unit-free conversion factor.

    `scalar` is the coordinate of the image of the source reference basis.
    """

    def __init__(self, src: Line, dst: Line, scalar: Fraction):
        if scalar == 0:
            raise CarrierError("a factor must be invertible (nonzero)")
        self.src, self.dst, self.scalar = src, dst, scalar

    def compose(self, other: "Factor") -> "Factor":
        """self after other."""
        if other.dst != self.src:
            raise CarrierError("factors do not compose")
        return Factor(other.src, self.dst, self.scalar * other.scalar)

    @staticmethod
    def identity(line: Line) -> "Factor":
        return Factor(line, line, Fraction(1))


class PowerRing(ProductDimRing):
    """All tensor powers of an ordered system of lines: a dimensioned field
    over the exponent group Z^k.  Relative to the reference bases it is
    the product ring Q x Z^k, whose operations it inherits.

    Element encoding: value = rational coordinate, dim = exponent vector.
    """

    def __init__(self, lines):
        self.lines = tuple(lines)
        if not self.lines:
            raise CarrierError("a power ring needs at least one line")
        label = f"({','.join(l.name for l in self.lines)})^power"
        super().__init__(Rationals(), DimMonoid.free_abelian(len(self.lines)), label)

    @property
    def rank(self) -> int:
        return len(self.lines)

    def element(self, coord, exps) -> DimElement:
        exps = tuple(exps)
        if not self.dims.contains(exps):
            raise CarrierError(f"bad exponent vector {exps!r}")
        return DimElement(Fraction(coord), exps)

    def scalar(self, coord) -> DimElement:
        """An element of the scalar slice (all exponents zero); a Fraction
        coordinate is kept as it is."""
        if type(coord) is not Fraction:
            coord = Fraction(coord)
        return DimElement(coord, self.dims.identity)

    # tensor multiplication in coordinates: the six even/odd/mixed power
    # cases all reduce to coordinate product + exponent sum under the
    # pairing normalization
    odot = ProductDimRing.mul

    def pow(self, a, n):
        """a^n in one step: the coordinate raised to n, the exponents times n."""
        if n < 0:
            return self.pow(self.reciprocal(a), -n)
        if not self.dims.contains(a.dim):
            raise CarrierError(f"bad exponent vector {a.dim!r}")
        return DimElement(a.value**n, tuple([n * e for e in a.dim]))

    def show(self, a):
        return f"{a.value}·[{','.join(map(str, a.dim))}]"
