"""Slice carriers: the abelian groups a dimension slice can be.

Carriers are restricted to four exactly-computable kinds -- rationals,
rational vectors of a fixed finite dimension, finite cyclic groups, and
finite integer formal sums -- plus pairwise products of those.  Every
axiom over them is decidable or exactly sampleable; no floating point.

Slice maps are the additive maps between carriers that dimensioned maps
are assembled from.  A slice map is stored as its generator images: it
composes, adds and negates image by image, and its kernel is a nullspace
between rational carriers or is enumerated on a finite source.
"""

import itertools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CarrierError
from .sampling import rand_fraction


class Carrier(ABC):
    """An abelian group that can serve as a dimension slice."""

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def add(self, a, b): ...

    @abstractmethod
    def neg(self, a): ...

    @abstractmethod
    def contains(self, v) -> bool: ...

    @abstractmethod
    def elements(self):
        """All elements when finite, else None."""

    @abstractmethod
    def sample(self, rng: random.Random): ...

    @abstractmethod
    def generators(self) -> tuple:
        """A spanning set: an additive map is determined by its values here."""

    @abstractmethod
    def int_mul(self, n: int, v): ...

    @abstractmethod
    def coords(self, v) -> tuple:
        """The coefficients of v on `generators()`."""

    def relations(self) -> tuple:
        """Coefficient tuples that sum the generators to zero."""
        return ()

    def rational_coords(self) -> tuple:
        """Per generator, whether its coefficient ranges over Q, not Z."""
        return (False,) * len(self.generators())

    def require(self, v):
        if not self.contains(v):
            raise CarrierError(f"{v!r} is not an element of {self}")


@dataclass(frozen=True)
class Rationals(Carrier):
    """The group Q, and with `mul`, `one`, `reciprocal` the scalar field Q."""

    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def reciprocal(self, a):
        if a == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return Fraction(1) / a

    def contains(self, v):
        return isinstance(v, (Fraction, int))

    def elements(self):
        return None

    def sample(self, rng):
        return rand_fraction(rng)

    def generators(self):
        return (Fraction(1),)

    def int_mul(self, n, v):
        return n * v

    def coords(self, v):
        return (v,)

    def rational_coords(self):
        return (True,)

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class Vectors(Carrier):
    dim: int

    def zero(self):
        return (Fraction(0),) * self.dim

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def contains(self, v):
        return isinstance(v, tuple) and len(v) == self.dim

    def elements(self):
        return None

    def sample(self, rng):
        return tuple(rand_fraction(rng) for _ in range(self.dim))

    def generators(self):
        return tuple(
            tuple(Fraction(int(i == j)) for j in range(self.dim))
            for i in range(self.dim)
        )

    def int_mul(self, n, v):
        return tuple(n * x for x in v)

    def coords(self, v):
        return v

    def rational_coords(self):
        return (True,) * self.dim

    def __str__(self):
        return f"Q^{self.dim}"


@dataclass(frozen=True)
class Cyclic(Carrier):
    order: int

    def zero(self):
        return 0

    def add(self, a, b):
        return (a + b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def contains(self, v):
        return isinstance(v, int) and 0 <= v < self.order

    def elements(self):
        return tuple(range(self.order))

    def sample(self, rng):
        return rng.randrange(self.order)

    def generators(self):
        return (1 % self.order,)

    def int_mul(self, n, v):
        return (n * v) % self.order if v else 0  # n may be rational when v = 0

    def coords(self, v):
        return (v,)

    def relations(self):
        return ((self.order,),)

    def __str__(self):
        return f"Z/{self.order}"


TRIVIAL_CARRIER = Cyclic(1)


@dataclass(frozen=True)
class FormalSums(Carrier):
    """Finite integer combinations of a fixed generator set.

    Values are canonical tuples of (generator, nonzero coefficient) pairs
    sorted by generator.
    """

    gens: tuple

    @staticmethod
    def canon(pairs):
        acc = {}
        for g, c in pairs:
            acc[g] = acc.get(g, 0) + c
        return tuple(sorted((g, c) for g, c in acc.items() if c != 0))

    def embed(self, g):
        if g not in self.gens:
            raise CarrierError(f"{g!r} is not a generator")
        return ((g, 1),)

    def zero(self):
        return ()

    def add(self, a, b):
        return self.canon(list(a) + list(b))

    def neg(self, a):
        return tuple((g, -c) for g, c in a)

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and all(len(p) == 2 and p[0] in self.gens and p[1] != 0 for p in v)
            and v == self.canon(v)
        )

    def elements(self):
        return (() ,) if not self.gens else None

    def sample(self, rng):
        return self.canon((g, rng.randint(-3, 3)) for g in self.gens)

    def generators(self):
        return tuple(self.embed(g) for g in self.gens)

    def int_mul(self, n, v):
        if n == 0:
            return ()
        return tuple((g, n * c) for g, c in v)

    def coords(self, v):
        c = dict(v)
        return tuple(c.get(g, 0) for g in self.gens)

    def __str__(self):
        return f"Z[{','.join(map(str, self.gens))}]"


@dataclass(frozen=True)
class Pairs(Carrier):
    """Componentwise product of two carriers (direct-sum slices)."""

    left: Carrier
    right: Carrier

    def zero(self):
        return (self.left.zero(), self.right.zero())

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and self.left.contains(v[0])
            and self.right.contains(v[1])
        )

    def elements(self):
        le, re = self.left.elements(), self.right.elements()
        if le is None or re is None:
            return None
        return tuple(itertools.product(le, re))

    def sample(self, rng):
        return (self.left.sample(rng), self.right.sample(rng))

    def generators(self):
        lz, rz = self.left.zero(), self.right.zero()
        return tuple((g, rz) for g in self.left.generators()) + tuple(
            (lz, g) for g in self.right.generators()
        )

    def int_mul(self, n, v):
        return (self.left.int_mul(n, v[0]), self.right.int_mul(n, v[1]))

    def coords(self, v):
        return self.left.coords(v[0]) + self.right.coords(v[1])

    def relations(self):
        nl, nr = len(self.left.generators()), len(self.right.generators())
        return tuple(r + (0,) * nr for r in self.left.relations()) + tuple(
            (0,) * nl + r for r in self.right.relations()
        )

    def rational_coords(self):
        return self.left.rational_coords() + self.right.rational_coords()

    def __str__(self):
        return f"({self.left} x {self.right})"


# ---------------------------------------------------------------------------
# Tensor products of carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSlice:
    """The tensor product of two carriers plus the pure-tensor pairing."""

    carrier: Carrier
    pure: callable


def tensor_carrier(left: Carrier, right: Carrier) -> TensorSlice:
    """A_d (x) B_e with pure tensors reduced modulo bilinearity."""
    if isinstance(left, Rationals) and isinstance(right, Rationals):
        return TensorSlice(Rationals(), lambda a, b: a * b)
    if isinstance(left, Rationals) and isinstance(right, Vectors):
        return TensorSlice(right, lambda a, b: tuple(a * x for x in b))
    if isinstance(left, Vectors) and isinstance(right, Rationals):
        return TensorSlice(left, lambda a, b: tuple(x * b for x in a))
    if isinstance(left, Vectors) and isinstance(right, Vectors):
        out = Vectors(left.dim * right.dim)
        return TensorSlice(
            out, lambda a, b: tuple(x * y for x in a for y in b)
        )
    if isinstance(left, Cyclic) and isinstance(right, Cyclic):
        g = math.gcd(left.order, right.order)
        return TensorSlice(Cyclic(g), lambda a, b: (a * b) % g)
    divisible = (Rationals, Vectors)
    if isinstance(left, divisible) and isinstance(right, Cyclic):
        return TensorSlice(TRIVIAL_CARRIER, lambda a, b: 0)
    if isinstance(left, Cyclic) and isinstance(right, divisible):
        return TensorSlice(TRIVIAL_CARRIER, lambda a, b: 0)
    if isinstance(left, FormalSums) and isinstance(right, FormalSums):
        out = FormalSums(tuple(itertools.product(left.gens, right.gens)))
        return TensorSlice(
            out,
            lambda a, b: out.canon(
                (((g, h), c * d)) for g, c in a for h, d in b
            ),
        )
    raise CarrierError(f"unsupported tensor slice {left} (x) {right}")


# ---------------------------------------------------------------------------
# Slice maps: additive maps between carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceMap:
    """An additive map, stored as its generator images: `images[i]` is
    the image of `src.generators()[i]`."""

    src: Carrier
    dst: Carrier
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.src.generators())
        if len(self.images) != n:
            raise CarrierError(f"{self.src} has {n} generators, got {len(self.images)} images")
        for v in self.images:
            self.dst.require(v)
        integral = [not r for r in self.dst.rational_coords()]
        for rational, v in zip(self.src.rational_coords(), self.images):
            if rational and any(c for c, i in zip(self.dst.coords(v), integral) if i):
                raise CarrierError(f"{v!r} is not divisible in {self.dst}, so not an image of {self.src}")
        for rel in self.src.relations():
            if self._combine(rel) != self.dst.zero():
                raise CarrierError(f"not additive {self.src} -> {self.dst}: relation {rel} fails")

    def _combine(self, coeffs):
        dst = self.dst
        out = dst.zero()
        for c, v in zip(coeffs, self.images):
            out = dst.add(out, dst.int_mul(c, v))
        return out

    def apply(self, v):
        self.src.require(v)
        return self._combine(self.src.coords(v))

    def compose(self, other: "SliceMap") -> "SliceMap":
        """self after other."""
        return SliceMap(other.src, self.dst, tuple(map(self.apply, other.images)))

    def add(self, other: "SliceMap") -> "SliceMap":
        if (self.src, self.dst) != (other.src, other.dst):
            raise CarrierError("slice map add: mismatched source or target")
        return SliceMap(self.src, self.dst, tuple(map(self.dst.add, self.images, other.images)))

    def neg(self) -> "SliceMap":
        return SliceMap(self.src, self.dst, tuple(map(self.dst.neg, self.images)))

    def kernel(self) -> "SliceSubgroup":
        """Whole when every image is zero, enumerated on a finite source,
        a nullspace between rational carriers."""
        src, dst = self.src, self.dst
        zero = dst.zero()
        if all(v == zero for v in self.images):
            return whole_subgroup(src)
        elems = src.elements()
        if elems is not None:
            return finite_subgroup(src, (v for v in elems if self.apply(v) == zero))
        if not (all(src.rational_coords()) and all(dst.rational_coords())):
            raise CarrierError(f"kernel solving unsupported for {src} -> {dst}")
        rows = tuple(zip(*map(dst.coords, self.images)))
        basis = linalg.nullspace(rows, len(self.images))
        return SliceSubgroup(src, "subspace", tuple(basis)) if basis else zero_subgroup(src)


def identity_map(carrier: Carrier) -> SliceMap:
    return SliceMap(carrier, carrier, carrier.generators())


def zero_map(src: Carrier, dst: Carrier) -> SliceMap:
    return SliceMap(src, dst, (dst.zero(),) * len(src.generators()))


# ---------------------------------------------------------------------------
# Subgroups of a slice and slice quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceSubgroup:
    """A subgroup of one slice: zero, the whole slice, a finite subgroup,
    or a rational subspace given by a spanning set of rows."""

    carrier: Carrier
    kind: str  # "zero" | "whole" | "finite" | "subspace"
    data: tuple = ()

    def contains(self, v) -> bool:
        self.carrier.require(v)
        if self.kind == "zero":
            return v == self.carrier.zero()
        if self.kind == "whole":
            return True
        if self.kind == "finite":
            return v in self.data
        return linalg.in_rowspace(self.data, self.carrier.coords(v))

    def elements(self):
        if self.kind == "zero":
            return (self.carrier.zero(),)
        if self.kind == "finite":
            return self.data
        if self.kind == "whole":
            return self.carrier.elements()
        return None

    def closed(self) -> bool:
        """Subgroup closure, decided on the listed elements of a finite
        subset; the other kinds are subgroups by construction."""
        if self.kind != "finite":
            return True
        c, elems = self.carrier, set(self.data)
        return (
            c.zero() in elems
            and all(c.neg(a) in elems for a in elems)
            and all(c.add(a, b) in elems for a in elems for b in elems)
        )


def zero_subgroup(carrier: Carrier) -> SliceSubgroup:
    return SliceSubgroup(carrier, "zero")


def whole_subgroup(carrier: Carrier) -> SliceSubgroup:
    return SliceSubgroup(carrier, "whole")


def finite_subgroup(carrier: Carrier, members) -> SliceSubgroup:
    return SliceSubgroup(carrier, "finite", tuple(sorted(members)))


@dataclass(frozen=True)
class SliceQuotient:
    carrier: Carrier     # quotient slice
    project: SliceMap    # original slice -> quotient slice


def quotient_slice(carrier: Carrier, sub: SliceSubgroup) -> SliceQuotient:
    if sub.kind == "zero":
        return SliceQuotient(carrier, identity_map(carrier))
    if sub.kind == "whole":
        return SliceQuotient(TRIVIAL_CARRIER, zero_map(carrier, TRIVIAL_CARRIER))
    if sub.kind == "finite":
        if not isinstance(carrier, Cyclic):
            raise CarrierError("finite subgroup quotients are supported on cyclic slices")
        if not sub.closed():
            raise CarrierError("subset is not a subgroup")
        out = Cyclic(carrier.order // len(sub.data))
        return SliceQuotient(out, SliceMap(carrier, out, out.generators()))
    # subspace: the quotient coordinates pair with a basis of its annihilator
    n = len(carrier.generators())
    rows = linalg.nullspace(sub.data, n)
    out = Vectors(len(rows))
    return SliceQuotient(out, SliceMap(carrier, out, (tuple(r[j] for r in rows) for j in range(n))))
