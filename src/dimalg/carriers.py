"""Slice carriers: the abelian groups a dimension slice can be.

Carriers are restricted to four exactly-computable kinds -- rationals,
rational vectors of a fixed finite dimension, finite cyclic groups, and
finite integer formal sums -- plus pairwise products of those.  Every
axiom over them is decidable or exactly sampleable; no floating point.

Slice maps are the additive maps between carriers that dimensioned maps
are assembled from; they compose, add pointwise, negate, and (where the
carrier supports it) expose their kernels.
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

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def require(self, v):
        if not self.contains(v):
            raise CarrierError(f"{v!r} is not an element of {self}")

    def probe(self, rng: random.Random, n: int = 4) -> tuple:
        elems = self.elements()
        if elems is not None:
            return elems
        out = list(self.generators()) + [self.zero()]
        out.extend(self.sample(rng) for _ in range(n))
        return tuple(out)


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
        return (n * v) % self.order

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

    def __str__(self):
        return f"({self.left} x {self.right})"


# ---------------------------------------------------------------------------
# Tensor products of carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSlice:
    """The tensor product of two carriers plus the pure-tensor pairing."""

    carrier: Carrier
    _pure: callable

    def pure(self, a, b):
        return self._pure(a, b)


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


class SliceMap(ABC):
    src: Carrier
    dst: Carrier

    @abstractmethod
    def apply(self, v): ...

    def compose(self, other: "SliceMap") -> "SliceMap":
        """self after other."""
        if isinstance(other, ZeroMap) or isinstance(self, ZeroMap):
            return ZeroMap(other.src, self.dst)
        if isinstance(self, Scale) and isinstance(other, Scale):
            return Scale(other.src, self.dst, self.factor * other.factor)
        if isinstance(self, Matrix) and isinstance(other, Matrix):
            return Matrix(other.src, self.dst, linalg.matmul(self.rows, other.rows))
        if isinstance(other, GenImages):
            return GenImages(
                other.src,
                self.dst,
                {g: self.apply(v) for g, v in other.images.items()},
            )
        if isinstance(self, Scale) and isinstance(other, Matrix):
            rows = tuple(tuple(self.factor * x for x in r) for r in other.rows)
            return Matrix(other.src, self.dst, rows)
        if isinstance(self, Matrix) and isinstance(other, Scale):
            rows = tuple(tuple(x * other.factor for x in r) for r in self.rows)
            return Matrix(other.src, self.dst, rows)
        return FnMap(other.src, self.dst, lambda v: self.apply(other.apply(v)))

    def add(self, other: "SliceMap") -> "SliceMap":
        if isinstance(self, ZeroMap):
            return other
        if isinstance(other, ZeroMap):
            return self
        if isinstance(self, Scale) and isinstance(other, Scale):
            return Scale(self.src, self.dst, self.factor + other.factor)
        if isinstance(self, Matrix) and isinstance(other, Matrix):
            rows = tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
            return Matrix(self.src, self.dst, rows)
        if isinstance(self, GenImages) and isinstance(other, GenImages):
            return GenImages(
                self.src,
                self.dst,
                {
                    g: self.dst.add(v, other.images[g])
                    for g, v in self.images.items()
                },
            )
        return FnMap(self.src, self.dst, lambda v: self.dst.add(self.apply(v), other.apply(v)))

    def neg(self) -> "SliceMap":
        if isinstance(self, ZeroMap):
            return self
        if isinstance(self, Scale):
            return Scale(self.src, self.dst, -self.factor)
        if isinstance(self, Matrix):
            return Matrix(self.src, self.dst, tuple(tuple(-x for x in r) for r in self.rows))
        if isinstance(self, GenImages):
            return GenImages(
                self.src, self.dst, {g: self.dst.neg(v) for g, v in self.images.items()}
            )
        return FnMap(self.src, self.dst, lambda v: self.dst.neg(self.apply(v)))

    def kernel(self) -> "SliceKernel":
        raise CarrierError(f"kernel solving unsupported for {type(self).__name__}")


@dataclass(frozen=True)
class ZeroMap(SliceMap):
    src: Carrier
    dst: Carrier

    def apply(self, v):
        self.src.require(v)
        return self.dst.zero()

    def kernel(self):
        return whole_subgroup(self.src)


@dataclass(frozen=True)
class Scale(SliceMap):
    """Multiplication by a fixed scalar; src and dst must be like kinds."""

    src: Carrier
    dst: Carrier
    factor: Fraction

    def __post_init__(self):
        if isinstance(self.src, Cyclic):
            if not isinstance(self.dst, Cyclic):
                raise CarrierError("cyclic scale map needs a cyclic target")
            f = int(self.factor)
            if (f * self.src.order) % self.dst.order != 0:
                raise CarrierError(
                    f"x{f} is not a homomorphism Z/{self.src.order} -> Z/{self.dst.order}"
                )

    def apply(self, v):
        self.src.require(v)
        if isinstance(self.src, Cyclic):
            return (int(self.factor) * v) % self.dst.order
        if isinstance(self.src, Vectors):
            return tuple(self.factor * x for x in v)
        return self.factor * v

    def kernel(self):
        if isinstance(self.src, Cyclic):
            members = tuple(
                v for v in self.src.elements() if self.apply(v) == self.dst.zero()
            )
            return finite_subgroup(self.src, members)
        if self.factor == 0:
            return whole_subgroup(self.src)
        return zero_subgroup(self.src)


@dataclass(frozen=True)
class Matrix(SliceMap):
    src: Carrier  # Vectors(n)
    dst: Carrier  # Vectors(m)
    rows: tuple

    def apply(self, v):
        self.src.require(v)
        return linalg.matvec(self.rows, v)

    def kernel(self):
        basis = linalg.nullspace(self.rows, self.src.dim)
        if not basis:
            return zero_subgroup(self.src)
        return SliceSubgroup(self.src, "subspace", tuple(basis))


@dataclass(frozen=True)
class GenImages(SliceMap):
    """Map out of a formal-sum slice, determined by generator images."""

    src: Carrier  # FormalSums
    dst: Carrier
    images: dict

    def apply(self, v):
        self.src.require(v)
        out = self.dst.zero()
        for g, c in v:
            out = self.dst.add(out, self.dst.int_mul(c, self.images[g]))
        return out


@dataclass(frozen=True)
class FnMap(SliceMap):
    src: Carrier
    dst: Carrier
    fn: callable

    def apply(self, v):
        self.src.require(v)
        return self.fn(v)


def identity_map(carrier: Carrier) -> SliceMap:
    if isinstance(carrier, (Rationals, Vectors, Cyclic)):
        return Scale(carrier, carrier, Fraction(1))
    if isinstance(carrier, FormalSums):
        return GenImages(carrier, carrier, {g: carrier.embed(g) for g in carrier.gens})
    return FnMap(carrier, carrier, lambda v: v)


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
        return linalg.in_rowspace(self.data, v)

    def elements(self):
        if self.kind == "zero":
            return (self.carrier.zero(),)
        if self.kind == "finite":
            return self.data
        if self.kind == "whole":
            return self.carrier.elements()
        return None

    def closed(self) -> bool:
        """Subgroup closure, decidable for the finite kinds."""
        elems = self.elements()
        if elems is None:
            return True  # subspaces are closed by construction
        c = self.carrier
        if c.zero() not in elems:
            return False
        return all(
            c.add(a, b) in elems and c.neg(a) in elems for a in elems for b in elems
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
        return SliceQuotient(TRIVIAL_CARRIER, ZeroMap(carrier, TRIVIAL_CARRIER))
    if sub.kind == "finite":
        if not isinstance(carrier, Cyclic):
            raise CarrierError("finite subgroup quotients are supported on cyclic slices")
        if not sub.closed():
            raise CarrierError("subset is not a subgroup")
        q = carrier.order // len(sub.data)
        return SliceQuotient(Cyclic(q), Scale(carrier, Cyclic(q), Fraction(1)))
    # subspace of Q^n: quotient coordinates are the free columns after rref
    red, pivots = linalg.rref(sub.data)
    n = carrier.dim
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for f in free:
        row = [Fraction(0)] * n
        row[f] = Fraction(1)
        for rrow, p in zip(red, pivots):
            row[p] = -rrow[f]
        rows.append(tuple(row))
    out = Vectors(len(free))
    return SliceQuotient(out, Matrix(carrier, out, tuple(rows)))
