"""Slice carriers: the abelian groups a dimension slice can be.

Each carrier -- Q, Q^k, Z/n, finite integer formal sums, or a pair of
carriers -- is a presentation Q^r + Z^f + Z/n_1 + ... on its generators
(`orders`, `coords`, `from_coords`), on which the group operations are
written once.  Additive slice maps are stored as generator images; their
kernels, quotients and tensor products are read off the presentations
through one reduction, the Smith normal form over Z.  The `Carrier`
base and `Rationals` are defined in `core` and re-exported here.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import Carrier, Rationals, _units
from .errors import CarrierError


@dataclass(frozen=True)
class Vectors(Carrier):
    dim: int

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 0):
            raise CarrierError(f"Q^{self.dim}: the dimension must be an integer >= 0")

    def orders(self):
        return (None,) * self.dim

    def coords(self, v):
        return v

    def from_coords(self, c):
        return tuple(map(Fraction, c))

    def contains(self, v):
        return (isinstance(v, tuple) and len(v) == self.dim
                and all(isinstance(x, (Fraction, int)) for x in v))

    def __str__(self):
        return f"Q^{self.dim}"


@dataclass(frozen=True)
class Cyclic(Carrier):
    order: int

    def __post_init__(self):
        if not (isinstance(self.order, int) and self.order >= 1):
            raise CarrierError(f"Z/{self.order}: the order must be an integer >= 1")

    def orders(self):
        return (self.order,)

    def coords(self, v):
        return (v,)

    def from_coords(self, c):
        return int(c[0]) % self.order

    def contains(self, v):
        return isinstance(v, int) and 0 <= v < self.order

    def __str__(self):
        return f"Z/{self.order}"


@dataclass(frozen=True)
class FormalSums(Carrier):
    """Finite integer combinations of a fixed generator set.

    Values are canonical tuples of (generator, nonzero coefficient) pairs
    sorted by generator.
    """

    gens: tuple

    def __post_init__(self):
        if len(set(self.gens)) != len(self.gens):
            raise CarrierError(f"repeated generator in {self.gens!r}")

    def embed(self, g):
        if g not in self.gens:
            raise CarrierError(f"{g!r} is not a generator")
        return ((g, 1),)

    def orders(self):
        return (0,) * len(self.gens)

    def coords(self, v):
        c = dict(v)
        return tuple(c.get(g, 0) for g in self.gens)

    def from_coords(self, c):
        return tuple(sorted((g, int(x)) for g, x in zip(self.gens, c) if x))

    def contains(self, v):
        try:  # canonical exactly when coefficients round-trip unchanged
            return v == self.from_coords(self.coords(v))
        except (TypeError, ValueError):
            return False

    def __str__(self):
        return f"Z[{','.join(map(str, self.gens))}]"


@dataclass(frozen=True)
class Pairs(Carrier):
    """Componentwise product of two carriers (direct-sum slices)."""

    left: Carrier
    right: Carrier

    def orders(self):
        return self.left.orders() + self.right.orders()

    def coords(self, v):
        return self.left.coords(v[0]) + self.right.coords(v[1])

    def from_coords(self, c):
        k = len(self.left.orders())
        return (self.left.from_coords(c[:k]), self.right.from_coords(c[k:]))

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and self.left.contains(v[0])
            and self.right.contains(v[1])
        )

    def __str__(self):
        return f"({self.left} x {self.right})"


def _presented(orders, names):
    """The carrier on generators of these orders but 1, joining Q^k, Z/n and
    Z[names] by `Pairs`, and the map from coefficients on all of them."""
    keep = [i for i, n in enumerate(orders) if n != 1]
    runs = [list(r) for _, r in itertools.groupby(keep, lambda i: (orders[i], orders[i] and i))]
    pieces = [
        Vectors(len(r)) if orders[r[0]] is None
        else Cyclic(orders[r[0]]) if orders[r[0]]
        else FormalSums(tuple(names[i] for i in r))
        for r in runs
    ]
    if not pieces:
        return Cyclic(1), lambda c: 0
    out = functools.reduce(lambda right, left: Pairs(left, right), reversed(pieces))
    return out, lambda c: out.from_coords(tuple(c[i] for i in keep))


# ---------------------------------------------------------------------------
# Tensor products of carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSlice:
    """The tensor product of two carriers plus the pure-tensor pairing."""

    carrier: Carrier
    pure: callable


def tensor_carrier(left: Carrier, right: Carrier) -> TensorSlice:
    """A (x) B on the pairs of generators.  A pair of orders m, n has order
    Q(x)Q = Q(x)Z = Q, Q(x)Z/n = 0 or Z/m(x)Z/n = Z/gcd(m, n), with Z =
    Z/0; by bilinearity a pure tensor multiplies coefficients.  Free pairs
    are named by a formal sum's generators, else by position."""
    def order(m, n):
        if m is None or n is None:
            return 1 if m or n else None
        return math.gcd(m, n)

    def names(c):
        return c.gens if isinstance(c, FormalSums) else range(len(c.orders()))

    out, to_out = _presented(
        [order(m, n) for m in left.orders() for n in right.orders()],
        list(itertools.product(names(left), names(right))),
    )
    return TensorSlice(
        out, lambda a, b: to_out([x * y for x in left.coords(a) for y in right.coords(b)])
    )


# ---------------------------------------------------------------------------
# Slice maps: additive maps between carriers
# ---------------------------------------------------------------------------


def _span(qrows, zrows, n):
    """Q·qrows + Z·zrows as the echelon Q-rows, their pivots, and the
    `linalg.smith` of the Z-rows, cleared of those pivots, on n columns:
    its members zero on those columns are the Q-span of the echelon rows
    and the Z-span of the smith rows that are zero there."""
    qred, pivots = linalg.rref(qrows)
    for row, p in zip(qred, pivots):
        zrows = [tuple(x - z[p] * y for x, y in zip(z, row)) for z in zrows]
    return (qred, pivots, *linalg.smith(zrows, n))


@dataclass(frozen=True)
class SliceMap:
    """An additive map, stored as its generator images: `images[i]` is
    the image of `src.generators()[i]`."""

    src: Carrier
    dst: Carrier
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        src, dst, orders = self.src, self.dst, self.src.orders()
        if len(self.images) != len(orders):
            raise CarrierError(f"{src} has {len(orders)} generators, got {len(self.images)} images")
        for n, v in zip(orders, self.images):
            dst.require(v)
            if n is None and any(c for c, m in zip(dst.coords(v), dst.orders()) if m is not None):
                raise CarrierError(f"{v!r} is not divisible in {dst}, so not an image of {src}")
            if n and dst.int_mul(n, v) != dst.zero():
                raise CarrierError(f"not additive {src} -> {dst}: {n}·{v!r} != 0")

    def apply(self, v):
        self.src.require(v)
        dst, out = self.dst, self.dst.zero()
        for c, image in zip(self.src.coords(v), self.images):
            out = dst.add(out, dst.int_mul(c, image))
        return out

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
        """The x with f(x) = 0, solved on coefficients.

        Lift the source to Q^r + Z^f and each Z/p coordinate of the target
        to Z: x is in the kernel when sum_i x_i·image_i is an integer
        combination of the p·e_j.  So the kernel is the trailing part of
        the combinations of the rows (image_i | e_i) -- over Q for a
        rational generator, over Z otherwise -- and (p·e_j | 0) that
        vanish on the leading part, as `_span` finds them.
        """
        src, dst = self.src, self.dst
        k, m = len(dst.orders()), len(self.images)
        rows = [dst.coords(v) + e for v, e in zip(self.images, _units(m))]
        qrows = [r for r, n in zip(rows, src.orders()) if n is None]
        zrows = [r for r, n in zip(rows, src.orders()) if n is not None]
        zrows += [tuple(p * x for x in e) + (0,) * m for e, p in zip(_units(k), dst.orders()) if p]
        qred, _, zred, _ = _span(qrows, zrows, k)
        return SliceSubgroup(src, tuple(r[k:] for r in zred if not any(r[:k])),
                             tuple(r[k:] for r in qred if not any(r[:k])))


def identity_map(carrier: Carrier) -> SliceMap:
    return SliceMap(carrier, carrier, carrier.generators())


def zero_map(src: Carrier, dst: Carrier) -> SliceMap:
    return SliceMap(src, dst, (dst.zero(),) * len(src.generators()))


# ---------------------------------------------------------------------------
# Subgroups of a slice and slice quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceSubgroup:
    """A subgroup of one slice: the Z-span of the coefficient rows
    `lattice` plus the Q-span of the rows `subspace`, which must be zero
    on the integral coefficients: a CarrierError otherwise."""

    carrier: Carrier
    lattice: tuple = ()
    subspace: tuple = ()

    def __post_init__(self):
        c = self.carrier
        object.__setattr__(self, "lattice", tuple(c.coords(c.from_coords(r)) for r in self.lattice))
        object.__setattr__(self, "subspace", tuple(map(tuple, self.subspace)))
        for r in self.subspace:
            if any(x for x, n in zip(r, c.orders()) if n is not None):
                raise CarrierError(f"subspace row {r!r} of {c} is nonzero on an integral coefficient")

    @functools.cached_property
    def _quotient(self) -> "SliceQuotient":
        return quotient_slice(self.carrier, self)

    def contains(self, v) -> bool:
        """Whether v projects to zero in the quotient by this subgroup."""
        return self._quotient.project.apply(v) == self._quotient.carrier.zero()

    def elements(self):
        """All members when finitely many, else None."""
        c, orders = self.carrier, self.carrier.orders()
        if any(x for r in self.lattice + self.subspace for x, n in zip(r, orders) if not n):
            return None  # a member of infinite order
        torsion = itertools.product(*(range(n or 1) for n in orders))
        return tuple(v for v in map(c.from_coords, torsion) if self.contains(v))


def zero_subgroup(carrier: Carrier) -> SliceSubgroup:
    return SliceSubgroup(carrier)


def whole_subgroup(carrier: Carrier) -> SliceSubgroup:
    rows = _units(len(carrier.orders()))
    return SliceSubgroup(carrier, rows, tuple(r for r, n in zip(rows, carrier.orders()) if n is None))


def finite_subgroup(carrier: Carrier, members) -> SliceSubgroup:
    """The subgroup whose elements are exactly `members`; refused when
    they are not closed under the group operations."""
    members = sorted(set(members))
    sub = SliceSubgroup(carrier, tuple(map(carrier.coords, members)))
    if sorted(sub.elements() or ()) != members:
        raise CarrierError(f"{members} is not a subgroup of {carrier}")
    return sub


@dataclass(frozen=True)
class SliceQuotient:
    carrier: Carrier     # quotient slice
    project: SliceMap    # original slice -> quotient slice


def quotient_slice(carrier: Carrier, sub: SliceSubgroup) -> SliceQuotient:
    """carrier / sub, presented by the Smith normal form of its relations.

    Lift the carrier to Z^f + Q^r, integral coefficients first.  The
    relations are the Q-span of `subspace` and the Z-span of `lattice` and
    of n·e_j for each Z/n generator.  `_span` clears the subspace's pivot
    coordinates, which the quotient forgets, and diagonalizes the rest: in
    the basis y = x·V the relations are d_k·y_k + q_k = 0, q_k rational.
    One with d_k = 0 and q_k != 0 puts Q/Z, which is no carrier, in the
    quotient.  Otherwise x goes to (y_k mod d_k, its rational part minus
    y_k/d_k·q_k for d_k > 0): additive, onto, and zero exactly on the
    relations.  By the zero subgroup the quotient is the carrier itself.
    """
    if not any(map(any, sub.lattice + sub.subspace)):
        return SliceQuotient(carrier, identity_map(carrier))
    orders = carrier.orders()
    perm = sorted(range(len(orders)), key=lambda j: orders[j] is None)
    f = sum(n is not None for n in orders)

    def lift(row):
        return tuple(row[j] for j in perm)

    torsion = tuple(tuple(n * x for x in e) for e, n in zip(_units(len(orders)), orders) if n)
    qred, pivots, zred, basis = _span(
        [lift(r) for r in sub.subspace], [lift(r) for r in sub.lattice + torsion], f)
    if any(any(r[f:]) for r in zred if not any(r[:f])):
        raise CarrierError(f"{carrier} by {sub} contains Q/Z, which is no carrier")
    free = [j for j in range(f, len(orders)) if j not in pivots]
    d = [int(zred[k][k]) if k < len(zred) else 0 for k in range(f)]  # integral in value
    out, to_out = _presented(d + [None] * len(free), range(f))

    def project(x):
        x = lift(x)
        y = [sum(a * b for a, b in zip(x, col)) for col in zip(*basis)]
        for row, p in zip(qred, pivots):
            x = tuple(a - x[p] * b for a, b in zip(x, row))
        return to_out(y + [x[j] - sum(Fraction(y[k], d[k]) * zred[k][j] for k in range(f) if d[k])
                           for j in free])

    return SliceQuotient(out, SliceMap(carrier, out, map(project, _units(len(orders)))))
