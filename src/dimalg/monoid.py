"""Dimension monoids and dimension sets.

A dimension monoid is the algebra carried by the set of dimensions of a
dimensioned multiplication: a totally-defined associative unital product.
Four concrete kinds cover all desk-scale uses:

* ``free_abelian(k)`` -- integer exponent vectors under addition (a group),
* ``cyclic(n)``        -- integers mod n under addition (a group),
* ``trivial()``        -- a single dimensionless point,
* ``map_monoid(base)`` -- all self-maps of a finite set under composition
  (not commutative, not a group).

Map-monoid elements are tuples of images aligned with ``base``:
``f[i]`` is the image of ``base[i]``; combining is function composition
``combine(f, g) = f after g``.
"""

import itertools
import random
from dataclasses import dataclass

from .errors import CarrierError
from .sampling import rand_int_vector

FREE_ABELIAN = "free_abelian"
CYCLIC = "cyclic"
TRIVIAL = "trivial"
MAP = "map"


@dataclass(frozen=True)
class DimMonoid:
    kind: str
    rank: int = 0
    order: int = 0
    base: tuple = ()

    # -- constructors ------------------------------------------------
    @staticmethod
    def free_abelian(rank: int) -> "DimMonoid":
        if rank < 0:
            raise ValueError("rank must be >= 0")
        return DimMonoid(FREE_ABELIAN, rank=rank)

    @staticmethod
    def cyclic(order: int) -> "DimMonoid":
        if order < 1:
            raise ValueError("order must be >= 1")
        return DimMonoid(CYCLIC, order=order)

    @staticmethod
    def trivial() -> "DimMonoid":
        return DimMonoid(TRIVIAL)

    @staticmethod
    def map_monoid(base) -> "DimMonoid":
        base = tuple(base)
        if not base:
            raise ValueError("map monoid needs a non-empty base set")
        return DimMonoid(MAP, base=base)

    # -- structure ----------------------------------------------------
    @property
    def identity(self):
        if self.kind == FREE_ABELIAN:
            return (0,) * self.rank
        if self.kind == CYCLIC:
            return 0
        if self.kind == TRIVIAL:
            return ()
        return tuple(self.base)

    @property
    def is_group(self) -> bool:
        return self.kind in (FREE_ABELIAN, CYCLIC, TRIVIAL)

    def contains(self, x) -> bool:
        if self.kind == FREE_ABELIAN:
            return (
                isinstance(x, tuple)
                and len(x) == self.rank
                and all(isinstance(c, int) for c in x)
            )
        if self.kind == CYCLIC:
            return isinstance(x, int) and 0 <= x < self.order
        if self.kind == TRIVIAL:
            return x == ()
        return (
            isinstance(x, tuple)
            and len(x) == len(self.base)
            and all(v in self.base for v in x)
        )

    def _require(self, x):
        if not self.contains(x):
            raise CarrierError(f"{x!r} is not an element of {self}")

    def combine(self, x, y):
        self._require(x)
        self._require(y)
        if self.kind == FREE_ABELIAN:
            return tuple(a + b for a, b in zip(x, y))
        if self.kind == CYCLIC:
            return (x + y) % self.order
        if self.kind == TRIVIAL:
            return ()
        index = {v: i for i, v in enumerate(self.base)}
        return tuple(x[index[v]] for v in y)

    def inverse(self, x):
        self._require(x)
        if self.kind == FREE_ABELIAN:
            return tuple(-c for c in x)
        if self.kind == CYCLIC:
            return (-x) % self.order
        if self.kind == TRIVIAL:
            return ()
        raise CarrierError("map monoids do not carry inverses")

    # -- enumeration and probing --------------------------------------
    def elements(self):
        """All elements for finite kinds, None for free abelian of rank > 0."""
        if self.kind == FREE_ABELIAN:
            if self.rank == 0:
                return ((),)
            return None
        if self.kind == CYCLIC:
            return tuple(range(self.order))
        if self.kind == TRIVIAL:
            return ((),)
        return tuple(itertools.product(self.base, repeat=len(self.base)))

    def sample(self, rng: random.Random):
        if self.kind == FREE_ABELIAN:
            return rand_int_vector(rng, self.rank)
        return rng.choice(self.elements())

    def generators(self) -> tuple:
        """A generating set (as a monoid, including inverses for groups)."""
        if self.kind == FREE_ABELIAN:
            gens = []
            for i in range(self.rank):
                unit = tuple(1 if j == i else 0 for j in range(self.rank))
                gens.append(unit)
                gens.append(tuple(-c for c in unit))
            return tuple(gens)
        if self.kind == CYCLIC:
            return (1 % self.order,)
        if self.kind == TRIVIAL:
            return ((),)
        return self.elements()

    def probe_words(self, length: int = 3) -> tuple:
        """All products of at most `length` generators (plus the identity).

        This is the documented probe set used wherever a law quantified
        over the whole monoid must be checked mechanically.
        """
        elems = self.elements()
        if elems is not None:
            return elems
        seen = {self.identity}
        frontier = {self.identity}
        for _ in range(length):
            frontier = {
                self.combine(w, g) for w in frontier for g in self.generators()
            }
            seen |= frontier
        return tuple(sorted(seen))


@dataclass(frozen=True)
class DimSet:
    """A set of dimensions: either the carrier of a monoid or a finite plain set."""

    monoid: "DimMonoid | None" = None
    finite: "tuple | None" = None

    def __post_init__(self):
        if (self.monoid is None) == (self.finite is None):
            raise ValueError("exactly one of monoid/finite must be given")

    @staticmethod
    def of_monoid(m: DimMonoid) -> "DimSet":
        return DimSet(monoid=m)

    @staticmethod
    def plain(elements) -> "DimSet":
        return DimSet(finite=tuple(elements))

    @staticmethod
    def pairs(left: "DimSet", right: "DimSet") -> "DimSet":
        le, re = left.elements(), right.elements()
        if le is None or re is None:
            raise CarrierError("product dimension sets need finite factors")
        return DimSet.plain(tuple(itertools.product(le, re)))

    def contains(self, d) -> bool:
        if self.monoid is not None:
            return self.monoid.contains(d)
        return d in self.finite

    def elements(self):
        if self.monoid is not None:
            return self.monoid.elements()
        return self.finite

    def sample(self, rng: random.Random):
        if self.monoid is not None:
            return self.monoid.sample(rng)
        return rng.choice(self.finite)

    def probe(self) -> tuple:
        """A finite, documented set of dimensions to quantify laws over."""
        if self.monoid is not None:
            return self.monoid.probe_words(2)
        return self.finite
