"""Seeded random inputs for the tests; the library itself never draws.

Each function makes the `rng` calls, in order, that the library's
`sample` methods made before they were removed, so a seeded test draws
the values it always drew.  Values are small exact rationals and
integers, so equalities stay bit-exact and witnesses stay readable.
"""

from fractions import Fraction

from dimalg import DimAbGroup, EndoRing, FreeDimModule, GradedPolyRing, GSet
from dimalg.core import DimElement, ProductDimRing
from dimalg.structure import TableDimRing


def fraction(rng) -> Fraction:
    """n/d with -9 <= n <= 9 and 1 <= d <= 9."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def nonzero_fraction(rng) -> Fraction:
    f = fraction(rng)
    while f == 0:
        f = fraction(rng)
    return f


def dimension(dims, rng):
    """A dimension of a monoid, a finite dimension set or a G-set (a monoid
    element, then an orbit); a free abelian one's exponents run from -3 to 3."""
    if isinstance(dims, GSet):
        return (dimension(dims.monoid, rng), rng.choice(dims.orbits))
    if getattr(dims, "rank", None) is not None:
        return tuple(rng.randint(-3, 3) for _ in range(dims.rank))
    return rng.choice(dims.elements())


def coords(carrier, rng):
    """A slice element: one draw per generator, in generator order."""
    return carrier.from_coords(tuple(
        fraction(rng) if n is None else rng.randrange(n) if n else rng.randint(-3, 3)
        for n in carrier.orders()
    ))


def element(s, rng, dim=None, max_degree: int = 3) -> DimElement:
    """An element of a ring, group or free module, in slice `dim` or in a
    drawn one.  A polynomial is `GradedPolyRing.sample`'s, of degree at
    most `max_degree`; a module element, a drawn ring element on a drawn
    basis vector.  Any other structure is a TypeError."""
    if isinstance(s, FreeDimModule):
        name = rng.choice(s.basis)[0]
        r = element(s.ring, rng)
        c = s._coefficient(r)
        return s.element(s.gset.act(c.dim, s.basis_dim[name]), {name: c})
    if isinstance(s, GradedPolyRing):
        return s.sample(rng, dim, max_degree)
    d = dimension(s.dims, rng) if dim is None else dim
    if isinstance(s, EndoRing):
        return DimElement(tuple(fraction(rng) for _ in s.points), d)
    if isinstance(s, TableDimRing):
        return s.el(rng.choice(s.slices[d]))
    if isinstance(s, DimAbGroup):
        return DimElement(coords(s.slice(d), rng), d)
    if isinstance(s, ProductDimRing):  # Q x D and the power rings
        return DimElement(fraction(rng), d)
    raise TypeError(f"no draw for {type(s).__name__}")
