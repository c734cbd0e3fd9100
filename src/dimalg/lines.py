"""Lines, factors, and power rings: the rigorous model of physical quantities.

A line is a 1-dimensional rational vector space -- a set of numbers
without a chosen unit.  Its power ring collects all integer tensor
powers into a dimensioned field over the exponent group Z^k; elements
carry a coordinate relative to an internal reference basis that is never
exposed: every observable is invariant under re-expressing through a
factor, which the functoriality suite checks.

Coordinate conventions: the dual reference basis pairs to 1, so the
tensor multiplication multiplies coordinates and adds exponent vectors,
and the power of a factor with scalar b acts on exponent n by b**n.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .carriers import Rationals
from .errors import CarrierError
from .group import DimElement
from .monoid import DimMonoid
from .report import Checked, CheckReport
from .ring import ProductDimRing, RingMorphism, multiplicative_section, unit_section_check
from .sampling import rand_nonzero_fraction


@dataclass(frozen=True)
class Line:
    """A 1-dimensional rational vector space, identified by name only."""

    name: str


@dataclass(frozen=True)
class Factor:
    """An invertible linear map between lines: a unit-free conversion factor.

    `scalar` is the coordinate of the image of the source reference basis.
    """

    src: Line
    dst: Line
    scalar: Fraction

    def __post_init__(self):
        if self.scalar == 0:
            raise CarrierError("a factor must be invertible (nonzero)")

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
        """An element of the scalar slice (all exponents zero)."""
        return self.element(coord, (0,) * self.rank)

    # tensor multiplication in coordinates: the six even/odd/mixed power
    # cases all reduce to coordinate product + exponent sum under the
    # pairing normalization
    odot = ProductDimRing.mul

    def sample_nonzero(self, rng: random.Random, dim=None):
        d = self.sample_dim(rng) if dim is None else tuple(dim)
        return DimElement(rand_nonzero_fraction(rng), d)

    def show(self, a):
        return f"{a.value}·[{','.join(map(str, a.dim))}]"


def power_functor(factor: Factor) -> RingMorphism:
    """The power of a factor: on exponent n the coordinate multiplies by
    scalar**n (negative powers act through the inverse transpose), and the
    scalar slice is fixed pointwise.  The result is a morphism of
    dimensioned rings between the two single-line power rings."""
    src_ring = PowerRing((factor.src,))
    dst_ring = PowerRing((factor.dst,))
    beta = factor.scalar

    def fn(a: DimElement) -> DimElement:
        n = a.dim[0]
        return DimElement(a.value * beta**n, a.dim)

    return RingMorphism(src_ring, dst_ring, lambda d: d, fn, f"{factor.src.name}->{factor.dst.name}^power")


def functoriality_check(b: Factor, c: Factor) -> CheckReport:
    """Composition and identity laws of the power construction across the
    exponents -3..3, decided there by the coordinates 1, -2 and 3/7: at a
    fixed exponent each law is linear in the coordinate."""
    rep = CheckReport("power functor laws")
    if b.dst != c.src:
        raise CarrierError("factors do not compose")
    cb = power_functor(c.compose(b))
    c_after_b = power_functor(c).compose(power_functor(b))
    src = PowerRing((b.src,))
    probe_coords = [Fraction(1), Fraction(-2), Fraction(3, 7)]
    exp_range = range(-3, 4)
    xs = [src.element(q, (n,)) for n in exp_range for q in probe_coords]
    rep.law("composition law", zip(xs), lambda x: cb(x) != c_after_b(x)
            and f"(C∘B)^power != C^power∘B^power at {src.show(x)}")
    ident = power_functor(Factor.identity(b.src))
    rep.law("identity law", zip(xs),
            lambda x: ident(x) != x and f"(id)^power moved {src.show(x)}")
    bp = power_functor(b)

    def multiplicative(n, m):
        x = src.element(probe_coords[0], (n,))
        y = src.element(probe_coords[2], (m,))
        if bp(src.mul(x, y)) != bp.codomain.mul(bp(x), bp(y)):
            return f"B^power not multiplicative at {src.show(x)},{src.show(y)}"

    rep.law("preserves the tensor multiplication",
            [(n, m) for n in exp_range for m in exp_range], multiplicative)
    return rep


def line_unit_to_section(ring: PowerRing, unit_coords) -> Checked:
    """Turn one nonzero element per line into a unit section of the power
    ring: U(n_1..n_k) is the tensor product of the per-line unit powers."""
    coords = [Fraction(c) for c in unit_coords]
    if len(coords) != ring.rank:
        raise CarrierError("need exactly one unit per line")
    if any(c == 0 for c in coords):
        raise CarrierError("a unit in a line must be nonzero")
    gens = {
        i: ring.element(c, tuple(int(j == i) for j in range(ring.rank)))
        for i, c in enumerate(coords)
    }
    return unit_section_check(ring, multiplicative_section(ring, gens))


def embed_line(ring: PowerRing, i: int) -> RingMorphism:
    """The i-th single-line power ring as a dimensioned subfield: all other
    exponents pinned at zero."""
    sub = PowerRing((ring.lines[i],))

    def dim_map(d):
        return tuple(d[0] if j == i else 0 for j in range(ring.rank))

    def fn(a: DimElement) -> DimElement:
        return DimElement(a.value, dim_map(a.dim))

    return RingMorphism(sub, ring, dim_map, fn, f"embed {ring.lines[i].name}")
