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
`Line`, `Factor` and `PowerRing` are defined in `core` and re-exported here.
"""

from fractions import Fraction

from .core import DimElement, Factor, Line, PowerRing
from .errors import CarrierError
from .report import Checked, CheckReport
from .ring import RingMorphism, multiplicative_section, unit_section_check


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
