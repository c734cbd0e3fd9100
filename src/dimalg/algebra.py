"""Bilinear multiplications on dimensioned modules, their property
checkers, and derivations with a dimension shift.

The checkers treat candidate multiplications as black boxes: a function
on element pairs together with its dimension map.  Failures come back as
report lines with witnesses, never as exceptions, so hand-broken
candidates can be exercised.
"""

import itertools
from typing import Callable, NamedTuple

from .core import DimElement
from .errors import CarrierError, ConstructionError, DimensionMismatch
from .poly import GradedPolyRing, leibniz
from .report import CheckReport
from .ring import probe_cases, probe_triples


class ProbeSpace(NamedTuple):
    """The probes and arithmetic hooks of a checker's black box."""

    elements: tuple                  # the probes, in one fixed order
    add: Callable
    act: Callable                    # (ring elem, element) -> element
    ring_elements: tuple             # the acting ring's probes
    ring_dim_act: Callable           # (ring dim, dim) -> dim
    dims: tuple                      # the probe dimensions
    neg: Callable = None
    is_zero: Callable = None


def ring_probe_space(ring) -> ProbeSpace:
    """A dimensioned ring as a module over itself, on its probe set."""
    probes = ring.probe_elements()
    return ProbeSpace(
        elements=probes,
        add=ring.add,
        act=ring.mul,
        ring_elements=probes,
        ring_dim_act=ring.dims.combine,
        dims=ring.probe_dims(),
        neg=ring.neg,
        is_zero=ring.is_zero,
    )


def bilinear_check(space: ProbeSpace, mul: Callable, dim_map: Callable) -> CheckReport:
    """The three bilinearity laws of a candidate multiplication plus the
    equivariance of its dimension map under the monoid action, on the
    `probe_cases` of the elements' triples (a, b, c) and the ring's (_, r, s)."""
    rep = CheckReport("bilinear multiplication")
    add, act = space.add, space.act

    def left(a, b, c, r, s):
        if mul(add(a, b), c) != add(mul(a, c), mul(b, c)):
            return f"M(a+b, c) != M(a,c)+M(b,c) at {a}, {b}, {c}"

    def right(a, b, c, r, s):
        if mul(c, add(a, b)) != add(mul(c, a), mul(c, b)):
            return f"M(c, a+b) != M(c,a)+M(c,b) at {c}, {a}, {b}"

    def outside(a, b, c, r, s):
        if mul(act(r, a), act(s, c)) != act(r, act(s, mul(a, c))):
            return f"M(r·a, s·c) != r·s·M(a,c) at {r}, {s}, {a}, {c}"

    def equivariant(a, b, c, r, s):
        d, e, g, h = a.dim, c.dim, r.dim, s.dim
        dact = space.ring_dim_act
        if dim_map(dact(g, d), dact(h, e)) != dact(g, dact(h, dim_map(d, e))):
            return f"mu(gd, he) != gh·mu(d, e) at {g!r}, {h!r}, {d!r}, {e!r}"

    cases = [(*t, r, s) for t, (_, r, s) in
             probe_cases(probe_triples(space.elements), probe_triples(space.ring_elements))]
    rep.law("additive in the left slot", cases, left)
    rep.law("additive in the right slot", cases, right)
    rep.law("module action moves outside", cases, outside)
    rep.law("dimension map covers the product", cases,
            lambda a, b, c, *_: mul(a, c).dim != dim_map(a.dim, c.dim)
            and f"dim of M({a}, {c}) is not mu(d, e)")
    rep.law("dimension map is equivariant", cases, equivariant)
    return rep


PROPERTIES = ("symmetric", "antisymmetric", "associative", "jacobi")


def jacobiator(mul, add, a, b, c):
    """M(a,M(b,c)) + M(b,M(c,a)) + M(c,M(a,b)), which the Jacobi identity makes zero."""
    return add(mul(a, mul(b, c)), add(mul(b, mul(c, a)), mul(c, mul(a, b))))


def property_check(space: ProbeSpace, mul: Callable, dim_map: Callable, prop: str) -> CheckReport:
    """Check a 2-/3-element identity of a multiplication on the elements'
    `probe_triples` (a, b, c); a 2-element one at (a, b), within a slice,
    and at (a, c).

    The dimension binar is checked first, on every triple of probe
    dimensions: (anti)symmetry forces it to be commutative and
    associativity/Jacobi force it to be associative, so a failure there is
    reported before any element-level check runs.
    """
    if prop not in PROPERTIES:
        raise CarrierError(f"unknown property {prop!r}")
    rep = CheckReport(f"property: {prop}")

    def binar(d, e, f):
        if prop in ("symmetric", "antisymmetric"):
            if dim_map(d, e) != dim_map(e, d):
                return f"dimension binar not commutative at {d!r}, {e!r}"
        elif dim_map(dim_map(d, e), f) != dim_map(d, dim_map(e, f)):
            return f"dimension binar not associative at {d!r}, {e!r}, {f!r}"

    rep.law("dimension binar prerequisite", itertools.product(space.dims, repeat=3), binar)
    if not rep.ok:
        return rep

    def identity(a, b, c):
        if prop in ("symmetric", "antisymmetric"):
            sign = "-" * (prop == "antisymmetric")
            for x, y in ((a, b), (a, c)):
                if mul(x, y) != (space.neg(mul(y, x)) if sign else mul(y, x)):
                    return f"M(a,b) != {sign}M(b,a) at {x}, {y}"
        elif prop == "associative":
            if mul(mul(a, b), c) != mul(a, mul(b, c)):
                return f"associator nonzero at {a}, {b}, {c}"
        elif not space.is_zero(jacobiator(mul, space.add, a, b, c)):
            return f"jacobiator nonzero at {a}, {b}, {c}"

    rep.law(f"{prop} identity on probes", probe_triples(space.elements), identity)
    return rep


# ---------------------------------------------------------------------------
# Derivations of a graded polynomial ring
# ---------------------------------------------------------------------------


class DimDerivation:
    """A derivation with a dimension shift: it moves every slice by one
    fixed monoid element.  `apply` is `poly.leibniz`, Σᵢ ∂ᵢf·D(xᵢ) over
    the generator images, so D(fg) = D(f)g + fD(g) follows from the
    product rule, and no law is left to probe.  A shift of the wrong rank
    or an image of a name that is no generator is a ConstructionError."""

    def __init__(self, ring: GradedPolyRing, shift, images: dict, label: str = "D"):
        self.ring = ring
        self.shift = tuple(shift)
        if len(self.shift) != ring.rank:
            raise ConstructionError(
                f"shift has {len(self.shift)} exponents, expected {ring.rank}")
        for name in images:
            if name not in ring.index:
                raise ConstructionError(f"image of {name!r}, which is not a generator")
        self.images = {}
        for name, dim in zip(ring.gen_names, ring.gen_dims):
            expect = tuple(s + g for s, g in zip(self.shift, dim))
            img = images.get(name, ring.zero(expect))
            if img.dim != expect:
                raise ConstructionError(
                    f"image of {name} sits at {img.dim}, expected shift+dim {expect}"
                )
            self.images[name] = img
        self.label = label

    def apply(self, f: DimElement) -> DimElement:
        """Leibniz extension from the generator images; the result lives
        in the slice shifted by the derivation's shift."""
        rows = dict(enumerate(img.value for img in self.images.values()))
        dim = tuple(s + d for s, d in zip(self.shift, f.dim))
        return self.ring._of(leibniz(f.value, rows), dim)

    __call__ = apply

    def commutator(self, other: "DimDerivation") -> "DimDerivation":
        """[self, other] = self∘other - other∘self, again a derivation, so
        its generator images define it; shifts add because the dimension
        group is commutative, and __init__ checks each image's slice."""
        if self.ring is not other.ring:
            raise CarrierError("commutator needs one carrier ring")
        ring = self.ring
        shift = tuple(a + b for a, b in zip(self.shift, other.shift))
        images = {}
        for name in ring.gen_names:
            x = ring.generator(name)
            images[name] = ring.sub(self.apply(other.apply(x)), other.apply(self.apply(x)))
        return DimDerivation(ring, shift, images, f"[{self.label},{other.label}]")

    def __eq__(self, other):
        if other.__class__ is not DimDerivation:
            return NotImplemented
        return self.shift == other.shift and self.images == other.images

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(img) for img in self.images.values())


def dimensionless_restriction(delta: DimDerivation):
    """Restrict a shift-zero derivation to the dimensionless slice, where
    it is an ordinary ring derivation."""
    if any(s != 0 for s in delta.shift):
        raise CarrierError("only shift-zero derivations restrict to the dimensionless ring")

    zero_dim = (0,) * delta.ring.rank

    class Restricted:
        ring = delta.ring
        label = f"{delta.label}|dimensionless"

        @staticmethod
        def apply(f: DimElement) -> DimElement:
            if f.dim != zero_dim:
                raise DimensionMismatch(f.dim, zero_dim, "dimensionless restriction")
            return delta.apply(f)

        __call__ = apply

    return Restricted()
