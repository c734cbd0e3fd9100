"""Bilinear multiplications on dimensioned modules, their property
checkers, and derivations with a dimension shift.

The checkers treat candidate multiplications as black boxes: a function
on element pairs together with its dimension map.  Failures come back as
report lines with witnesses, never as exceptions, so hand-broken
candidates can be exercised.
"""

import random
from typing import Callable, NamedTuple

from .core import DimElement
from .errors import CarrierError, ConstructionError, DimensionMismatch
from .poly import GradedPolyRing
from .report import CheckReport
from .ring import jacobiator


class ProbeSpace(NamedTuple):
    """Sampling and arithmetic hooks the checkers draw probes from."""

    sample: Callable                 # rng -> element
    sample_like: Callable            # rng, element -> same-slice element
    add: Callable
    eq: Callable
    dim_of: Callable                 # element -> dimension
    act: Callable                    # (ring elem, element) -> element
    sample_ring: Callable            # rng -> ring element
    ring_dim_act: Callable           # (ring dim, dim) -> dim
    sample_dim: Callable             # rng -> dimension
    neg: Callable = None
    is_zero: Callable = None


def ring_probe_space(ring) -> ProbeSpace:
    """A dimensioned ring as a module over itself."""
    return ProbeSpace(
        sample=ring.sample,
        sample_like=lambda rng, a: ring.sample(rng, dim=a.dim),
        add=ring.add,
        eq=ring.eq,
        dim_of=lambda a: a.dim,
        act=ring.mul,
        sample_ring=ring.sample,
        ring_dim_act=ring.dims.combine,
        sample_dim=ring.sample_dim,
        neg=ring.neg,
        is_zero=ring.is_zero,
    )


def bilinear_check(
    space: ProbeSpace,
    mul: Callable,
    dim_map: Callable,
    rng=None,
    probes: int = 30,
) -> CheckReport:
    """The three bilinearity laws of a candidate multiplication plus the
    equivariance of its dimension map under the monoid action."""
    rng = rng or random.Random(41)
    rep = CheckReport("bilinear multiplication")
    add, eq, act, dim_of = space.add, space.eq, space.act, space.dim_of

    def draw():
        a = space.sample(rng)
        b = space.sample_like(rng, a)
        return a, b, space.sample(rng), space.sample_ring(rng), space.sample_ring(rng)

    def left(a, b, c, r, s):
        if not eq(mul(add(a, b), c), add(mul(a, c), mul(b, c))):
            return f"M(a+b, c) != M(a,c)+M(b,c) at {a}, {b}, {c}"

    def right(a, b, c, r, s):
        if not eq(mul(c, add(a, b)), add(mul(c, a), mul(c, b))):
            return f"M(c, a+b) != M(c,a)+M(c,b) at {c}, {a}, {b}"

    def outside(a, b, c, r, s):
        if not eq(mul(act(r, a), act(s, c)), act(r, act(s, mul(a, c)))):
            return f"M(r·a, s·c) != r·s·M(a,c) at {r}, {s}, {a}, {c}"

    def equivariant(a, b, c, r, s):
        d, e, g, h = dim_of(a), dim_of(c), r.dim, s.dim
        dact = space.ring_dim_act
        if dim_map(dact(g, d), dact(h, e)) != dact(g, dact(h, dim_map(d, e))):
            return f"mu(gd, he) != gh·mu(d, e) at {g!r}, {h!r}, {d!r}, {e!r}"

    cases = [draw() for _ in range(probes)]
    rep.law("additive in the left slot", cases, left)
    rep.law("additive in the right slot", cases, right)
    rep.law("module action moves outside", cases, outside)
    rep.law("dimension map covers the product", cases,
            lambda a, b, c, *_: dim_of(mul(a, c)) != dim_map(dim_of(a), dim_of(c))
            and f"dim of M({a}, {c}) is not mu(d, e)")
    rep.law("dimension map is equivariant", cases, equivariant)
    return rep


PROPERTIES = ("symmetric", "antisymmetric", "associative", "jacobi")


def property_check(
    space: ProbeSpace,
    mul: Callable,
    dim_map: Callable,
    prop: str,
    rng=None,
) -> CheckReport:
    """Check a 2-/3-element identity of a multiplication on probe tuples.

    The dimension binar is checked first: (anti)symmetry forces it to be
    commutative and associativity/Jacobi force it to be associative, so a
    failure there is reported before any element-level check runs.
    """
    if prop not in PROPERTIES:
        raise CarrierError(f"unknown property {prop!r}")
    rng = rng or random.Random(43)
    rep = CheckReport(f"property: {prop}")

    def draws(sample):
        return [tuple(sample(rng) for _ in range(3)) for _ in range(30)]

    def binar(d, e, f):
        if prop in ("symmetric", "antisymmetric"):
            if dim_map(d, e) != dim_map(e, d):
                return f"dimension binar not commutative at {d!r}, {e!r}"
        elif dim_map(dim_map(d, e), f) != dim_map(d, dim_map(e, f)):
            return f"dimension binar not associative at {d!r}, {e!r}, {f!r}"

    rep.law("dimension binar prerequisite", draws(space.sample_dim), binar)
    if not rep.ok:
        return rep

    def identity(a, b, c):
        if prop == "symmetric":
            if not space.eq(mul(a, b), mul(b, a)):
                return f"M(a,b) != M(b,a) at {a}, {b}"
        elif prop == "antisymmetric":
            if not space.eq(mul(a, b), space.neg(mul(b, a))):
                return f"M(a,b) != -M(b,a) at {a}, {b}"
        elif prop == "associative":
            if not space.eq(mul(mul(a, b), c), mul(a, mul(b, c))):
                return f"associator nonzero at {a}, {b}, {c}"
        elif not space.is_zero(jacobiator(mul, space.add, a, b, c)):
            return f"jacobiator nonzero at {a}, {b}, {c}"

    rep.law(f"{prop} identity on probes", draws(space.sample), identity)
    return rep


# ---------------------------------------------------------------------------
# Derivations of a graded polynomial ring
# ---------------------------------------------------------------------------


class DimDerivation:
    """A derivation with a dimension shift: it moves every slice by one
    fixed monoid element.  `apply` is the Leibniz extension Σᵢ ∂ᵢf·D(xᵢ)
    of the generator images, so D(fg) = D(f)g + fD(g) follows from the
    product rule for `partial`, and no law is left to probe."""

    def __init__(self, ring: GradedPolyRing, shift, images: dict, label: str = "D"):
        self.ring = ring
        self.shift = tuple(shift)
        self.images = {}
        for name in ring.gen_names:
            expect = tuple(
                s + g for s, g in zip(self.shift, ring.gen_dims[ring.index[name]])
            )
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
        ring = self.ring
        out = ring.zero(tuple(s + d for s, d in zip(self.shift, f.dim)))
        for name in ring.gen_names:
            df = ring.partial(f, name)
            if not df.value:
                continue
            out = ring.add(out, ring.mul(df, self.images[name]))
        return out

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

    def eq(self, other: "DimDerivation") -> bool:
        return self.shift == other.shift and all(
            self.ring.eq(self.images[n], other.images[n]) for n in self.ring.gen_names
        )

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
