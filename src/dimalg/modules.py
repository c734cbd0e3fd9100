"""Dimensioned modules over a dimensioned ring.

Dimension sets of modules are free G-sets with finite orbit index sets:
points are (g, orbit) pairs, the ring's dimension monoid acts on the
left coordinate, and pullbacks let a different monoid act through a
morphism.  Modules are free with finite bases; every element is
dimension-homogeneous, so its terms involve basis vectors of one orbit
with coefficient dimensions that land it in a single slice.

A module element is a DimElement whose value is the canonical sorted
tuple of (basis name, coefficient) pairs; coefficients are elements of
the coefficient ring, which coincides with the acting ring except for
pullbacks (same carrier, new ring acting through the morphism).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import DimElement
from .errors import CarrierError, ConstructionError, DimensionMismatch
from .linalg import rref
from .monoid import DimMonoid
from .poly import GradedPolyRing
from .report import Checked, CheckReport
from .ring import DimRing, Ideal, RingMorphism, probe_cases, probe_triples, quotient_ring, slot_rows


@dataclass(frozen=True)
class GSet:
    """A free action of a monoid on (monoid element, orbit) pairs, by
    translation of the left coordinate."""

    monoid: DimMonoid
    orbits: tuple

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))

    def contains(self, d) -> bool:
        return (
            isinstance(d, tuple)
            and len(d) == 2
            and self.monoid.contains(d[0])
            and d[1] in self.orbits
        )

    def act(self, g, d):
        return (self.monoid.combine(g, d[0]), d[1])


@dataclass(frozen=True)
class GSetTensor:
    gset: GSet
    eta: Callable  # (d, e) -> canonical representative of the class of (d, e)


def gset_tensor(d: GSet, e: GSet) -> GSetTensor:
    """The product of two G-sets modulo sliding the action across factors.

    Orbit index is the pair of indices; the representative of the class
    of ((g,i),(h,j)) is (g∘h, (i,j)), which is exactly the quotient by
    (gd, e) ~ (d, ge) because the actions are free.
    """
    if d.monoid != e.monoid:
        raise CarrierError("tensor of G-sets needs one acting monoid")
    out = GSet(d.monoid, tuple(itertools.product(d.orbits, e.orbits)))

    def eta(x, y):
        return (d.monoid.combine(x[0], y[0]), (x[1], y[1]))

    return GSetTensor(out, eta)


def _term_key(item):
    return repr(item[0])


class FreeDimModule:
    """A free dimensioned module with a finite dimension-tagged basis.

    Coefficients live in `coeff_ring`.  The acting ring `ring` is the domain
    of `along`, a morphism into `coeff_ring`, or `coeff_ring` itself.
    """

    def __init__(
        self,
        coeff_ring: DimRing,
        gset: GSet,
        basis,
        label: str = "module",
        along: "RingMorphism | None" = None,
    ):
        if along is not None and along.codomain is not coeff_ring:
            raise CarrierError(f"{label}: along ends in {along.codomain.label}, "
                               f"not in the coefficient ring {coeff_ring.label}")
        if gset.monoid != coeff_ring.dims:
            raise CarrierError(f"{label}: G-set over {gset.monoid!r}, not {coeff_ring.dims!r}")
        self.coeff_ring = coeff_ring
        self.along = along
        self.ring = along.domain if along else coeff_ring
        self.gset = gset
        self.basis = tuple(basis)
        for _, d in self.basis:
            if not gset.contains(d):
                raise CarrierError(f"basis dimension {d!r} is not a G-set point")
        self.basis_dim = dict(self.basis)
        if len(self.basis_dim) != len(self.basis):
            raise ConstructionError("duplicate basis names")
        self.label = label

    # -- element construction ------------------------------------------------
    def element(self, dim, terms: dict) -> DimElement:
        if not self.gset.contains(dim):
            raise CarrierError(f"{dim!r} is not a module dimension")
        canon = []
        for name, coeff in terms.items():
            if name not in self.basis_dim:
                raise CarrierError(f"unknown basis vector {name!r}")
            if self.coeff_ring.is_zero(coeff):
                continue
            placed = self.gset.act(coeff.dim, self.basis_dim[name])
            if placed != dim:
                raise DimensionMismatch(placed, dim, self.label)
            canon.append((name, coeff))
        return DimElement(tuple(sorted(canon, key=_term_key)), dim)

    def basis_element(self, name) -> DimElement:
        return self.element(self.basis_dim[name], {name: self.coeff_ring.one})

    def zero(self, dim) -> DimElement:
        return self.element(dim, {})

    # -- additive structure ----------------------------------------------------
    def add(self, a, b):
        if a.dim != b.dim:
            raise DimensionMismatch(a.dim, b.dim, self.label)
        acc = dict(a.value)
        for name, coeff in b.value:
            acc[name] = self.coeff_ring.add(acc[name], coeff) if name in acc else coeff
        return self.element(a.dim, acc)

    def neg(self, a):
        return DimElement(
            tuple((n, self.coeff_ring.neg(c)) for n, c in a.value), a.dim
        )

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return not a.value

    # -- the module action --------------------------------------------------------
    def _coefficient(self, r: DimElement) -> DimElement:
        """The coefficient-ring element that r acts as."""
        return self.along(r) if self.along else r

    def act(self, r: DimElement, a: DimElement) -> DimElement:
        """r_g · a_d, landing in the slice over g·d."""
        return self.coeff_act(self._coefficient(r), a)

    def coeff_act(self, c: DimElement, a: DimElement) -> DimElement:
        """Scaling by a coefficient-ring element."""
        out = {n: self.coeff_ring.mul(c, x) for n, x in a.value}
        return self.element(self.gset.act(c.dim, a.dim), out)

    # -- probing ----------------------------------------------------------------------
    def probe_elements(self) -> tuple:
        """r·e for each basis vector e and each probe r of the acting ring."""
        probes = self.ring.probe_elements()
        return tuple(self.act(r, self.basis_element(n)) for n, _ in self.basis for r in probes)

    def show(self, a: DimElement) -> str:
        if not a.value:
            return f"0 @ {a.dim}"
        body = " + ".join(
            f"{self.coeff_ring.show(c)}·{n}" for n, c in a.value
        )
        return f"{body} @ {a.dim}"


def module_axiom_report(m: FreeDimModule) -> CheckReport:
    """Four module laws, each a coefficient-ring law on the first basis vector e.

    `FreeDimModule`'s own `add` and `coeff_act` work term by term and its
    G-set action is free, so a law holds everywhere iff it holds on every
    c·e: r(a+b) and (r+p)a restate distributivity, (rq)a associativity and
    1·a unitality.  Each is given its ring law's `slot_rows`, the slot rule
    as a row with no premise (`ring` docstring), and without one runs the
    `probe_triples` of the ring's probes, as `RingMorphism.check`.  A
    pullback's report ends with `along.check`: its dimension square is the
    action's dimension law, which `coeff_act` holds by construction."""
    rep = CheckReport(f"module axioms for {m.label}")
    ring, show = m.coeff_ring, m.show
    name, bd = m.basis[0] if m.basis else (None, None)
    slots = ring.slots() if m.basis else None  # an empty basis has no case
    probes = probe_triples(ring.probe_elements()) if m.basis else ()

    def on_e(c):
        return m.element(m.gset.act(c.dim, bd), {name: c})

    def distributive(a, b, c):
        x, y = on_e(a), on_e(b)
        if m.coeff_act(c, m.add(x, y)) != m.add(m.coeff_act(c, x), m.coeff_act(c, y)):
            return f"r(a+b) != ra+rb at {c}, {show(x)}, {show(y)}"

    def additive(a, b, c):
        x = on_e(c)
        if m.coeff_act(ring.add(a, b), x) != m.add(m.coeff_act(a, x), m.coeff_act(b, x)):
            return f"(r+p)a != ra+pa at {a}, {b}, {show(x)}"

    def associative(a, b, c):
        x = on_e(c)
        if m.coeff_act(ring.mul(a, b), x) != m.coeff_act(a, m.coeff_act(b, x)):
            return f"(rq)a != r(qa) at {a}, {b}, {show(x)}"

    def unital(a, *_):
        x = on_e(a)
        return m.coeff_act(ring.one, x) != x and f"1·a != a at {show(x)}"

    dist = slot_rows(slots, "distributivity where defined")
    rep.law("r(a+b) = ra + rb", probes, distributive, *dist)
    rep.law("(r+p)a = ra + pa", probes, additive, *dist)
    rep.law("(rq)a = r(qa)", probes, associative, *slot_rows(slots, "multiplicative associativity"))
    rep.law("1·a = a", probes, unital, *slot_rows(slots, "unitality"))
    return rep.merged(m.along.check()) if m.along else rep


# ---------------------------------------------------------------------------
# Twisted-linear maps (plain linear maps are the identity-twist case)
# ---------------------------------------------------------------------------


class TwistedLinearMap:
    """A module map over a ring morphism: Phi(r·a) = phi(r)·Phi(a).

    `coeff_mor` carries the stored coefficients from `src.coeff_ring` to
    `dst.coeff_ring`; the twist phi is derived from it, r |-> coeff_mor(along(r)).
    """

    def __init__(
        self,
        src: FreeDimModule,
        dst: FreeDimModule,
        coeff_mor: RingMorphism,
        images: dict,
        label: str = "linear-map",
    ):
        self.src = src
        self.dst = dst
        self.coeff_mor = coeff_mor
        self.twist = coeff_mor.compose(src.along) if src.along else coeff_mor
        self.images = dict(images)
        self.label = label
        missing = set(src.basis_dim) - set(self.images)
        if missing:
            raise ConstructionError(
                f"no image for basis vectors {sorted(map(repr, missing))}"
            )

    def dim_map(self, d):
        """The twisted-equivariant dimension map the basis images determine:
        d = g·bd, g = d·bd⁻¹ in a group, else a finite monoid's first such g."""
        monoid = self.src.gset.monoid
        for name, bd in self.src.basis:
            if bd[1] != d[1]:
                continue
            shifts = ([monoid.combine(d[0], monoid.inverse(bd[0]))] if monoid.is_group else
                      [g for g in monoid.elements() if monoid.combine(g, bd[0]) == d[0]])
            if shifts:
                return self.dst.gset.act(self.coeff_mor.dim_map(shifts[0]), self.images[name].dim)
        raise CarrierError(f"cannot transport dimension {d!r}")

    def apply(self, a: DimElement) -> DimElement:
        out = None
        for name, coeff in a.value:
            term = self.dst.coeff_act(self.coeff_mor(coeff), self.images[name])
            out = term if out is None else self.dst.add(out, term)
        if out is None:
            return self.dst.zero(self.dim_map(a.dim))
        return out

    __call__ = apply

    def compose(self, other: "TwistedLinearMap") -> "TwistedLinearMap":
        images = {name: self.apply(img) for name, img in other.images.items()}
        return TwistedLinearMap(
            other.src,
            self.dst,
            self.coeff_mor.compose(other.coeff_mor),
            images,
            f"{self.label}∘{other.label}",
        )

    def scaled(self, r: DimElement) -> "TwistedLinearMap":
        """The module action on maps: (r·Phi)(a) := phi(r)·Phi(a)."""
        return TwistedLinearMap(
            self.src,
            self.dst,
            self.coeff_mor,
            {n: self.dst.coeff_act(self.twist(r), img) for n, img in self.images.items()},
            f"r·{self.label}",
        )

    @staticmethod
    def identity(m: FreeDimModule) -> "TwistedLinearMap":
        return TwistedLinearMap(
            m,
            m,
            RingMorphism.identity(m.coeff_ring),
            {name: m.basis_element(name) for name, _ in m.basis},
            "id",
        )


def linear_map_check(
    src: FreeDimModule,
    dst: FreeDimModule,
    images: dict,
    coeff_mor: "RingMorphism | None" = None,
) -> Checked:
    """Validate a candidate (twisted-)linear map given on the basis, its
    coefficients carried by `coeff_mor` (the identity by default).

    Checks that `images` is keyed by exactly the basis names and that the
    images land in equivariantly consistent slices; failures carry a
    witness.  The map is the linear extension of the basis images, so,
    given both modules' own laws (`module_axiom_report`), it is additive
    and twisted-linear exactly when `coeff_mor` is a ring morphism: its
    `RingMorphism.check` ends the report.
    """
    coeff_mor = coeff_mor or RingMorphism.identity(src.coeff_ring)
    rep = CheckReport("linear map candidate")

    names = [name for name, _ in src.basis]
    unkeyed = [n for n in names if n not in images] + [n for n in images if n not in names]
    rep.law("images keyed by the basis names", zip(unkeyed),
            lambda name: f"no image of basis element {name!r}" if name in names
            else f"image of {name!r}, which names no basis element")
    rep.law("images live in the codomain", images.items(),
            lambda name, img: not dst.gset.contains(img.dim)
            and f"image of {name!r} has no valid dimension")
    if unkeyed:  # the laws below index the images by basis name
        return Checked(None, rep)

    candidate = TwistedLinearMap(src, dst, coeff_mor, images)
    first = {}  # each orbit's first basis vector, whose image orbit the others share
    for name, bd in src.basis:
        first.setdefault(bd[1], name)

    def equivariant(name, bd):
        img, ref = images[name].dim, images[first[bd[1]]].dim
        if img[1] != ref[1]:
            return f"orbit {bd[1]!r} scattered across image orbits {ref[1]!r} and {img[1]!r}"
        if img != candidate.dim_map(bd):
            return (f"image of {name!r} sits in slice {img!r}, "
                    f"not the equivariant slice {candidate.dim_map(bd)!r}")

    rep.law("dimension map is twisted-equivariant", src.basis, equivariant)
    if not rep.ok:
        return Checked(None, rep)

    rep = rep.merged(coeff_mor.check())
    return Checked(candidate if rep.ok else None, rep)


# ---------------------------------------------------------------------------
# Direct sums and tensor products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleSum:
    module: FreeDimModule
    inject_left: TwistedLinearMap
    inject_right: TwistedLinearMap


def direct_sum_mod(a: FreeDimModule, b: FreeDimModule) -> ModuleSum:
    if a.coeff_ring is not b.coeff_ring or a.along is not b.along:
        raise CarrierError("direct sum needs one base ring acting through one morphism")
    if a.gset != b.gset:
        raise DimensionMismatch(a.gset.orbits, b.gset.orbits, "direct_sum_mod")
    basis = [((0, n), d) for n, d in a.basis] + [((1, n), d) for n, d in b.basis]
    out = FreeDimModule(a.coeff_ring, a.gset, basis, f"{a.label}(+){b.label}", a.along)
    ident = RingMorphism.identity(a.coeff_ring)
    li = TwistedLinearMap(
        a, out, ident, {n: out.basis_element((0, n)) for n, _ in a.basis}, "inl"
    )
    ri = TwistedLinearMap(
        b, out, ident, {n: out.basis_element((1, n)) for n, _ in b.basis}, "inr"
    )
    return ModuleSum(out, li, ri)


@dataclass(frozen=True)
class ModuleTensor:
    module: FreeDimModule
    gset: GSetTensor

    def pure(self, a: DimElement, b: DimElement) -> DimElement:
        """Element-wise tensor, bilinear in both slots."""
        m = self.module
        ring = m.coeff_ring
        dim = self.gset.eta(a.dim, b.dim)
        terms: dict = {}
        for (na, ca), (nb, cb) in itertools.product(a.value, b.value):
            key = (na, nb)
            prod = ring.mul(ca, cb)
            terms[key] = ring.add(terms[key], prod) if key in terms else prod
        return m.element(dim, terms)


def tensor_mod(a: FreeDimModule, b: FreeDimModule) -> ModuleTensor:
    if a.coeff_ring is not b.coeff_ring or a.along is not b.along:
        raise CarrierError("tensor product needs one base ring acting through one morphism")
    gt = gset_tensor(a.gset, b.gset)
    basis = [
        ((na, nb), gt.eta(da, db)) for na, da in a.basis for nb, db in b.basis
    ]
    out = FreeDimModule(a.coeff_ring, gt.gset, basis, f"{a.label}(x){b.label}", a.along)
    return ModuleTensor(out, gt)


def bilinear_factorization(
    a: FreeDimModule,
    b: FreeDimModule,
    c: FreeDimModule,
    phi: Callable,
) -> Checked:
    """Try to factor a two-argument map through the tensor product.

    The factoring map is defined on the tensor basis by the values of
    `phi` on basis pairs; it exists exactly when `phi` is bilinear and
    balanced over the ring, which is validated with witnesses on the
    `probe_cases` of a's triples (x, x2, _), b's (_, _, y) and the ring's
    (_, r, _): places in which equal sets hold different probes.
    """
    if not (a.basis and b.basis):  # a map out of the zero module has no dimension map
        raise ConstructionError(f"cannot factor through {a.label} ⊗ {b.label}: a factor has an empty basis")
    tens = tensor_mod(a, b)
    rep = CheckReport("bilinear factorization")
    law = "phi is bilinear and balanced"
    try:
        images = {
            (na, nb): phi(a.basis_element(na), b.basis_element(nb))
            for na, _ in a.basis
            for nb, _ in b.basis
        }
    except DimensionMismatch as exc:  # phi's values clash on the basis pairs already
        rep.check(law, False, f"dimension clash: {exc}")
        return Checked(None, rep)
    factored = TwistedLinearMap(
        tens.module, c, RingMorphism.identity(a.coeff_ring), images, "factored"
    )
    ring = a.ring

    def factors(x, x2, y, r):
        try:
            if phi(x, y) != factored(tens.pure(x, y)):
                return f"phi does not factor at {a.show(x)}, {b.show(y)}"
            lhs = phi(a.act(r, x), y)
            if lhs != phi(x, b.act(r, y)):
                return (f"balance fails: phi(r·a, b) != phi(a, r·b) "
                        f"at {r}, {a.show(x)}, {b.show(y)}")
            if lhs != c.act(r, phi(x, y)):
                return f"phi(r·a, b) != r·phi(a, b) at {r}, {a.show(x)}"
            if phi(a.add(x, x2), y) != c.add(phi(x, y), phi(x2, y)):
                return f"left additivity fails at {a.show(x)}, {a.show(x2)}"
        except DimensionMismatch as exc:
            return f"dimension clash: {exc}"

    cases = probe_cases(*(probe_triples(s.probe_elements()) for s in (a, b, ring)))
    rep.law(law, ((x, x2, y, r) for (x, x2, _), (*_, y), (_, r, _) in cases), factors)
    return Checked(factored if rep.ok else None, rep)


@dataclass(frozen=True)
class DistributivityWitness:
    forward: TwistedLinearMap   # (A (+) B) (x) C  ->  A(x)C (+) B(x)C
    backward: TwistedLinearMap
    report: CheckReport


def rig_distributivity_witness(
    a: FreeDimModule, b: FreeDimModule, c: FreeDimModule
) -> DistributivityWitness:
    """The explicit basis bijection between (A⊕B)⊗C and A⊗C ⊕ B⊗C, decided
    on basis vectors: forward images keep their source's slice, and both
    round trips fix every basis vector.  Both maps are identity-twisted
    linear extensions, so addition and the action follow, given the
    coefficient ring's unit and associativity laws (`ring_axiom_report`)."""
    summed = direct_sum_mod(a, b)
    left = tensor_mod(summed.module, c)
    right = direct_sum_mod(tensor_mod(a, c).module, tensor_mod(b, c).module)

    fwd_images = {}
    bwd_images = {}
    for (tag, n), _ in summed.module.basis:
        for nc, _ in c.basis:
            src_name = ((tag, n), nc)
            dst_name = (tag, (n, nc))
            fwd_images[src_name] = right.module.basis_element(dst_name)
            bwd_images[dst_name] = left.module.basis_element(src_name)
    ident = RingMorphism.identity(a.coeff_ring)
    fwd = TwistedLinearMap(left.module, right.module, ident, fwd_images, "distribute")
    bwd = TwistedLinearMap(right.module, left.module, ident, bwd_images, "collect")

    rep = CheckReport("rig distributivity bijection")
    lm, rm = left.module, right.module

    def fixed(m, there, back, name):
        e = m.basis_element(name)
        if back(there(e)) != e:
            return f"round trip moved {m.show(e)}"

    rep.law("forward images stay in their slices", lm.basis,
            lambda name, d: fwd.images[name].dim != d
            and f"{name!r} leaves slice {d!r} for {fwd.images[name].dim!r}")
    round_trips = itertools.chain(((lm, fwd, bwd, n) for n, _ in lm.basis),
                                  ((rm, bwd, fwd, n) for n, _ in rm.basis))
    rep.law("both round trips fix every basis vector", round_trips, fixed)
    return DistributivityWitness(fwd, bwd, rep)


# ---------------------------------------------------------------------------
# Pullback along a ring morphism
# ---------------------------------------------------------------------------


def pullback_module(phi: RingMorphism, a: FreeDimModule, label: str = "") -> FreeDimModule:
    """The same carrier as a module over the morphism's domain:
    p·x := phi(p)·x, the new monoid acting through the dimension map."""
    along = a.along.compose(phi) if a.along else phi
    return FreeDimModule(
        a.coeff_ring, a.gset, a.basis, label or f"{phi.label}*{a.label}", along
    )


def pullback_map(phi: RingMorphism, psi: TwistedLinearMap) -> TwistedLinearMap:
    """Pull a twisted map back along a ring morphism: only the source
    changes, so the twist composes with phi; the carrier map is unchanged."""
    return TwistedLinearMap(
        pullback_module(phi, psi.src),
        psi.dst,
        psi.coeff_mor,
        psi.images,
        f"{phi.label}*{psi.label}",
    )


# ---------------------------------------------------------------------------
# Quotient modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientModule:
    module: FreeDimModule
    projection: TwistedLinearMap
    ring_projection: RingMorphism


def quotient_module(
    a: FreeDimModule,
    sub_generators,
    ideal: Ideal,
) -> QuotientModule:
    """Quotient by a submodule containing I·A, over the quotient ring.

    The submodule is presented by generators of the form r·e (a ring
    multiplier on one basis vector): an invertible multiplier drops the
    basis vector; non-invertible multipliers must both lie in the ideal
    and generate it on every kept vector, otherwise I·A ⊆ S fails with a
    witness.
    """
    ring = a.coeff_ring
    multipliers: dict = {name: [] for name, _ in a.basis}
    dropped = set()
    for gen in sub_generators:
        if len(gen.value) != 1:
            raise ConstructionError(
                "submodule generators must be multiples of single basis vectors"
            )
        ((name, coeff),) = gen.value
        if ring.is_unit(coeff):
            dropped.add(name)
        elif not ring.is_zero(coeff):
            multipliers[name].append(coeff)

    def generates(gens, x) -> bool:
        return ring.is_zero(x) or (
            isinstance(ring, GradedPolyRing) and ring.monomial_ideal(gens).contains(x)
        )

    kept = [name for name, _ in a.basis if name not in dropped]
    for name in kept:
        for m in multipliers[name]:
            if not ideal.contains(m):
                raise ConstructionError(
                    f"submodule multiplier {ring.show(m)} on {name!r} falls outside the ideal"
                )
        for i in ideal.generators:
            if not generates(multipliers[name], i):
                raise ConstructionError(
                    f"I·A is not inside S: ideal generator {ring.show(i)} "
                    f"misses the submodule at basis vector {name!r}"
                )

    qring = quotient_ring(ring, ideal)
    quot = FreeDimModule(
        qring, a.gset, [(n, d) for n, d in a.basis if n in kept], f"{a.label}/S"
    )
    images = {
        name: (quot.basis_element(name) if name in kept else quot.zero(dim))
        for name, dim in a.basis
    }
    proj = TwistedLinearMap(a, quot, qring.projection, images, "Q")
    return QuotientModule(quot, proj, proj.twist)


# ---------------------------------------------------------------------------
# Span membership over field-like base rings
# ---------------------------------------------------------------------------


def span_contains(m: FreeDimModule, generators, elem: DimElement) -> bool:
    """Whether `elem` is an R-combination of the generators.

    Supported for base rings whose slice values are single rationals
    (product and power rings): within one slice the span of a generator
    is the rational line through any nonzero shift of it, and `elem` lies
    in the span of those lines iff it leaves their rank unchanged.
    """
    names = sorted(m.basis_dim, key=repr)
    index = {n: i for i, n in enumerate(names)}
    monoid = m.gset.monoid

    def coords(x: DimElement):
        v = [Fraction(0)] * len(names)
        for name, coeff in x.value:
            if not isinstance(coeff.value, (Fraction, int)):
                raise CarrierError("span solving needs rational slice values")
            v[index[name]] = Fraction(coeff.value)
        return tuple(v)

    target = coords(elem)  # refuses other rings before a product is formed
    rows = []
    for gen in generators:
        if gen.dim[1] != elem.dim[1]:
            continue
        shift = monoid.combine(elem.dim[0], monoid.inverse(gen.dim[0]))
        r = DimElement(Fraction(1), shift)
        rows.append(coords(m.coeff_act(r, gen)))
    return len(rref(rows)[1]) == len(rref(rows + [target])[1])
