"""The dimensioned endomorphism ring of a product dimensioned ring.

Over a finite dimension set D every additive slice endomorphism of a
rational product ring is a scaling, so a dimensioned endomorphism is a
dimension map phi: D -> D plus one scaling coefficient per slice.  Those
pairs form a non-commutative dimensioned ring: addition is the partial
pointwise one (defined exactly when the dimension maps agree) and
multiplication is composition, whose dimension monoid is Map(D).
"""

import itertools
import random
from fractions import Fraction

from .errors import CarrierError, DimensionMapMismatch
from .group import DimElement
from .monoid import DimMonoid, DimSet
from .ring import DimRing, ProductDimRing


# small integers keep the exhaustive sweeps exact and fast
COEFF_PROBES = (-1, 0, 1, 2)


def _coefficient_probes(n: int, values) -> tuple:
    """Coefficient functions on n points drawn from `values`: the constant
    ones, then the cyclic patterns (one per rotation of `values`)."""
    k = len(values)
    consts = [tuple(c for _ in range(n)) for c in values]
    patterns = [tuple(values[(i + s) % k] for i in range(n)) for s in range(k)]
    return consts, patterns


class EndoRing(DimRing):
    """Dimensioned additive endomorphisms of a product ring with finite dims.

    Element encoding: dim = the dimension map as a tuple of images aligned
    with the base dimension order; value = the tuple of per-slice scaling
    coefficients in the same order.
    """

    commutative = False

    def __init__(self, base: ProductDimRing):
        if base.monoid.elements() is None:
            raise CarrierError("endomorphism ring needs a finite dimension set")
        self.base = base
        self.points = base.monoid.elements()
        self.index = {d: i for i, d in enumerate(self.points)}
        self.map_monoid = DimMonoid.map_monoid(self.points)
        self.dims = DimSet.of_monoid(self.map_monoid)
        self.label = f"Endo({base.label})"

    # -- element helpers -------------------------------------------------
    def endo(self, dim_map: dict, coeffs: dict) -> DimElement:
        """Build an endomorphism from explicit tables over base dims."""
        phi = tuple(dim_map[d] for d in self.points)
        c = tuple(coeffs[d] for d in self.points)
        return DimElement(c, phi)

    def dim_map_of(self, a: DimElement) -> dict:
        return dict(zip(self.points, a.dim))

    def coeff_of(self, a: DimElement, d) -> Fraction:
        return a.value[self.index[d]]

    def apply_to_base(self, a: DimElement, x: DimElement) -> DimElement:
        """Act on a base-ring element: (r, d) |-> (c(d)·r, phi(d))."""
        i = self.index[x.dim]
        return DimElement(
            self.base.scalars.mul(a.value[i], x.value), a.dim[i]
        )

    def act(self, r: DimElement, a: DimElement) -> DimElement:
        """The base-ring module action (r·Phi)(x) := r·Phi(x)."""
        coeffs = tuple(self.base.scalars.mul(r.value, c) for c in a.value)
        phi = tuple(self.base.monoid.combine(r.dim, d) for d in a.dim)
        return DimElement(coeffs, phi)

    # -- ring structure ----------------------------------------------------
    def add(self, a, b):
        if a.dim != b.dim:
            raise DimensionMapMismatch(
                f"endomorphism addition needs equal dimension maps, got {a.dim} vs {b.dim}"
            )
        sc = self.base.scalars
        return DimElement(
            tuple(sc.add(x, y) for x, y in zip(a.value, b.value)), a.dim
        )

    def neg(self, a):
        sc = self.base.scalars
        return DimElement(tuple(sc.neg(x) for x in a.value), a.dim)

    def zero(self, phi):
        z = self.base.scalars.zero()
        return DimElement((z,) * len(self.points), tuple(phi))

    def mul(self, a, b):
        """Composition a∘b: coefficients multiply through b's dimension map."""
        sc = self.base.scalars
        coeffs = tuple(
            sc.mul(a.value[self.index[b.dim[i]]], b.value[i])
            for i in range(len(self.points))
        )
        phi = self.map_monoid.combine(a.dim, b.dim)
        return DimElement(coeffs, phi)

    @property
    def one(self):
        return DimElement(
            (self.base.scalars.one(),) * len(self.points),
            self.map_monoid.identity,
        )

    def sample(self, rng: random.Random, dim=None):
        phi = self.map_monoid.sample(rng) if dim is None else tuple(dim)
        return DimElement(
            tuple(self.base.scalars.sample(rng) for _ in self.points), phi
        )

    # -- structured probes for the axiom suite ------------------------------
    def probe_elements(self, rng: random.Random, budget: int = 30) -> tuple:
        """All dimension maps crossed with the constant coefficient
        functions drawn from COEFF_PROBES, plus the cyclically-varying
        coefficient patterns over the same value set; `rng` and `budget`
        are unused."""
        consts, patterns = _coefficient_probes(len(self.points), COEFF_PROBES)
        return tuple(
            DimElement(c, phi)
            for phi in self.map_monoid.elements()
            for c in consts + patterns
        )

    def show(self, a):
        phi = ",".join(f"{d}->{img}" for d, img in zip(self.points, a.dim))
        return f"({{{phi}}}; coeffs {a.value})"


def endo_distributivity_report(endo: EndoRing, coeff_probes=COEFF_PROBES):
    """Both distributivity laws of the endomorphism ring, exhaustively over
    all pairs of dimension maps with coefficient functions drawn from the
    probe value set (constants plus cyclic patterns over the same values)."""
    from .report import CheckReport

    rep = CheckReport(f"distributivity in {endo.label}")
    consts, patterns = _coefficient_probes(len(endo.points), coeff_probes)
    maps = endo.map_monoid.elements()

    def cases():
        """(F, T, P) with F, T over phi and P over psi, for every (phi, psi)
        pair, exhausted first over constant coefficient functions, then
        over the cyclic patterns."""
        for family in (consts, patterns):
            over = {phi: [DimElement(c, phi) for c in family] for phi in maps}
            for phi, psi in itertools.product(maps, repeat=2):
                yield from itertools.product(over[phi], over[phi], over[psi])

    def left(f, t, p):
        if endo.mul(endo.add(f, t), p) != endo.add(endo.mul(f, p), endo.mul(t, p)):
            return f"(F+T)∘P != F∘P+T∘P at {endo.show(f)}"

    def right(f, t, p):
        if endo.mul(p, endo.add(f, t)) != endo.add(endo.mul(p, f), endo.mul(p, t)):
            return f"P∘(F+T) != P∘F+P∘T at {endo.show(p)}"

    rep.law("left distributivity", cases(), left)
    rep.law("right distributivity", cases(), right)
    return rep
