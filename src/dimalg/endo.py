"""The dimensioned endomorphism ring of a product dimensioned ring.

Over a finite dimension set D every additive slice endomorphism of a
rational product ring is a scaling, so a dimensioned endomorphism is a
dimension map phi: D -> D plus one scaling coefficient per slice.  Those
pairs form a non-commutative dimensioned ring: addition is the partial
pointwise one (defined exactly when the dimension maps agree) and
multiplication is composition, whose dimension monoid is Map(D).

Both operations act slot by slot: the coefficient of a sum or a
composition at a base point is a scalar sum or product of coefficients
read at that point or at its image.  `endo_distributivity_report` relies
on that form.  It decides each distributivity law on every pair of
dimension maps with one coefficient function per factor, plus every
probe-value coefficient triple on each constant map, rather than on
every map pair crossed with every triple.
"""

import itertools
import random
from fractions import Fraction

from .errors import CarrierError, DimensionMapMismatch
from .group import DimElement
from .monoid import DimMonoid
from .ring import DimRing, ProductDimRing


# small integers keep the exhaustive sweeps exact and fast
COEFF_PROBES = (-1, 0, 1, 2)


def _coefficient_probes(n: int) -> tuple:
    """Coefficient functions on n points drawn from COEFF_PROBES: the
    constant ones, then the cyclic patterns (one per rotation)."""
    values, k = COEFF_PROBES, len(COEFF_PROBES)
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
        if base.dims.elements() is None:
            raise CarrierError("endomorphism ring needs a finite dimension set")
        self.base = base
        self.points = base.dims.elements()
        self.index = {d: i for i, d in enumerate(self.points)}
        self.dims = DimMonoid.map_monoid(self.points)
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
        phi = tuple(self.base.dims.combine(r.dim, d) for d in a.dim)
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
        phi = self.dims.combine(a.dim, b.dim)
        return DimElement(coeffs, phi)

    @property
    def one(self):
        return DimElement(
            (self.base.scalars.one(),) * len(self.points),
            self.dims.identity,
        )

    def sample(self, rng: random.Random, dim=None):
        phi = self.dims.sample(rng) if dim is None else tuple(dim)
        return DimElement(
            tuple(self.base.scalars.sample(rng) for _ in self.points), phi
        )

    # -- structured probes for the axiom suite ------------------------------
    def probe_elements(self, rng: random.Random, budget: int = 30) -> tuple:
        """All dimension maps crossed with the constant coefficient
        functions drawn from COEFF_PROBES, plus the cyclically-varying
        coefficient patterns over the same value set; `rng` and `budget`
        are unused."""
        consts, patterns = _coefficient_probes(len(self.points))
        return tuple(
            DimElement(c, phi)
            for phi in self.dims.elements()
            for c in consts + patterns
        )

    def show(self, a):
        phi = ",".join(f"{d}->{img}" for d, img in zip(self.points, a.dim))
        return f"({{{phi}}}; coeffs {a.value})"


def endo_distributivity_report(endo: EndoRing):
    """Both distributivity laws of the endomorphism ring, each decided from
    a dimension part and a coefficient part.

    `add` and `mul` act slot by slot.  At base point i, with F and T over
    the map phi and P over psi, (F+T)∘P has the coefficient
    (f(psi(i)) + t(psi(i)))·p(i) and F∘P + T∘P has f(psi(i))·p(i) +
    t(psi(i))·p(i); P∘(F+T) and P∘F + P∘T read p at phi(i) and f, t at i.
    So the coefficients of both sides depend on one map only (psi on the
    left, phi on the right), and their dimension maps on no coefficient.
    A sweep of every map pair with every coefficient triple repeats the
    same scalar identities at each pair.  Each law is decided instead on:

    * the dimension part: every pair (phi, psi), with F, T and P on the
      coefficient functions i |-> 2+3i, 3+3i and 4+3i, whose values all
      differ and are never -1, 0 or 1 (no factor vanishes or is neutral);
      both sides must be defined and agree, dimension maps included;
    * the coefficient part: every triple of constant, then of cyclic
      coefficient functions over COEFF_PROBES, with F, T and P all over
      the constant map to j, for every point j.  Slot i thus meets the
      triple (f(j), t(j), p(i)) on the left and (f(i), t(i), p(j)) on
      the right for every j, which is every triple that the full sweep
      meets there, with j = psi(i) on the left and j = phi(i) on the
      right.

    The slot-by-slot form is checked on its own, through `apply_to_base`
    and the base ring alone, by
    `tests/test_endo.py::TestComposition::test_slot_by_slot_form_matches_the_action_on_base`.
    """
    from .report import CheckReport

    rep = CheckReport(f"distributivity in {endo.label}")
    consts, patterns = _coefficient_probes(len(endo.points))
    maps = endo.dims.elements()
    f0, t0, p0 = (tuple(k + 3 * i for i in range(len(endo.points))) for k in (2, 3, 4))

    def cases():
        for phi, psi in itertools.product(maps, repeat=2):
            yield DimElement(f0, phi), DimElement(t0, phi), DimElement(p0, psi)
        for family in (consts, patterns):
            for d in endo.points:
                const = (d,) * len(endo.points)
                yield from itertools.product([DimElement(c, const) for c in family], repeat=3)

    def law(name, identity, lhs, rhs):
        def check(f, t, p):
            try:
                if lhs(f, t, p) == rhs(f, t, p):
                    return None
                fault = "fails"
            except DimensionMapMismatch as exc:
                fault = f"is undefined ({exc})"
            return f"{identity} {fault} at F={endo.show(f)}, T={endo.show(t)}, P={endo.show(p)}"

        rep.law(name, cases(), check)

    add, mul = endo.add, endo.mul
    law("left distributivity", "(F+T)∘P = F∘P+T∘P",
        lambda f, t, p: mul(add(f, t), p), lambda f, t, p: add(mul(f, p), mul(t, p)))
    law("right distributivity", "P∘(F+T) = P∘F+P∘T",
        lambda f, t, p: mul(p, add(f, t)), lambda f, t, p: add(mul(p, f), mul(p, t)))
    return rep
