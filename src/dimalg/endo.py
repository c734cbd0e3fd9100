"""The dimensioned endomorphism ring of a product dimensioned ring.

Over a finite dimension set D every additive slice endomorphism of a
rational product ring is a scaling, so a dimensioned endomorphism is a
dimension map phi: D -> D plus one scaling coefficient per slice.  Those
pairs form a non-commutative dimensioned ring: addition is the partial
pointwise one (defined exactly when the dimension maps agree) and
multiplication is composition, whose dimension monoid is Map(D).

Both operations act slot by slot (the slot rule of `ring`): with A over
phi and B over psi, A+B has the coefficient a(i) + b(i) at base point i,
over phi, and A∘B has a(psi(i))·b(i), over phi∘psi.  `EndoRing.slots`
gives the rule the maps; the functions i |-> v + 3i, v in DISTINCT, whose
values all differ and are never integers; the cyclic functions over
COEFF_PROBES on each constant map to j, where slot i meets the values at
j and at i in every combination a full sweep meets, and on every map for
a law within one slice, whose slot i reads other slots only through a
zero; and the constant ones on one constant map, which all maps read alike.

Law by law, with C over chi: A∘B lies over phi∘psi whatever the
coefficients; (A+B)∘C reads a and b at chi(i), and C∘(A+B) reads c at
phi(i); (A∘B)∘C and A∘(B∘C) have the coefficient
a(psi(chi(i)))·b(chi(i))·c(i) whatever A's map, and their maps agree
where Map(D) is associative; 0_d, 1 and A+B have the coefficients 0, 1
and a(i) + b(i) at i; and A + 0_e is defined iff phi = e.
"""

import random
from fractions import Fraction

from .errors import CarrierError, DimensionMapMismatch
from .group import DimElement
from .monoid import DimMonoid
from .ring import COEFF_PROBES, DISTINCT, DimRing, ProductDimRing, Slots, slot_cases


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

    def slots(self):
        """The slot data of the module docstring."""
        n = len(self.points)
        constants = [(d,) * n for d in self.points]
        consts, patterns = _coefficient_probes(n)
        maps = self.dims.elements()
        return Slots(maps, [tuple(v + 3 * i for i in range(n)) for v in DISTINCT],
                     ((consts, constants[:1], constants[:1]), (patterns, constants, maps)))

    def show(self, a):
        phi = ",".join(f"{d}->{img}" for d, img in zip(self.points, a.dim))
        return f"({{{phi}}}; coeffs ({', '.join(map(str, a.value))}))"


def endo_distributivity_report(endo: EndoRing):
    """Both distributivity laws of the endomorphism ring, decided on the
    slot rule's cases for `ring_axiom_report`'s (module docstring).

    The slot-by-slot form is checked on its own, through `apply_to_base`
    and the base ring alone, by
    `tests/test_endo.py::TestComposition::test_slot_by_slot_form_matches_the_action_on_base`.
    """
    from .report import CheckReport

    rep = CheckReport(f"distributivity in {endo.label}")
    slots = endo.slots()

    def law(name, identity, lhs, rhs):
        def check(f, t, p):
            try:
                if lhs(f, t, p) == rhs(f, t, p):
                    return None
                fault = "fails"
            except DimensionMapMismatch as exc:
                fault = f"is undefined ({exc})"
            return f"{identity} {fault} at F={endo.show(f)}, T={endo.show(t)}, P={endo.show(p)}"

        rep.law(name, slot_cases(slots, "distributivity where defined"), check)

    add, mul = endo.add, endo.mul
    law("left distributivity", "(F+T)∘P = F∘P+T∘P",
        lambda f, t, p: mul(add(f, t), p), lambda f, t, p: add(mul(f, p), mul(t, p)))
    law("right distributivity", "P∘(F+T) = P∘F+P∘T",
        lambda f, t, p: mul(p, add(f, t)), lambda f, t, p: add(mul(p, f), mul(p, t)))
    return rep
