"""The dimensioned endomorphism ring of a product dimensioned ring.

Over a finite dimension set D every additive slice endomorphism of a
rational product ring is a scaling, so a dimensioned endomorphism is a
dimension map phi: D -> D plus one scaling coefficient per slice.  Those
pairs form a non-commutative dimensioned ring: addition is the partial
pointwise one (defined exactly when the dimension maps agree) and
multiplication is composition, whose dimension monoid is Map(D).

Both operations act slot by slot: with A over phi and B over psi, A+B
has the coefficient a(i) + b(i) at base point i, over phi, and A∘B has
a(psi(i))·b(i), over phi∘psi.  So in each law a side's dimension map
depends on no coefficient, and its coefficient at i is a scalar
expression in coefficients read at i or at images of i under the case's
maps.  A sweep of every map tuple with every coefficient tuple repeats
the same scalar identities at each map tuple; `EndoRing.decided_cases`
decides six laws of `ring_axiom_report` on two parts instead:

* the dimension part: each tuple of the maps the law depends on, the
  factors on the coefficient functions i |-> 2+3i, 3+3i and 4+3i, whose
  values all differ and are never -1, 0 or 1 (no factor vanishes or is
  neutral); both sides must be defined and agree, maps included;
* the coefficient part: every tuple of constant, then of cyclic
  coefficient functions over COEFF_PROBES, all over the constant map to
  j, for every point j: slot i meets the values at j and at i in every
  combination that the full sweep meets there.

Law by law, with C over chi:

* projection is a monoid morphism: A∘B lies over phi∘psi whatever the
  coefficients; every pair (phi, psi), then coefficient pairs;
* distributivity, A and B over phi: (A+B)∘C and A∘C + B∘C read a and b
  at chi(i), C∘(A+B) and C∘A + C∘B read c at phi(i); every pair (phi,
  chi), then coefficient triples, as in `endo_distributivity_report`;
* zero family is absorbent: 0_d∘A and A∘0_d have the coefficients 0·a(i)
  and a(d(i))·0; every pair (d, phi), then each coefficient function
  over a constant map d;
* multiplicative associativity: (A∘B)∘C and A∘(B∘C) have the coefficient
  a(psi(chi(i)))·b(chi(i))·c(i), and their maps agree where the monoid
  is associative (Light's test); every pair (psi, chi), A over psi, then
  coefficient triples;
* slices are abelian groups: the sum at i is a(i) + b(i); every map,
  then coefficient pairs;
* addition is undefined across slices: A + 0_e is defined iff phi = e;
  every pair of maps phi != e.
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

    def decided_cases(self, law: str):
        """The cases that decide `law` by the slot-by-slot argument of the
        module docstring, or None for a law it does not cover."""
        maps = self.dims.elements()
        pairs = itertools.product(maps, repeat=2)
        if law == "projection is a monoid morphism":
            return self._slot_cases(pairs, 2)
        if law in ("distributivity where defined", "multiplicative associativity"):
            return self._slot_cases(((phi, phi, chi) for phi, chi in pairs), 3)
        if law == "zero family is absorbent":  # d is the first factor's map
            return ((xs[0].dim, xs[-1]) for xs in self._slot_cases(pairs, 1))
        if law == "slices are abelian groups":
            return self._slot_cases(((phi, phi) for phi in maps), 2)
        if law == "addition is undefined across slices":
            return ((a, b.dim) for a, b in self._slot_cases(pairs, 2) if a.dim != b.dim)
        return None

    def _slot_cases(self, map_tuples, arity: int):
        """The dimension part, each of `map_tuples` with its factors on the
        distinct-valued coefficient functions, then the coefficient part,
        every `arity`-tuple of probe coefficient functions on each constant map."""
        n = len(self.points)
        distinct = [tuple(k + 3 * i for i in range(n)) for k in (2, 3, 4)]
        for maps in map_tuples:
            yield tuple(map(DimElement, distinct, maps))
        for family in _coefficient_probes(n):
            for d in self.points:
                const = (d,) * n
                yield from itertools.product([DimElement(c, const) for c in family], repeat=arity)

    def show(self, a):
        phi = ",".join(f"{d}->{img}" for d, img in zip(self.points, a.dim))
        return f"({{{phi}}}; coeffs {a.value})"


def endo_distributivity_report(endo: EndoRing):
    """Both distributivity laws of the endomorphism ring, decided on
    `endo.decided_cases("distributivity where defined")` (see the module
    docstring).

    The slot-by-slot form is checked on its own, through `apply_to_base`
    and the base ring alone, by
    `tests/test_endo.py::TestComposition::test_slot_by_slot_form_matches_the_action_on_base`.
    """
    from .report import CheckReport

    rep = CheckReport(f"distributivity in {endo.label}")

    def law(name, identity, lhs, rhs):
        def check(f, t, p):
            try:
                if lhs(f, t, p) == rhs(f, t, p):
                    return None
                fault = "fails"
            except DimensionMapMismatch as exc:
                fault = f"is undefined ({exc})"
            return f"{identity} {fault} at F={endo.show(f)}, T={endo.show(t)}, P={endo.show(p)}"

        rep.law(name, endo.decided_cases("distributivity where defined"), check)

    add, mul = endo.add, endo.mul
    law("left distributivity", "(F+T)∘P = F∘P+T∘P",
        lambda f, t, p: mul(add(f, t), p), lambda f, t, p: add(mul(f, p), mul(t, p)))
    law("right distributivity", "P∘(F+T) = P∘F+P∘T",
        lambda f, t, p: mul(p, add(f, t)), lambda f, t, p: add(mul(p, f), mul(p, t)))
    return rep
