"""The dimensioned endomorphism ring of a rational product dimensioned ring.

Over a finite dimension set D every additive slice endomorphism of a
rational product ring is a scaling, so a dimensioned endomorphism is a
dimension map phi: D -> D plus one scaling coefficient per slice.  A
`ProductDimRing` is over Q, so `EndoRing` computes on Fractions.  Those
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
`endo_distributivity_report` decides both distributivity laws with the
ring suite's own check, one report line per side.

The slot rule passes the same coefficient tuples at every map: on
Endo(Q×Z/3) `ring_axiom_report` makes 15 191 `mul` and 10 205 `add`
calls and `endo_distributivity_report` 7 374 and 4 916, yet across both
there are only 2 668 distinct (a's coefficients, b's map, b's
coefficients) products and 372 distinct coefficient sums.  So
`EndoRing.add` and `EndoRing.mul` form each coefficient tuple once per
operand pair, in a per-ring table keyed by the identities of the
operands' coefficient tuples, plus b's dimension map for a product (the
only other input its coefficients read).  Each entry holds its operands,
so an id is not reused while the entry lives, and a table is cleared
when it holds TABLE_CAP entries.  A key by value would hash a tuple of
Fractions, which costs about as much as multiplying it.  `zero` and
`one` return coefficient tuples built once, so they hit the table too.
A subclass that overrides `add` or `mul` bypasses it.
"""

from fractions import Fraction
from operator import add as _add

from .core import DimElement
from .errors import CarrierError, DimensionMapMismatch
from .monoid import DimMonoid
from .report import CheckReport
from .ring import COEFF_PROBES, DISTINCT, DimRing, ProductDimRing, Slots, distributivity, slot_cases
from .sampling import rand_fraction

# entries each table of an EndoRing holds before it is cleared: over twice
# the 3 863 products Endo(Q×Z/3)'s ring report forms, and on Endo(Q×Z/4)
# about 6 MB of peak memory
TABLE_CAP = 1 << 13


def _enter(table: dict, key, entry: tuple) -> tuple:
    """Store `entry` under `key`, clearing `table` first if it is full."""
    if len(table) >= TABLE_CAP:
        table.clear()
    table[key] = entry
    return entry


def _coefficient_probes(n: int) -> tuple:
    """Coefficient functions on n points drawn from COEFF_PROBES: the
    constant ones, then the cyclic patterns (one per rotation)."""
    values, k = COEFF_PROBES, len(COEFF_PROBES)
    consts = [tuple(c for _ in range(n)) for c in values]
    patterns = [tuple(values[(i + s) % k] for i in range(n)) for s in range(k)]
    return consts, patterns


class EndoRing(DimRing):
    """Dimensioned additive endomorphisms of a rational product ring with
    finite dims.

    Element encoding: dim = the dimension map as a tuple of images aligned
    with the base dimension order; value = the tuple of per-slice scaling
    coefficients, Fractions, in the same order.
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
        n = len(self.points)
        self._zeros, self._ones = (Fraction(0),) * n, (Fraction(1),) * n
        # (id of a's coefficients, id of b's) -> (a's, b's, the sum's), and
        # (id of a's, b's map, id of b's) -> (a's, b's, the product's)
        self._sums, self._products = {}, {}

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
        return DimElement(a.value[i] * x.value, a.dim[i])

    def act(self, r: DimElement, a: DimElement) -> DimElement:
        """The base-ring module action (r·Phi)(x) := r·Phi(x)."""
        phi = tuple(self.base.dims.combine(r.dim, d) for d in a.dim)
        return DimElement(tuple(r.value * c for c in a.value), phi)

    # -- ring structure ----------------------------------------------------
    def add(self, a, b):
        if a.dim != b.dim:
            raise DimensionMapMismatch(
                f"endomorphism addition needs equal dimension maps, got {a.dim} vs {b.dim}"
            )
        x, y = a.value, b.value
        key = id(x), id(y)
        entry = self._sums.get(key) or _enter(self._sums, key, (x, y, tuple(map(_add, x, y))))
        return DimElement(entry[2], a.dim)

    def neg(self, a):
        return DimElement(tuple(-x for x in a.value), a.dim)

    def zero(self, phi):
        return DimElement(self._zeros, tuple(phi))

    def mul(self, a, b):
        """Composition a∘b: coefficients multiply through b's dimension map."""
        x, psi, y = a.value, b.dim, b.value
        key, index = (id(x), psi, id(y)), self.index
        entry = self._products.get(key) or _enter(
            self._products, key, (x, y, tuple(x[index[j]] * c for j, c in zip(psi, y))))
        return DimElement(entry[2], self.dims.combine(a.dim, psi))

    @property
    def one(self):
        return DimElement(self._ones, self.dims.identity)

    def sample(self, rng, dim=None):
        phi = self.dims.sample(rng) if dim is None else tuple(dim)
        return DimElement(tuple(rand_fraction(rng) for _ in self.points), phi)

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


def endo_distributivity_report(endo: EndoRing) -> CheckReport:
    """Both distributivity laws of the endomorphism ring, side by side:
    the `distributivity` check of `ring_axiom_report`, once per side, on
    the slot rule's cases for its `distributivity where defined` (module
    docstring): the left law is (F+T)∘P = F∘P+T∘P at (F, T, P).

    The slot-by-slot form is checked on its own, through `apply_to_base`
    and the base ring alone, by
    `tests/test_endo.py::TestComposition::test_slot_by_slot_form_matches_the_action_on_base`.
    """
    rep = CheckReport(f"distributivity in {endo.label}")
    slots = endo.slots()
    for side in ("left", "right"):
        rep.law(f"{side} distributivity", slot_cases(slots, "distributivity where defined"),
                distributivity(endo, side))
    return rep
