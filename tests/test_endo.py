import itertools
import random
from fractions import Fraction as F

import pytest

import draw as drawn
from dimalg import endo as endo_module
from dimalg import ring as ring_module
from dimalg import (
    DimensionMapMismatch,
    EndoRing,
    ProductDimRing,
    endo_distributivity_report,
    ring_axiom_report,
)
from dimalg.algebra import ProbeSpace, bilinear_check
from dimalg.carriers import Cyclic, Rationals
from dimalg.endo import COEFF_PROBES, _coefficient_probes
from dimalg.errors import CarrierError
from dimalg.group import DimElement
from dimalg.monoid import DimMonoid
from dimalg.ring import generating_set
from mutants import (
    FloorEndo,
    FloorOffConstantMaps,
    FloorSliceOneSum,
    FloorSumProduct,
    OddEvenDoubledProduct,
    OwnMapMul,
    ProductForSumEndo,
    SquareAcrossMaps,
    SwappedOrderMul,
    ThresholdMapMul,
    UncheckedAdd,
    WrongSlotMul,
)


def endo_over_cyclic(n, cls=EndoRing):
    return cls(ProductDimRing(Rationals(), DimMonoid.cyclic(n)))


@pytest.fixture
def endo2():
    return endo_over_cyclic(2)


def slot_by_slot_faults(endo):
    """Compare `mul` and `add` with what they must be as operations on the
    base ring, through `apply_to_base` and the base ring alone: every
    dimension map with every cyclic coefficient pattern, at every base
    point.  Yields one description per case that disagrees."""
    _, patterns = _coefficient_probes(len(endo.points))
    elems = [DimElement(c, phi) for phi in endo.dims.elements() for c in patterns]
    xs = [DimElement(F(5, 7), d) for d in endo.points]
    act, base = endo.apply_to_base, endo.base
    for a, b in itertools.product(elems, repeat=2):
        ab = endo.mul(a, b)
        total = endo.add(a, b) if a.dim == b.dim else None
        for x in xs:
            if act(ab, x) != act(a, act(b, x)):
                yield f"(A∘B)(x) != A(B(x)) at {endo.show(a)}, {endo.show(b)}, {x}"
            if total is not None and act(total, x) != base.add(act(a, x), act(b, x)):
                yield f"(A+B)(x) != A(x)+B(x) at {endo.show(a)}, {endo.show(b)}, {x}"


class TestComposition:
    def test_hand_composed_example(self, endo2):
        # oracle by hand: composing with the swap relabels the coefficients
        f = endo2.endo({0: 0, 1: 1}, {0: F(2), 1: F(3)})
        g = endo2.endo({0: 1, 1: 0}, {0: F(1), 1: F(1)})
        h = endo2.mul(f, g)
        assert endo2.dim_map_of(h) == {0: 1, 1: 0}
        assert endo2.coeff_of(h, 0) == 3 and endo2.coeff_of(h, 1) == 2

    def test_identity_is_neutral(self, endo2, rng):
        for _ in range(20):
            f = drawn.element(endo2, rng)
            assert endo2.mul(f, endo2.one) == f
            assert endo2.mul(endo2.one, f) == f

    def test_composition_matches_action_on_base(self, endo2, rng):
        """(F∘G)(x) = F(G(x)) for the action on base-ring elements."""
        for _ in range(30):
            f, g = drawn.element(endo2, rng), drawn.element(endo2, rng)
            x = drawn.element(endo2.base, rng)
            assert endo2.apply_to_base(endo2.mul(f, g), x) == endo2.apply_to_base(
                f, endo2.apply_to_base(g, x)
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slot_by_slot_form_matches_the_action_on_base(self, n):
        """The form `endo_distributivity_report` relies on: composition and
        sum act on base elements as composed and summed functions."""
        assert next(slot_by_slot_faults(endo_over_cyclic(n)), None) is None

    @pytest.mark.parametrize("cls", [OwnMapMul, SwappedOrderMul, ProductForSumEndo])
    def test_slot_by_slot_check_catches_broken_operations(self, cls):
        assert next(slot_by_slot_faults(endo_over_cyclic(3, cls)), None) is not None

    def test_addition_needs_equal_dimension_maps(self, endo2):
        f = endo2.endo({0: 0, 1: 1}, {0: F(1), 1: F(1)})
        g = endo2.endo({0: 1, 1: 0}, {0: F(1), 1: F(1)})
        with pytest.raises(DimensionMapMismatch):
            endo2.add(f, g)

    def test_distributivity_both_sides(self, endo2, rng):
        for _ in range(30):
            psi = drawn.element(endo2, rng)
            phi = drawn.element(endo2, rng)
            theta = drawn.element(endo2, rng, dim=phi.dim)
            lhs = endo2.mul(endo2.add(phi, theta), psi)
            rhs = endo2.add(endo2.mul(phi, psi), endo2.mul(theta, psi))
            assert lhs == rhs
            lhs = endo2.mul(psi, endo2.add(phi, theta))
            rhs = endo2.add(endo2.mul(psi, phi), endo2.mul(psi, theta))
            assert lhs == rhs


class TestSuites:
    def test_axiom_report_small(self, endo2, rng):
        assert ring_axiom_report(endo2, rng).ok

    def test_axiom_report_fails_an_addition_across_maps(self, rng):
        """Every other law adds within one slice only, so this law alone
        sees a sum of endomorphisms with different dimension maps."""
        rep = ring_axiom_report(endo_over_cyclic(2, UncheckedAdd), rng)
        assert [r.law for r in rep.failures] == ["addition is undefined across slices"]
        assert "across slices" in rep.failures[0].witness

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_law_runs_its_whole_decided_set(self, n, rng):
        """Every law line counts the cases of its decided set, or of Light's
        test and the probe dimensions, so no line stops at a cap.  A
        coefficient part holds (n+1)·k^arity cases: the constant
        coefficient functions on one constant map, then the cyclic ones on
        each of the n, or on every map for a law within one slice."""
        endo = endo_over_cyclic(n)
        maps, k = n ** n, len(COEFF_PROBES)

        def coefficient_part(arity):
            return (n + 1) * k ** arity

        def every_map(arity):
            return (1 + maps) * k ** arity

        rep = ring_axiom_report(endo, rng)
        assert rep.ok
        assert {r.law: r.cases for r in rep.results} == {
            "dimension monoid: associativity":
                maps ** 2 * len(generating_set(endo.dims.elements(), endo.dims.combine)),
            "dimension monoid: identity": maps,
            "projection is a monoid morphism": maps ** 2 + coefficient_part(2),
            "distributivity where defined": maps ** 2 + coefficient_part(3),
            "zero family is absorbent": maps ** 2 + every_map(1),
            "unitality": maps + every_map(1),
            "multiplicative associativity": maps ** 2 + coefficient_part(3),
            "slices are abelian groups": maps + every_map(2),
            "addition is undefined across slices": maps ** 2 - maps,
        }

    @pytest.mark.parametrize("cls", [OwnMapMul, WrongSlotMul])
    def test_axiom_report_fails_a_composition_read_through_the_wrong_map(self, cls, rng):
        rep = ring_axiom_report(endo_over_cyclic(3, cls), rng)
        assert "multiplicative associativity" in [r.law for r in rep.failures]

    @pytest.mark.parametrize("cls", [SwappedOrderMul, SquareAcrossMaps, ProductForSumEndo])
    def test_axiom_report_fails_each_other_broken_operation(self, cls, rng):
        assert not ring_axiom_report(endo_over_cyclic(3, cls), rng).ok

    def test_exhaustive_distributivity_up_to_three_points(self, rng):
        for n in (1, 2, 3):
            rep = endo_distributivity_report(endo_over_cyclic(n))
            assert rep.ok
            assert [r.law for r in rep.results] == ["left distributivity", "right distributivity"]

    def test_distributivity_report_fails_a_sum_that_multiplies(self):
        rep = endo_distributivity_report(endo_over_cyclic(3, ProductForSumEndo))
        assert [r.law for r in rep.failures] == ["left distributivity", "right distributivity"]
        left, right = (r.witness for r in rep.failures)
        assert left.startswith("(a+b)c != ac+bc at ({0->0,1->0,2->0}; coeffs (-3/2, ")
        assert right.startswith("c(a+b) != ca+cb at ({0->0,1->0,2->0}; coeffs (-3/2, ")

    @pytest.mark.parametrize("n", [2, 3])
    def test_distributivity_report_fails_a_product_nonlinear_across_maps(self, n):
        # only pairs of different maps break linearity: the map-pair part catches it
        rep = endo_distributivity_report(endo_over_cyclic(n, SquareAcrossMaps))
        assert [r.law for r in rep.failures] == ["left distributivity"]

    def test_distributivity_report_names_a_sum_it_cannot_form(self):
        rep = endo_distributivity_report(endo_over_cyclic(2, ThresholdMapMul))
        assert rep.failures[0].law == "left distributivity"
        assert rep.failures[0].witness.startswith("ac, bc lie over (0, 0) != (0, 1) at ")

    def test_needs_finite_dimension_set(self, q_x_z):
        with pytest.raises(CarrierError):
            EndoRing(q_x_z)

    def test_needs_a_rational_base(self):
        """Only over Q is every slice endomorphism a scaling, and a product
        ring, the only base, is over Q: it refuses other scalars."""
        with pytest.raises(CarrierError) as exc:
            ProductDimRing(Cyclic(3), DimMonoid.cyclic(2))
        assert str(exc.value) == "a product ring is over Q, not over Z/3"
        accepted = EndoRing(ProductDimRing(Rationals(), DimMonoid.cyclic(2)))
        assert ring_axiom_report(accepted).ok


class TestModuleStructure:
    def test_base_ring_action(self, endo2, rng):
        """(r·F)(x) = r·F(x) with the dimension map shifted by r's dim."""
        base = endo2.base
        for _ in range(30):
            r = drawn.element(base, rng)
            f = drawn.element(endo2, rng)
            x = drawn.element(base, rng)
            assert endo2.apply_to_base(endo2.act(r, f), x) == base.mul(
                r, endo2.apply_to_base(f, x)
            )

    def test_composition_is_bilinear_over_multiplication_operators(self, endo2):
        """Composition restricted to multiplication operators (the ring
        acting on itself) is a dimensioned bilinear multiplication, on the
        operators of the base's probes, acted on by the base's probes."""
        base = endo2.base

        def as_operator(r):
            # multiplication by r: constant coefficients, translation on dims
            return endo2.endo(
                {d: base.dims.combine(r.dim, d) for d in endo2.points},
                {d: r.value for d in endo2.points},
            )

        def translation(g):
            # dimension maps of multiplication operators are translations
            return tuple(base.dims.combine(g, d) for d in endo2.points)

        probes = base.probe_elements()
        space = ProbeSpace(
            elements=tuple(map(as_operator, probes)),
            add=endo2.add,
            act=endo2.act,
            ring_elements=probes,
            ring_dim_act=lambda g, phi: tuple(
                base.dims.combine(g, img) for img in phi
            ),
            dims=tuple(map(translation, base.probe_dims())),
        )
        rep = bilinear_check(
            space,
            endo2.mul,
            lambda phi, psi: endo2.dims.combine(phi, psi),
        )
        assert rep.ok, rep.failures
        assert [r.cases for r in rep.results] == [len(probes)] * 5


class TestRationalProbes:
    """The slot rule's coefficient part runs over Q: its -1/2 catches an
    operation exact on integers only, which integer probes pass."""

    @pytest.mark.parametrize("cls", [FloorEndo, FloorOffConstantMaps])
    def test_both_reports_fail_a_composition_that_floors(self, cls, rng):
        """The coefficient part's constant maps never meet FloorOffConstantMaps's
        floor: the dimension part's non-integer coefficients must."""
        endo = endo_over_cyclic(3, cls)
        failed = [r.law for r in ring_axiom_report(endo, rng).failures]
        assert "multiplicative associativity" in failed
        assert not endo_distributivity_report(endo).ok

    @pytest.mark.parametrize("cls", [FloorSumProduct, FloorSliceOneSum])
    def test_both_parts_fail_a_sum_that_floors(self, cls, monkeypatch, rng):
        """The signed distinct values catch the floor in the dimension part;
        with positive ones, that part forms no negative sum, and the grid's
        -1/2 must catch it alone: in slice 1, that is the slice-group law,
        which runs the grid in every slice."""
        ring = cls(Rationals(), DimMonoid.cyclic(2))
        assert "slices are abelian groups" in [r.law for r in ring_axiom_report(ring, rng).failures]
        monkeypatch.setattr(ring_module, "DISTINCT", (F(3, 2), F(5, 3), F(7, 4)))
        rep = ring_axiom_report(ring, rng)
        assert rep.failures
        assert all("-1/2 @ " in r.witness for r in rep.failures)
        if cls is FloorSliceOneSum:
            assert [r.law for r in rep.failures] == ["slices are abelian groups"]
            assert "-1/2 @ 1" in rep.failures[0].witness

    def test_dimension_part_fails_a_product_doubled_between_slices(self, rng):
        rep = ring_axiom_report(OddEvenDoubledProduct(Rationals(), DimMonoid.cyclic(2)), rng)
        assert rep.failures
        # the product differs from Q x Z/2's only where a lies over 1
        assert all(" @ 1" in r.witness for r in rep.failures)


class TestOperandTable:
    """`add` and `mul` form each coefficient tuple once per operand pair,
    in a table keyed by the identities of the operands' tuples."""

    @staticmethod
    def by_slot_formula(endo, op, a, b):
        """a(i)+b(i) over phi, or a(psi(i))·b(i) over phi∘psi, recomputed here."""
        if op == "add":
            return DimElement(tuple(x + y for x, y in zip(a.value, b.value)), a.dim)
        at = endo.index
        coeffs = tuple(a.value[at[j]] * y for j, y in zip(b.dim, b.value))
        return DimElement(coeffs, tuple(a.dim[at[j]] for j in b.dim))

    def clears_checked_by_slot_formula(self, endo, cap, steps=3000) -> int:
        """Check `steps` sums and products against the slot formula and
        both tables against `cap`; return how often a table was cleared.
        Operands are seeded, reused and fed back from earlier results; some
        are rebuilt as fresh tuples of equal coefficients, some take
        another operand's tuple over a new map."""
        rng = random.Random(20240817)
        maps = endo.dims.elements()
        pool = [drawn.element(endo, rng) for _ in range(8)] + [endo.one, endo.zero(maps[5])]
        sizes, clears = (0, 0), 0
        for step in range(steps):
            a, b = rng.choice(pool), rng.choice(pool)
            roll = rng.random()
            if roll < 0.2:
                a = DimElement(tuple([*a.value]), a.dim)
            elif roll < 0.4:
                b = DimElement(a.value, rng.choice(maps))
            op = "add" if rng.random() < 0.5 else "mul"
            if op == "add":
                a = DimElement(a.value, b.dim)
            got = getattr(endo, op)(a, b)
            assert got == self.by_slot_formula(endo, op, a, b), (step, op, a, b)
            now = len(endo._sums), len(endo._products)
            assert max(now) <= cap
            clears += any(n < m for n, m in zip(now, sizes))
            sizes = now
            if len(pool) < 40:  # a result is an operand again, a few levels deep
                pool.append(got)
        return clears

    def test_every_sum_and_product_matches_the_slot_formula(self):
        assert self.clears_checked_by_slot_formula(endo_over_cyclic(3), endo_module.TABLE_CAP) == 0

    def test_a_table_cleared_at_its_cap_still_matches(self, monkeypatch):
        monkeypatch.setattr(endo_module, "TABLE_CAP", 16)
        assert self.clears_checked_by_slot_formula(endo_over_cyclic(3), 16) > 10

    def test_the_axiom_report_forms_each_tuple_once(self, rng):
        """The report makes 15 191 `mul` and 10 205 `add` calls on
        Endo(Q×Z/3); the tables form a tuple per operand pair."""
        endo = endo_over_cyclic(3)
        assert ring_axiom_report(endo, rng).ok
        assert (len(endo._products), len(endo._sums)) == (3863, 1847)
