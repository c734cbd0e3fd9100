import itertools
import math
from fractions import Fraction as F

import pytest

from dimalg import ring as ring_module
from dimalg import (
    DimensionMapMismatch,
    EndoRing,
    ProductDimRing,
    endo_distributivity_report,
    ring_axiom_report,
)
from dimalg.algebra import ProbeSpace, bilinear_check
from dimalg.carriers import Rationals
from dimalg.endo import COEFF_PROBES, _coefficient_probes
from dimalg.errors import CarrierError
from dimalg.group import DimElement
from dimalg.monoid import DimMonoid
from dimalg.ring import generating_set


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


class OwnMapMul(EndoRing):
    """Reads a's coefficients through a's own map instead of b's."""

    def mul(self, a, b):
        coeffs = tuple(a.value[self.index[a.dim[i]]] * b.value[i] for i in range(len(self.points)))
        return DimElement(coeffs, self.dims.combine(a.dim, b.dim))


class SwappedOrderMul(EndoRing):
    """Composes the dimension maps in the wrong order."""

    def mul(self, a, b):
        return DimElement(super().mul(a, b).value, self.dims.combine(b.dim, a.dim))


class SquareAcrossMaps(EndoRing):
    """Squares a's coefficients when the two dimension maps differ."""

    def mul(self, a, b):
        if a.dim != b.dim:
            a = DimElement(tuple(x * x for x in a.value), a.dim)
        return super().mul(a, b)


class WrongSlotMul(EndoRing):
    """Reads b's coefficients through b's own map: b(psi(i)) for b(i)."""

    def mul(self, a, b):
        coeffs = tuple(a.value[self.index[b.dim[i]]] * b.value[self.index[b.dim[i]]]
                       for i in range(len(self.points)))
        return DimElement(coeffs, self.dims.combine(a.dim, b.dim))


class ProductForSumEndo(EndoRing):
    """Multiplies the coefficients where it should add them."""

    def add(self, a, b):
        total = super().add(a, b)  # keeps the equal-map check
        return DimElement(tuple(x * y for x, y in zip(a.value, b.value)), total.dim)


class FloorEndo(EndoRing):
    """Composes, then floors each coefficient: exact on integers only."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return DimElement(tuple(F(math.floor(c)) for c in out.value), out.dim)


class ThresholdMapMul(EndoRing):
    """Composes the maps only where a's first coefficient is negative: a sum
    of two compositions can then meet two maps."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return out if a.value[0] < 0 else DimElement(out.value, a.dim)


class FloorOffConstantMaps(EndoRing):
    """Composes, then floors each coefficient unless b's map is constant."""

    def mul(self, a, b):
        out = super().mul(a, b)
        if len(set(b.dim)) == 1:
            return out
        return DimElement(tuple(F(math.floor(c)) for c in out.value), out.dim)


class FloorSumProduct(ProductDimRing):
    """Q x Z/2 whose sums round negative non-integers down in the slices
    `floored`."""

    floored = (0, 1)

    def add(self, a, b):
        s = super().add(a, b)
        if s.value < 0 and s.dim in self.floored:
            return DimElement(F(math.floor(s.value)), s.dim)
        return s


class FloorSliceOneSum(FloorSumProduct):
    """Rounds down in slice 1 alone, away from the identity slice."""

    floored = (1,)


class OddEvenDoubledProduct(ProductDimRing):
    """Q x Z/2 whose product doubles only when a lies over 1 and b over 0:
    no cocycle twist, so not a ring."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return DimElement(2 * out.value, out.dim) if (a.dim, b.dim) == (1, 0) else out


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
            f = endo2.sample(rng)
            assert endo2.eq(endo2.mul(f, endo2.one), f)
            assert endo2.eq(endo2.mul(endo2.one, f), f)

    def test_composition_matches_action_on_base(self, endo2, rng):
        """(F∘G)(x) = F(G(x)) for the action on base-ring elements."""
        for _ in range(30):
            f, g = endo2.sample(rng), endo2.sample(rng)
            x = endo2.base.sample(rng)
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
            psi = endo2.sample(rng)
            phi = endo2.sample(rng)
            theta = endo2.sample(rng, dim=phi.dim)
            lhs = endo2.mul(endo2.add(phi, theta), psi)
            rhs = endo2.add(endo2.mul(phi, psi), endo2.mul(theta, psi))
            assert endo2.eq(lhs, rhs)
            lhs = endo2.mul(psi, endo2.add(phi, theta))
            rhs = endo2.add(endo2.mul(psi, phi), endo2.mul(psi, theta))
            assert endo2.eq(lhs, rhs)


class UncheckedAdd(EndoRing):
    """Adds coefficients whatever the two dimension maps are."""

    def add(self, a, b):
        sc = self.base.scalars
        return DimElement(tuple(sc.add(x, y) for x, y in zip(a.value, b.value)), a.dim)


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
    def test_each_law_runs_its_whole_decided_set(self, n, law_case_counts, rng):
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

        assert ring_axiom_report(endo, rng).ok
        assert dict(law_case_counts) == {
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
        assert left.startswith("(F+T)∘P = F∘P+T∘P fails at F=")
        assert right.startswith("P∘(F+T) = P∘F+P∘T fails at F=")

    @pytest.mark.parametrize("n", [2, 3])
    def test_distributivity_report_fails_a_product_nonlinear_across_maps(self, n):
        # only pairs of different maps break linearity: the map-pair part catches it
        rep = endo_distributivity_report(endo_over_cyclic(n, SquareAcrossMaps))
        assert [r.law for r in rep.failures] == ["left distributivity"]

    def test_distributivity_report_names_a_sum_it_cannot_form(self):
        rep = endo_distributivity_report(endo_over_cyclic(2, ThresholdMapMul))
        assert "(F+T)∘P = F∘P+T∘P is undefined (endomorphism addition needs equal" \
            in rep.failures[0].witness

    def test_needs_finite_dimension_set(self, q_x_z):
        with pytest.raises(CarrierError):
            EndoRing(q_x_z)


class TestModuleStructure:
    def test_base_ring_action(self, endo2, rng):
        """(r·F)(x) = r·F(x) with the dimension map shifted by r's dim."""
        base = endo2.base
        for _ in range(30):
            r = base.sample(rng)
            f = endo2.sample(rng)
            x = base.sample(rng)
            assert endo2.apply_to_base(endo2.act(r, f), x) == base.mul(
                r, endo2.apply_to_base(f, x)
            )

    def test_composition_is_bilinear_over_multiplication_operators(self, endo2, rng):
        """Composition restricted to multiplication operators (the ring
        acting on itself) is a dimensioned bilinear multiplication."""
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

        space = ProbeSpace(
            sample=lambda rng_: as_operator(base.sample(rng_)),
            sample_like=lambda rng_, a: endo2.sample(rng_, dim=a.dim),
            add=endo2.add,
            eq=endo2.eq,
            dim_of=lambda a: a.dim,
            act=endo2.act,
            sample_ring=base.sample,
            ring_dim_act=lambda g, phi: tuple(
                base.dims.combine(g, img) for img in phi
            ),
            sample_dim=lambda rng_: translation(base.dims.sample(rng_)),
        )
        rep = bilinear_check(
            space,
            endo2.mul,
            lambda phi, psi: endo2.dims.combine(phi, psi),
            rng,
            probes=25,
        )
        assert rep.ok, rep.failures


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
