import copy
import itertools
import pickle
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import draw as drawn
from dimalg import (
    DimAbGroup,
    DimElement,
    DimensionMapMismatch,
    DimensionMismatch,
    DimMap,
    FreeAbelian,
    direct_sum,
    kernel,
    product_group,
    quotient_group,
    tensor_groups,
)
from dimalg.carriers import Cyclic, Pairs, Rationals, SliceMap
from dimalg.errors import CarrierError
from dimalg.group import whole_subgroup


@pytest.fixture
def two_slices():
    return DimAbGroup.from_dict({0: Rationals(), 1: Rationals()}, label="G2")


def test_a_dim_element_is_a_frozen_record_and_not_a_tuple():
    """Monoids and carriers tell a dimension by `isinstance(x, tuple)`, and
    set order (so the golden file) follows the hash of (value, dim)."""
    e = DimElement(1, (0,))
    assert (e == (1, (0,))) is False and e != (1, (0,)) and not isinstance(e, tuple)
    assert e == DimElement(1, (0,)) and e != DimElement(1, (1,))
    assert hash(e) == hash((e.value, e.dim))
    assert repr(DimElement(F(1, 2), (0, -1))) == "DimElement(value=Fraction(1, 2), dim=(0, -1))"
    for field in ("value", "dim"):
        with pytest.raises(AttributeError):
            setattr(e, field, 2)
    assert (e.value, e.dim) == (1, (0,))
    assert copy.copy(e) == pickle.loads(pickle.dumps(e)) == e


class TestPartialAddition:
    def test_same_slice_adds(self, q_x_z):
        g = DimAbGroup.uniform(q_x_z.dims, Rationals())
        a = g.element(F(3), (1,))
        b = g.element(F(5), (1,))
        assert g.add(a, b) == g.element(F(8), (1,))

    def test_distinct_slices_raise(self):
        g = DimAbGroup.from_dict({"l": Rationals(), "t": Rationals()})
        with pytest.raises(DimensionMismatch) as exc:
            g.add(g.element(F(3), "l"), g.element(F(5), "t"))
        assert exc.value.left == "l" and exc.value.right == "t"

    def test_identity_and_negation(self, two_slices):
        g = two_slices
        x = g.element(F(7), 0)
        assert g.add(x, g.zero(0)) == x
        assert g.neg(x) == g.element(F(-7), 0)
        assert g.add(x, g.neg(x)) == g.zero(0)
        assert g.neg(g.zero(0)) == g.zero(0)
        assert g.add(g.zero(0), g.zero(0)) == g.zero(0)

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(-9, 9), st.integers(-9, 9))
    def test_partiality_law(self, d, e, x, y):
        """add(a, b) succeeds exactly when the dimensions agree."""
        g = DimAbGroup.from_dict({i: Rationals() for i in range(6)})
        a, b = g.element(F(x), d), g.element(F(y), e)
        if d == e:
            assert g.add(a, b).value == x + y
        else:
            with pytest.raises(DimensionMismatch):
                g.add(a, b)


class TestDimMaps:
    def test_apply_covers_dimension_map(self, two_slices):
        g = two_slices
        swap = {0: 1, 1: 0}
        phi = DimMap(g, g, lambda d: swap[d],
                     lambda d: SliceMap(Rationals(), Rationals(), (F(2),)))
        assert phi.apply(g.element(F(5), 0)) == g.element(F(10), 1)

    def test_identity_compose_is_neutral(self, two_slices):
        g = two_slices
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(2),)))
        assert DimMap.identity(g).compose(phi).extensionally_equal(phi)
        assert phi.compose(DimMap.identity(g)).extensionally_equal(phi)

    def test_compose_example(self, two_slices):
        # hand-composed: (id, x2) after (swap, x1) sends (5, 0) to (10, 1)
        g = two_slices
        swap = {0: 1, 1: 0}
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(2),)))
        psi = DimMap(g, g, lambda d: swap[d], lambda d: SliceMap(Rationals(), Rationals(), (F(1),)))
        assert phi.compose(psi).apply(g.element(F(5), 0)) == g.element(F(10), 1)

    def test_compose_rejects_mismatched_groups(self, two_slices):
        g = two_slices
        other = DimAbGroup.from_dict({0: Rationals()})
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(1),)))
        psi = DimMap(other, other, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(1),)))
        with pytest.raises(CarrierError):
            phi.compose(psi)

    def test_pointwise_add_same_map(self, two_slices):
        g = two_slices
        mk = lambda c: DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(c),)))
        total = mk(2).pointwise_add(mk(3))
        assert total.apply(g.element(F(1), 0)) == g.element(F(5), 0)

    def test_pointwise_add_partial(self, two_slices):
        g = two_slices
        swap = {0: 1, 1: 0}
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(2),)))
        psi = DimMap(g, g, lambda d: swap[d], lambda d: SliceMap(Rationals(), Rationals(), (F(3),)))
        with pytest.raises(DimensionMapMismatch):
            phi.pointwise_add(psi)

    def test_zero_map_is_pointwise_identity(self, two_slices):
        g = two_slices
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(2),)))
        z = DimMap.zero_over(g, g, lambda d: d)
        assert phi.pointwise_add(z).extensionally_equal(phi)

    def test_hom_set_is_abelian_group_over_fixed_map(self, two_slices):
        """For one fixed dimension map, pointwise addition has associativity,
        the zero map as identity, and pointwise negation as inverse."""
        g = two_slices
        mk = lambda c: DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(c),)))
        a, b, c = mk(2), mk(-5), mk(F(1, 3))
        z = DimMap.zero_over(g, g, lambda d: d)
        lhs = a.pointwise_add(b).pointwise_add(c)
        rhs = a.pointwise_add(b.pointwise_add(c))
        assert lhs.extensionally_equal(rhs)
        assert a.pointwise_add(b).extensionally_equal(b.pointwise_add(a))
        assert a.pointwise_add(z).extensionally_equal(a)
        assert a.pointwise_add(a.pointwise_neg()).extensionally_equal(z)


    def test_equality_on_a_large_finite_slice_compares_generator_images(self):
        c = Pairs(Cyclic(300), Cyclic(300))
        g = DimAbGroup.from_dict({"d": c})
        ident = DimMap.identity(g)
        start = time.perf_counter()
        assert ident.extensionally_equal(DimMap.identity(g))
        assert time.perf_counter() - start < 0.1
        # the second generator goes to (0, 2) instead of (0, 1)
        twist = DimMap(g, g, lambda d: d, lambda d: SliceMap(c, c, ((1, 0), (0, 2))))
        assert not ident.extensionally_equal(twist)
        assert not twist.extensionally_equal(ident)


class TestKernelsAndQuotients:
    def test_scale_zero_kernel_is_everything(self):
        g = DimAbGroup.from_dict({"d": Rationals()})
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(0),)))
        k = kernel(phi)
        assert k.contains(g.element(F(9), "d"))

    def test_injective_scale_kernel_is_zero(self):
        g = DimAbGroup.from_dict({"d": Rationals()})
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Rationals(), Rationals(), (F(2),)))
        k = kernel(phi)
        assert k.contains(g.zero("d"))
        assert not k.contains(g.element(F(1), "d"))

    def test_cyclic_kernel_enumerated(self):
        g = DimAbGroup.from_dict({"d": Cyclic(4)})
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Cyclic(4), Cyclic(4), (2,)))
        # oracle: brute-force the four elements through x -> 2x mod 4
        expected = tuple(x for x in range(4) if (2 * x) % 4 == 0)
        assert kernel(phi).elements("d") == expected

    def test_quotient_of_cyclic(self):
        g = DimAbGroup.from_dict({"d": Cyclic(4)})
        phi = DimMap(g, g, lambda d: d, lambda d: SliceMap(Cyclic(4), Cyclic(4), (2,)))
        q = quotient_group(g, kernel(phi))
        assert len(q.group.slice("d").elements()) == 2
        # the projection is additive wherever the sum is defined
        for a, b in itertools.product(range(4), repeat=2):
            ea, eb = g.element(a, "d"), g.element(b, "d")
            assert (
                q.projection.apply(g.add(ea, eb))
                == q.group.add(q.projection.apply(ea), q.projection.apply(eb))
            )

    def test_quotient_by_zero_is_bijection_on_samples(self, rng):
        from dimalg.group import zero_subgroup

        g = DimAbGroup.from_dict({"d": Cyclic(6)})
        q = quotient_group(g, zero_subgroup(g))
        seen = {q.projection.apply(g.element(x, "d")).value for x in range(6)}
        assert len(seen) == 6

    def test_quotient_by_whole_is_trivial(self):
        from dimalg.group import whole_subgroup

        g = DimAbGroup.from_dict({"d": Cyclic(6), "e": Rationals()})
        q = quotient_group(g, whole_subgroup(g))
        assert q.group.slice("d").elements() == (0,)
        assert q.group.slice("e").elements() == (0,)

    def test_direct_sum_injection_kernel_is_zero(self):
        a = DimAbGroup.from_dict({"d": Cyclic(4), "e": Cyclic(2)})
        b = DimAbGroup.from_dict({"d": Cyclic(6), "e": Cyclic(3)})
        ds = direct_sum(a, b)
        for inject in (ds.inject_left, ds.inject_right):
            k = kernel(inject)
            assert k.elements("d") == (0,) and k.elements("e") == (0,)

    def test_zero_map_kernel_and_whole_quotient_of_a_large_slice(self):
        g = DimAbGroup.from_dict({"d": Cyclic(400)})
        start = time.perf_counter()
        k = kernel(DimMap.zero_over(g, g, lambda d: d))
        assert time.perf_counter() - start < 0.1
        assert k.contains(g.element(399, "d"))
        start = time.perf_counter()
        q = quotient_group(g, whole_subgroup(g))
        assert time.perf_counter() - start < 0.1
        assert q.projection.apply(g.element(7, "d")) == q.group.zero("d")

    def test_non_subgroup_rejected(self):
        from dimalg.carriers import finite_subgroup
        from dimalg.group import DimSubgroup

        g = DimAbGroup.from_dict({"d": Cyclic(4)})
        bad = DimSubgroup(g, lambda d: finite_subgroup(Cyclic(4), (1, 2)))
        with pytest.raises(CarrierError):
            quotient_group(g, bad)


class TestSumsProductsFreeTensor:
    def test_direct_sum_componentwise(self, two_slices):
        ds = direct_sum(two_slices, two_slices)
        a = ds.group.element((F(1), F(2)), 0)
        b = ds.group.element((F(3), F(4)), 0)
        assert ds.group.add(a, b) == ds.group.element((F(4), F(6)), 0)

    def test_direct_sum_needs_shared_dimension_set(self, two_slices):
        other = DimAbGroup.from_dict({"x": Rationals()})
        with pytest.raises(DimensionMismatch):
            direct_sum(two_slices, other)

    def test_direct_sum_with_trivial_group_embeds(self, two_slices, rng):
        trivial = DimAbGroup.from_dict({0: Cyclic(1), 1: Cyclic(1)})
        ds = direct_sum(two_slices, trivial)
        for _ in range(10):
            a = drawn.element(two_slices, rng)
            b = drawn.element(two_slices, rng, dim=a.dim)
            assert ds.inject_left.apply(two_slices.add(a, b)) == ds.group.add(
                ds.inject_left.apply(a), ds.inject_left.apply(b)
            )

    def test_product_dimension_set_size(self):
        g = DimAbGroup.from_dict({0: Rationals(), 1: Rationals()})
        p = product_group(g, g)
        assert len(p.dims.elements()) == 4

    @pytest.mark.parametrize("construct", [product_group, tensor_groups])
    def test_product_dimension_sets_need_finite_factors(self, q_x_z, two_slices, construct):
        """A factor over the free abelian monoid Z has no finite element
        list, so neither product dimension set can be formed."""
        infinite = DimAbGroup.uniform(q_x_z.dims, Rationals())
        for a, b in ((infinite, two_slices), (two_slices, infinite)):
            with pytest.raises(CarrierError, match="product dimension sets need finite factors"):
                construct(a, b)

    def test_free_abelian_embedding_and_cancellation(self):
        fa = FreeAbelian({"d": ("x", "y"), "e": ()})
        x = fa.embed("x", "d")
        assert fa.add(x, x).value == (("x", 2),)
        three = fa.add(fa.add(x, x), x)
        assert fa.add(three, fa.neg(three)) == fa.zero("d")
        assert fa.slice("e").elements() == ((),)

    def test_free_extension_is_unique_group_morphism(self):
        """Exhaustively on slices of size <= 3: any dimensioned map of sets
        extends to a morphism, and any morphism agreeing on generators
        agrees everywhere (coefficients -2..2)."""
        target = DimAbGroup.from_dict({"t": Rationals()})
        for gens in (("x",), ("x", "y"), ("x", "y", "z")):
            fa = FreeAbelian({"d": gens})
            images = {(g, "d"): target.element(F(i + 1), "t") for i, g in enumerate(gens)}
            ext = fa.extend(images, target, lambda d: "t")
            for g in gens:
                assert ext.apply(fa.embed(g, "d")) == images[(g, "d")]
            for coeffs in itertools.product(range(-2, 3), repeat=len(gens)):
                v = fa.zero("d")
                expect = target.zero("t")
                for g, c in zip(gens, coeffs):
                    term = fa.slice("d").int_mul(c, fa.embed(g, "d").value)
                    v = fa.add(v, fa.element(term, "d"))
                    expect = target.add(
                        expect, target.element(F(c) * images[(g, "d")].value, "t")
                    )
                # uniqueness: the value is forced by the generator images
                assert ext.apply(v) == expect

    def test_tensor_bilinearity_on_rationals(self):
        g = DimAbGroup.from_dict({"d": Rationals()})
        t = tensor_groups(g, g)
        assert (
            t.pure(g.element(F(2), "d"), g.element(F(3), "d"))
            == t.pure(g.element(F(6), "d"), g.element(F(1), "d"))
        )

    def test_tensor_torsion_oracle(self):
        # oracle: Z/2 (x) Z/3 has order gcd(2, 3) = 1
        import math

        a = DimAbGroup.from_dict({"a": Cyclic(2)})
        b = DimAbGroup.from_dict({"b": Cyclic(3)})
        t = tensor_groups(a, b)
        assert len(t.group.slice(("a", "b")).elements()) == math.gcd(2, 3)

    def test_tensor_with_trivial_is_trivial(self):
        a = DimAbGroup.from_dict({"a": Rationals()})
        z = DimAbGroup.from_dict({"z": Cyclic(1)})
        t = tensor_groups(a, z)
        assert t.group.slice(("a", "z")).elements() == (0,)


_H = DimAbGroup.from_dict({0: Rationals()}, label="H")


@pytest.mark.parametrize("call, error, message", [
    (lambda g: g.slice(7), CarrierError, "unknown dimension 7"),
    (lambda g: DimMap.identity(g).apply(DimElement(F(1), 7)), CarrierError, "not in the domain"),
    (lambda g: DimMap.identity(g).pointwise_add(DimMap.identity(_H)), CarrierError,
     "mismatched hom-sets"),
    (lambda g: quotient_group(g, whole_subgroup(_H)), CarrierError, "different group"),
    (lambda g: FreeAbelian({0: ("x",)}).extend({("x", 0): g.element(F(1), 1)}, g, lambda d: d),
     DimensionMismatch, "free extension"),
], ids=["slice-of-unknown-dim", "apply-outside-domain", "add-across-hom-sets",
        "quotient-by-foreign-subgroup", "extend-over-wrong-dim"])
def test_group_refusals(two_slices, call, error, message):
    with pytest.raises(error, match=message):
        call(two_slices)
