import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dimalg import CarrierError
from dimalg.carriers import (
    Cyclic,
    FormalSums,
    Pairs,
    Rationals,
    SliceMap,
    SliceSubgroup,
    Vectors,
    finite_subgroup,
    identity_map,
    quotient_slice,
    tensor_carrier,
    whole_subgroup,
    zero_map,
    zero_subgroup,
)


def test_formal_sums_canonical_form():
    c = FormalSums(("x", "y"))
    v = c.add(c.embed("x"), c.embed("x"))
    assert v == (("x", 2),)
    assert c.add(c.int_mul(3, c.embed("x")), c.int_mul(-3, c.embed("x"))) == ()


def test_pairs_componentwise():
    c = Pairs(Rationals(), Cyclic(3))
    a = (F(1), 2)
    b = (F(2), 2)
    assert c.add(a, b) == (F(3), 1)
    assert c.neg(a) == (F(-1), 1)


class TestSliceMaps:
    def test_scale_compose_and_add(self):
        q = Rationals()
        two = SliceMap(q, q, (F(2),))
        three = SliceMap(q, q, (F(3),))
        assert two.compose(three).apply(F(1)) == 6
        assert two.add(three).apply(F(1)) == 5
        assert two.neg().apply(F(2)) == -4

    def test_cyclic_scale_needs_homomorphism(self):
        with pytest.raises(CarrierError):
            SliceMap(Cyclic(4), Cyclic(3), (1,))
        ok = SliceMap(Cyclic(4), Cyclic(2), (1,))
        assert ok.apply(3) == 1

    def test_matrix_kernel_is_nullspace(self):
        v2 = Vectors(2)
        # the matrix with rows (1, 1), (2, 2): its columns are the images
        m = SliceMap(v2, v2, ((F(1), F(2)), (F(1), F(2))))
        k = m.kernel()
        assert k.contains((F(1), F(-1)))
        assert not k.contains((F(1), F(1)))

    def test_zero_map_kernel_is_whole(self):
        q = Rationals()
        assert zero_map(q, q).kernel().contains(F(5))

    def test_genimage_apply(self):
        src = FormalSums(("x", "y"))
        m = SliceMap(src, Rationals(), (F(1), F(5)))
        v = src.add(src.int_mul(2, src.embed("x")), src.embed("y"))
        assert m.apply(v) == 7

    @pytest.mark.parametrize("src, dst, images", [
        (Rationals(), Cyclic(3), (F(2),)),
        (Rationals(), Cyclic(3), (2,)),
        (Vectors(2), Vectors(3), ((F(1),), (F(2),))),
        (FormalSums(("x",)), Cyclic(2), (5,)),
        (Pairs(Rationals(), Cyclic(3)), Cyclic(3), (1, 1)),
        (Vectors(2), Vectors(2), ((F(1), F(0)),)),
    ], ids=["fraction-in-Z/3", "Q-to-Z/3", "short-rows", "5-in-Z/2", "Q-part-to-Z/3",
            "missing-image"])
    def test_map_landing_outside_its_target_is_rejected(self, src, dst, images):
        with pytest.raises(CarrierError):
            SliceMap(src, dst, images)

    def test_rational_coefficients_reach_only_the_divisible_part(self):
        src = Pairs(Rationals(), Cyclic(3))
        ident = identity_map(src)
        assert ident.apply((F(1, 2), 2)) == (F(1, 2), 2)
        assert type(zero_map(Rationals(), Cyclic(3)).apply(F(1, 2))) is int

    def test_rational_pair_kernel_is_a_subspace(self):
        src = Pairs(Rationals(), Vectors(2))
        # (a, (b, c)) -> a + b - c
        k = SliceMap(src, Rationals(), (F(1), F(1), F(-1))).kernel()
        assert k.contains((F(1), (F(0), F(1))))
        assert not k.contains((F(1), (F(0), F(0))))
        q = quotient_slice(src, k)
        assert q.carrier == Vectors(1)
        assert q.project.apply((F(1), (F(0), F(1)))) == (F(0),)
        assert q.project.apply((F(1), (F(0), F(0)))) != (F(0),)

    def test_kernel_out_of_a_free_slice_is_unsupported(self):
        with pytest.raises(CarrierError, match="kernel solving unsupported"):
            SliceMap(FormalSums(("x",)), Rationals(), (F(1),)).kernel()


class TestTensorSlices:
    def test_rational_tensor_square_is_multiplication(self):
        t = tensor_carrier(Rationals(), Rationals())
        assert t.pure(F(2), F(3)) == t.pure(F(6), F(1))

    def test_cyclic_tensor_is_gcd(self):
        t = tensor_carrier(Cyclic(2), Cyclic(3))
        assert t.carrier == Cyclic(1)
        t = tensor_carrier(Cyclic(4), Cyclic(6))
        assert t.carrier == Cyclic(2)
        assert t.pure(3, 5) == (3 * 5) % 2

    def test_divisible_times_torsion_is_trivial(self):
        assert tensor_carrier(Rationals(), Cyclic(5)).carrier == Cyclic(1)

    def test_vector_kronecker(self):
        t = tensor_carrier(Vectors(2), Vectors(2))
        assert t.carrier == Vectors(4)
        assert t.pure((F(1), F(2)), (F(3), F(4))) == (F(3), F(4), F(6), F(8))

    def test_formal_sum_pairs(self):
        t = tensor_carrier(FormalSums(("x",)), FormalSums(("u", "v")))
        out = t.pure((("x", 2),), (("u", 1), ("v", 3)))
        assert dict(out) == {("x", "u"): 2, ("x", "v"): 6}


class TestQuotientSlices:
    def test_by_zero_is_identity(self):
        q = quotient_slice(Rationals(), zero_subgroup(Rationals()))
        assert q.carrier == Rationals()
        assert q.project.apply(F(7)) == 7

    def test_by_whole_is_trivial(self):
        q = quotient_slice(Rationals(), whole_subgroup(Rationals()))
        assert q.carrier == Cyclic(1)

    def test_cyclic_by_subgroup(self):
        # oracle: cosets of {0, 2} in Z/4 are {0,2} and {1,3}
        sub = finite_subgroup(Cyclic(4), (0, 2))
        q = quotient_slice(Cyclic(4), sub)
        assert q.carrier == Cyclic(2)
        assert q.project.apply(0) == q.project.apply(2)
        assert q.project.apply(1) == q.project.apply(3)
        assert q.project.apply(0) != q.project.apply(1)

    def test_subspace_quotient_kills_exactly_the_subspace(self):
        v2 = Vectors(2)
        sub = SliceSubgroup(v2, "subspace", ((F(1), F(1)),))
        q = quotient_slice(v2, sub)
        assert q.carrier == Vectors(1)
        assert q.project.apply((F(2), F(2))) == (F(0),)
        assert q.project.apply((F(1), F(0))) != (F(0),)

    def test_identity_map_kinds(self):
        for c in (Rationals(), Vectors(2), Cyclic(5), FormalSums(("x",))):
            m = identity_map(c)
            v = c.generators()[0]
            assert m.apply(v) == v

    def test_identity_kernel_on_pairs_is_enumerated(self):
        k = identity_map(Pairs(Cyclic(2), Cyclic(2))).kernel()
        assert k.elements() == ((0, 0),)


MAP_CARRIERS = (
    Rationals(),
    Vectors(2),
    Cyclic(2),
    Cyclic(4),
    Cyclic(6),
    FormalSums(("x", "y")),
    Pairs(Cyclic(2), Rationals()),
    Pairs(Cyclic(4), FormalSums(("x",))),
)


def generator_orders(c):
    """Per generator of c: None for a rational coefficient, n for a
    generator of order n, 0 for a free one."""
    if isinstance(c, Pairs):
        return generator_orders(c.left) + generator_orders(c.right)
    if isinstance(c, Cyclic):
        return (c.order,)
    if isinstance(c, FormalSums):
        return (0,) * len(c.gens)
    return (None,) * len(c.generators())


def fit(dst, x, n):
    """The part of x that a generator described by n (as in
    generator_orders) may be sent to by an additive map."""
    if isinstance(dst, Pairs):
        return (fit(dst.left, x[0], n), fit(dst.right, x[1], n))
    if n == 0:
        return x
    if isinstance(dst, Cyclic):
        # Q maps to no nonzero element of Z/m; Z/n onto the n-torsion
        return 0 if n is None else dst.int_mul(dst.order // math.gcd(n, dst.order), x)
    if n is None and isinstance(dst, (Rationals, Vectors)):
        return x
    return dst.zero()  # Q, Q^k and Z[S] have no torsion; Z[S] no divisible part


def random_map(src, dst, rng):
    return SliceMap(src, dst, [fit(dst, dst.sample(rng), n) for n in generator_orders(src)])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(MAP_CARRIERS),
    st.sampled_from(MAP_CARRIERS),
    st.sampled_from(MAP_CARRIERS),
    st.integers(0, 2**32 - 1),
)
def test_map_algebra_against_function_arithmetic(a, b, c, seed):
    """compose, add and neg on generator images agree with composing,
    adding and negating the maps as functions; every map is additive."""
    rng = random.Random(seed)
    g, h, f = random_map(a, b, rng), random_map(a, b, rng), random_map(b, c, rng)
    probes = a.elements()
    if probes is None:
        probes = (*a.generators(), a.zero(), *(a.sample(rng) for _ in range(4)))
    for v in probes:
        gv = g.apply(v)
        assert f.compose(g).apply(v) == f.apply(gv)
        assert g.add(h).apply(v) == b.add(gv, h.apply(v))
        assert g.neg().apply(v) == b.neg(gv)
        u = rng.choice(probes)
        assert g.apply(a.add(v, u)) == b.add(gv, g.apply(u))
