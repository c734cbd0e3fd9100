import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dimalg import CarrierError, FreeAbelian
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
from dimalg.linalg import smith
from dimalg.sampling import rand_fraction


def test_formal_sums_canonical_form():
    c = FormalSums(("x", "y"))
    v = c.add(c.embed("x"), c.embed("x"))
    assert v == (("x", 2),)
    assert c.add(c.int_mul(3, c.embed("x")), c.int_mul(-3, c.embed("x"))) == ()


def test_formal_sums_contain_only_canonical_sums():
    """A member is a sorted tuple of (generator, nonzero integer) pairs: a
    bare integer, an unsorted sum and a zero coefficient are not."""
    c = FormalSums(("x", "y"))
    assert c.contains((("x", 2), ("y", -1))) and c.contains(())
    assert not c.contains(5)
    assert not c.contains((("y", 1), ("x", 1)))
    assert not c.contains((("x", 0),))


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

    def test_kernel_out_of_a_free_slice_is_zero(self):
        src = FormalSums(("x",))
        k = SliceMap(src, Rationals(), (F(1),)).kernel()
        assert k == zero_subgroup(src)
        assert k.contains(()) and not k.contains((("x", 3),))


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
        assert q.carrier == Rationals() and hash(q.carrier) == hash(Rationals())
        assert q.carrier != Cyclic(1) and Rationals() != Vectors(1)
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

    def test_elements_lists_a_finite_subgroup_and_no_infinite_one(self):
        """{0, 2} in Z/4 is listed; 2Z in the formal sums on x has members
        of infinite order, so it lists none."""
        assert finite_subgroup(Cyclic(4), (0, 2)).elements() == (0, 2)
        assert SliceSubgroup(FormalSums(("x",)), lattice=((2,),)).elements() is None

    def test_subspace_quotient_kills_exactly_the_subspace(self):
        v2 = Vectors(2)
        sub = SliceSubgroup(v2, subspace=((F(1), F(1)),))
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


@pytest.mark.parametrize("build", [
    lambda: Cyclic(0),
    lambda: Cyclic(-2),
    lambda: Vectors(-1),
    lambda: FormalSums(("x", "x")),
    lambda: FreeAbelian({"d": ("x", "x")}),
], ids=["Z/0", "Z/-2", "Q^-1", "repeated-generator", "free-repeated-generator"])
def test_malformed_carrier_parameters_are_refused(build):
    with pytest.raises(CarrierError):
        build()


LEAF_CARRIERS = st.one_of(
    st.just(Rationals()),
    st.integers(0, 2).map(Vectors),
    st.integers(1, 6).map(Cyclic),
    st.lists(st.sampled_from("xyz"), unique=True, max_size=2).map(lambda g: FormalSums(tuple(g))),
)
CARRIERS = st.recursive(
    LEAF_CARRIERS, lambda inner: st.tuples(inner, inner).map(lambda p: Pairs(*p)), max_leaves=3
)


@settings(max_examples=60, deadline=None)
@given(CARRIERS, st.integers(0, 2**32 - 1))
def test_presentation_laws(c, seed):
    """Coefficients round-trip, generators are the unit vectors, a finite
    carrier has prod(orders) elements, and the group operations written
    on coefficients obey the abelian-group laws; a sample is one draw per
    generator, in generator order."""
    orders = c.orders()
    for i, g in enumerate(c.generators()):
        assert c.coords(g) == tuple(int(i == j) % n if n else int(i == j) for j, n in enumerate(orders))
    elems = c.elements()
    if all(orders):
        assert len(set(elems)) == len(elems) == math.prod(orders)
    else:
        assert elems is None
    draws = random.Random(seed)
    expected = c.from_coords(tuple(
        rand_fraction(draws) if n is None else draws.randrange(n) if n else draws.randint(-3, 3)
        for n in orders
    ))
    rng = random.Random(seed)
    a, b, v = c.sample(rng), c.sample(rng), c.sample(rng)
    assert a == expected
    zero = c.zero()
    for x in (a, b, v, zero):
        assert c.contains(x) and c.from_coords(c.coords(x)) == x
    assert c.add(c.add(a, b), v) == c.add(a, c.add(b, v))
    assert c.add(a, b) == c.add(b, a)
    assert c.add(a, zero) == a and c.add(a, c.neg(a)) == zero
    for n in range(-3, 4):
        assert c.int_mul(n, c.add(a, b)) == c.add(c.int_mul(n, a), c.int_mul(n, b))
        assert c.add(c.int_mul(n, a), a) == c.int_mul(n + 1, a)


@settings(max_examples=60, deadline=None)
@given(CARRIERS, CARRIERS, st.integers(0, 2**32 - 1))
def test_pure_tensors_are_bilinear(a, b, seed):
    rng = random.Random(seed)
    t = tensor_carrier(a, b)
    x, x2, y, y2 = a.sample(rng), a.sample(rng), b.sample(rng), b.sample(rng)
    assert t.pure(a.add(x, x2), y) == t.carrier.add(t.pure(x, y), t.pure(x2, y))
    assert t.pure(x, b.add(y, y2)) == t.carrier.add(t.pure(x, y), t.pure(x, y2))


def test_smith_agrees_with_sympy_invariant_factors():
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(7)
    for _ in range(120):
        r, n = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(r)]
        rows, _ = smith(m, n)
        assert [rows[k][k] for k in range(min(r, n))] == list(invariant_factors(Matrix(m)))
        assert all(x == 0 for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)


FINITE_CARRIERS = (
    Cyclic(1), Cyclic(2), Cyclic(4), Cyclic(6),
    Pairs(Cyclic(2), Cyclic(2)), Pairs(Cyclic(2), Cyclic(3)), Pairs(Cyclic(3), Cyclic(6)),
    Pairs(Cyclic(6), Cyclic(6)), Pairs(Cyclic(2), Pairs(Cyclic(2), Cyclic(3))),
)


@pytest.mark.parametrize("a", FINITE_CARRIERS, ids=str)
def test_kernel_quotient_and_tensor_against_enumeration(a):
    """For a seeded additive map out of a into each finite carrier b: the
    kernel is the enumerated one, the quotient by it has |a| / |kernel|
    elements and identifies exactly the cosets, and |a (x) b| is the
    product of gcd(m, n) over pairs of generator orders."""
    rng = random.Random(str(a))
    elems = a.elements()
    for b in FINITE_CARRIERS:
        torsion = {n: [v for v in b.elements() if b.int_mul(n, v) == b.zero()] for n in a.orders()}
        f = SliceMap(a, b, [rng.choice(torsion[n]) for n in a.orders()])
        kernel = f.kernel()
        expected = {v for v in elems if f.apply(v) == b.zero()}
        assert set(kernel.elements()) == expected
        q = quotient_slice(a, kernel)
        assert len(q.carrier.elements()) * len(expected) == len(elems)
        fibres = {}
        for u in elems:
            fibres.setdefault(q.project.apply(u), set()).add(u)
        assert len(fibres) == len(q.carrier.elements())
        for fibre in fibres.values():
            u = min(fibre)
            assert fibre == {a.add(u, k) for k in expected}
        gcds = [math.gcd(m, n) for m in a.orders() for n in b.orders()]
        assert len(tensor_carrier(a, b).carrier.elements()) == math.prod(gcds)


def test_mixed_kernel_is_a_lattice_and_its_quotient_is_q():
    # (a, n·x) -> a + n on Q x Z[x]
    src = Pairs(Rationals(), FormalSums(("x",)))
    f = SliceMap(src, Rationals(), (F(1), F(1)))
    k = f.kernel()
    assert k.lattice == ((F(-1), 1),) and k.subspace == ()
    assert k.contains((F(-3), (("x", 3),))) and not k.contains((F(-1, 2), (("x", 1),)))
    q = quotient_slice(src, k)
    assert q.carrier.orders() == (None,)
    for v in ((F(1, 2), (("x", 3),)), (F(-2), ()), (F(0), (("x", -1),))):
        assert q.project.apply(v) == (f.apply(v),)


def test_q_by_a_lattice_is_refused():
    q = Rationals()
    with pytest.raises(CarrierError, match="Q/Z, which is no carrier"):
        quotient_slice(q, SliceSubgroup(q, lattice=((1,),)))


def test_formerly_unsupported_slices_compute():
    assert tensor_carrier(Pairs(Rationals(), Cyclic(4)), Cyclic(6)).carrier == Cyclic(2)
    assert len(tensor_carrier(FormalSums(("x", "y")), Cyclic(6)).carrier.elements()) == 36
    c = Pairs(Cyclic(2), Cyclic(2))
    q = quotient_slice(c, finite_subgroup(c, [(0, 0), (1, 1)]))
    assert q.carrier == Cyclic(2)
    assert q.project.apply((1, 1)) == 0 and q.project.apply((1, 0)) == q.project.apply((0, 1)) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(MAP_CARRIERS + (Pairs(Rationals(), Cyclic(4)),)),
    st.sampled_from(MAP_CARRIERS),
    st.integers(0, 2**32 - 1),
)
def test_kernel_and_quotient_of_random_maps(a, b, seed):
    """v is in the kernel exactly when f(v) = 0, and the quotient by the
    kernel identifies u and v exactly when f(u) = f(v)."""
    rng = random.Random(seed)
    f = random_map(a, b, rng)
    k = f.kernel()
    q = quotient_slice(a, k)
    probes = a.elements()
    if probes is None:
        probes = (*a.generators(), *(a.sample(rng) for _ in range(4)))
        probes += tuple(a.add(a.from_coords(r), u) for r in k.lattice + k.subspace for u in probes)
    for u in probes:
        v = rng.choice(probes)
        assert k.contains(u) == (f.apply(u) == b.zero())
        assert (q.project.apply(u) == q.project.apply(v)) == (f.apply(u) == f.apply(v))


@pytest.mark.parametrize("call, message", [
    (lambda: FormalSums(("x",)).embed("y"), "'y' is not a generator"),
    (lambda: identity_map(Cyclic(2)).add(identity_map(Cyclic(3))), "mismatched source or target"),
    (lambda: Vectors(1).require(("x",)), r"\('x',\) is not an element of Q\^1"),
    (lambda: Cyclic(4).int_mul(F(1, 2), 1), "non-integer multiple"),
    (lambda: FormalSums(("x",)).int_mul(F(1, 2), (("x", 1),)), "non-integer multiple"),
    (lambda: Pairs(Rationals(), Cyclic(2)).int_mul(F(1, 2), (F(1), 1)), "non-integer multiple"),
    (lambda: SliceSubgroup(FormalSums(("x",)), subspace=[(1,)]), "nonzero on an integral"),
    (lambda: SliceSubgroup(Cyclic(4), subspace=[(1,)]), "nonzero on an integral"),
    (lambda: SliceSubgroup(Pairs(Rationals(), Cyclic(2)), subspace=[(0, 1)]),
     "nonzero on an integral"),
], ids=["embed-non-generator", "add-maps-of-other-ends", "vector-of-a-non-rational",
        "half-in-Z/4", "half-in-Z[x]", "half-in-Q-x-Z/2", "Q-span-in-Z[x]", "Q-span-in-Z/4",
        "Q-span-in-Q-x-Z/2"])
def test_carrier_refusals(call, message):
    with pytest.raises(CarrierError, match=message):
        call()


def test_a_rational_multiple_of_rational_or_zero_coefficients():
    assert Rationals().int_mul(F(1, 2), F(3)) == F(3, 2)
    assert Vectors(2).int_mul(F(1, 3), (F(1), F(2))) == (F(1, 3), F(2, 3))
    assert Pairs(Rationals(), Cyclic(2)).int_mul(F(1, 2), (F(1), 0)) == (F(1, 2), 0)
    assert FormalSums(("x",)).int_mul(F(1, 2), ()) == ()
    assert Cyclic(4).int_mul(F(6, 2), 3) == 1


def test_subspace_rows_may_be_given_as_a_list():
    sub = SliceSubgroup(Vectors(2), subspace=[(1, 0)])
    assert sub.subspace == ((1, 0),)
    assert sub.contains((3, 0)) and not sub.contains((3, 1))
    mixed = SliceSubgroup(Pairs(Rationals(), Cyclic(2)), subspace=[(1, 0)])
    assert mixed.contains((F(1, 2), 0)) and not mixed.contains((F(1, 2), 1))
