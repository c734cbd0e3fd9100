from fractions import Fraction as F

import pytest

from dimalg import (
    CarrierError,
    ConstructionError,
    DimDerivation,
    GradedPolyRing,
    bilinear_check,
    dimensionless_restriction,
    property_check,
    ring_probe_space,
)


def vec_add(d, e):
    return tuple(x + y for x, y in zip(d, e))


class TestBilinearCheck:
    def test_polynomial_product_passes(self, canonical_ring):
        space = ring_probe_space(canonical_ring)
        rep = bilinear_check(space, canonical_ring.mul, vec_add)
        assert rep.ok

    def test_broken_dimension_map_witnessed(self, canonical_ring):
        space = ring_probe_space(canonical_ring)

        def broken_mu(d, e):
            # one mutated value destroys both covering and equivariance
            if d == (1,) and e == (1,):
                return (5,)
            return vec_add(d, e)

        rep = bilinear_check(space, canonical_ring.mul, broken_mu)
        assert not rep.ok
        assert any(r.witness for r in rep.failures)


class TestPropertyCheck:
    def test_product_is_symmetric_and_associative(self, canonical_ring):
        space = ring_probe_space(canonical_ring)
        assert property_check(space, canonical_ring.mul, vec_add, "symmetric").ok
        assert property_check(space, canonical_ring.mul, vec_add, "associative").ok

    def test_bracket_is_antisymmetric_and_jacobi(self, canonical_poisson):
        ring = canonical_poisson.ring
        space = ring_probe_space(ring)
        assert property_check(space, canonical_poisson.bracket, vec_add, "antisymmetric").ok
        assert property_check(space, canonical_poisson.bracket, vec_add, "jacobi").ok

    def test_broken_antisymmetry_witnessed(self, canonical_ring):
        space = ring_probe_space(canonical_ring)
        # the plain product is symmetric, not antisymmetric
        rep = property_check(space, canonical_ring.mul, vec_add, "antisymmetric")
        assert not rep.ok

    def test_dimension_binar_prerequisite_reported_first(self, canonical_ring):
        space = ring_probe_space(canonical_ring)

        def non_commutative_mu(d, e):
            return tuple(2 * x + y for x, y in zip(d, e))

        rep = property_check(space, canonical_ring.mul, non_commutative_mu, "symmetric")
        assert not rep.ok
        assert rep.results[0].law == "dimension binar prerequisite"
        assert len(rep.results) == 1  # element checks never ran

    def test_unknown_property_rejected(self, canonical_ring):
        with pytest.raises(CarrierError):
            property_check(ring_probe_space(canonical_ring), canonical_ring.mul,
                           vec_add, "alternative")


def _square_left(r):
    """M(a, b) = a·a·b: commutative in no slot, additive in the right one only."""
    return lambda a, b: r.mul(r.mul(a, a), b)


def _subtract(d, e):
    return tuple(x - y for x, y in zip(d, e))


# (suite on QxZ and its probe space, law, witness start): each candidate
# breaks the law it is listed with
BLACK_BOX_CONTROLS = [
    (lambda r, s: bilinear_check(s, _square_left(r), vec_add),
     "additive in the left slot", "M(a+b, c) != M(a,c)+M(b,c) at "),
    (lambda r, s: bilinear_check(s, lambda a, b: r.mul(a, r.mul(b, b)), vec_add),
     "additive in the right slot", "M(c, a+b) != M(c,a)+M(c,b) at "),
    (lambda r, s: bilinear_check(
        s, lambda a, b: r.element(a.value * b.value, (0,)), vec_add),
     "module action moves outside", "M(r·a, s·c) != r·s·M(a,c) at "),
    (lambda r, s: property_check(s, r.mul, _subtract, "associative"),
     "dimension binar prerequisite", "dimension binar not associative at "),
    (lambda r, s: property_check(s, _square_left(r), vec_add, "symmetric"),
     "symmetric identity on probes", "M(a,b) != M(b,a) at "),
    (lambda r, s: property_check(s, _square_left(r), vec_add, "associative"),
     "associative identity on probes", "associator nonzero at "),
    (lambda r, s: property_check(s, r.mul, vec_add, "jacobi"),
     "jacobi identity on probes", "jacobiator nonzero at "),
]


@pytest.mark.parametrize("suite, law, witness", BLACK_BOX_CONTROLS, ids=[
    "left-additivity", "right-additivity", "action-outside", "binar-associativity",
    "symmetric", "associative", "jacobi"])
def test_each_black_box_law_fails_on_a_candidate_that_breaks_it(q_x_z, suite, law, witness):
    (line,) = [r for r in suite(q_x_z, ring_probe_space(q_x_z)).results if r.law == law]
    assert not line.passed and line.witness.startswith(witness)


@pytest.fixture
def ddq(canonical_ring):
    return DimDerivation(canonical_ring, (-1,), {"q": canonical_ring.one}, "d/dq")


@pytest.fixture
def ddp(canonical_ring):
    return DimDerivation(canonical_ring, (1,), {"p": canonical_ring.one}, "d/dp")


class TestDerivations:
    def test_calculus_example(self, canonical_ring, ddq):
        f = canonical_ring.poly({(2, 1): F(1)})  # q^2 p
        assert ddq(f) == canonical_ring.poly({(1, 1): F(2)})

    def test_kills_the_unit(self, canonical_ring, ddq):
        assert canonical_ring.is_zero(ddq(canonical_ring.one))

    def test_leibniz_identically(self, canonical_ring, ddq, rng):
        for _ in range(25):
            f = canonical_ring.sample(rng)
            g = canonical_ring.sample(rng)
            lhs = ddq(canonical_ring.mul(f, g))
            rhs = canonical_ring.add(
                canonical_ring.mul(ddq(f), g), canonical_ring.mul(f, ddq(g))
            )
            assert lhs == rhs

    def test_shift_moves_every_slice(self, canonical_ring, ddq, rng):
        for _ in range(20):
            f = canonical_ring.sample(rng)
            assert ddq(f).dim == (f.dim[0] - 1,)

    def test_misplaced_image_rejected(self, canonical_ring):
        with pytest.raises(ConstructionError):
            DimDerivation(canonical_ring, (-1,), {"q": canonical_ring.generator("q")})

    def test_an_image_of_a_name_that_is_no_generator_is_refused(self, canonical_ring):
        """The unknown key is named, not dropped, as `make_poisson` names one."""
        one = canonical_ring.one
        with pytest.raises(ConstructionError, match="image of 'Q', which is not a generator"):
            DimDerivation(canonical_ring, (-1,), {"Q": one, "q": one})

    def test_a_shift_of_another_rank_is_refused(self, canonical_ring):
        """Both lengths are named; `zip` would have cut the shift to (-1,)."""
        with pytest.raises(ConstructionError, match="shift has 2 exponents, expected 1"):
            DimDerivation(canonical_ring, (-1, 7), {"q": canonical_ring.one})


class TestCommutators:
    def test_partials_commute(self, ddq, ddp):
        assert ddq.commutator(ddp).is_zero()

    def test_weighted_commutator(self, canonical_ring, ddq):
        # oracle by expansion: [q d/dq, d/dq] = -d/dq on both generators
        qddq = DimDerivation(
            canonical_ring, (0,), {"q": canonical_ring.generator("q")}, "q d/dq"
        )
        c = qddq.commutator(ddq)
        minus = DimDerivation(
            canonical_ring, (-1,), {"q": canonical_ring.neg(canonical_ring.one)}
        )
        assert c.eq(minus)

    def test_commutator_across_two_rings_is_refused(self, ddq):
        other = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        with pytest.raises(CarrierError, match="commutator needs one carrier ring"):
            ddq.commutator(DimDerivation(other, (1,), {"p": other.one}, "d/dp"))

    def test_self_commutator_vanishes(self, ddq):
        assert ddq.commutator(ddq).is_zero()

    def test_commutator_shift_adds(self, canonical_ring, ddq, ddp):
        qddp = DimDerivation(
            canonical_ring, (2,),
            {"p": canonical_ring.generator("q")}, "q d/dp"
        )
        assert ddq.commutator(qddp).shift == (1,)

    def test_jacobi_for_the_commutator_bracket(self, canonical_ring, ddq, ddp, rng):
        """[[A,[B,C]] + cyclic permutations vanish on derivation triples."""
        a = ddq
        b = ddp
        c = DimDerivation(
            canonical_ring, (0,),
            {"q": canonical_ring.generator("q"),
             "p": canonical_ring.generator("p")},
            "euler",
        )
        comm = lambda x, y: x.commutator(y)
        first = comm(a, comm(b, c))
        second = comm(b, comm(c, a))
        third = comm(c, comm(a, b))
        total = {
            n: canonical_ring.add(
                first.images[n], canonical_ring.add(second.images[n], third.images[n])
            )
            for n in canonical_ring.gen_names
        }
        assert all(canonical_ring.is_zero(v) for v in total.values())


class TestDimensionlessRestriction:
    def test_euler_operator_restricts(self, canonical_ring):
        euler = DimDerivation(
            canonical_ring, (0,),
            {"q": canonical_ring.generator("q"), "p": canonical_ring.generator("p")},
        )
        r = dimensionless_restriction(euler)
        qp = canonical_ring.poly({(1, 1): F(1)})
        assert r(qp) == canonical_ring.poly({(1, 1): F(2)})

    def test_rejects_nonzero_shift(self, ddq):
        with pytest.raises(CarrierError):
            dimensionless_restriction(ddq)

    def test_rejects_dimensionful_argument(self, canonical_ring):
        euler = DimDerivation(
            canonical_ring, (0,),
            {"q": canonical_ring.generator("q"), "p": canonical_ring.generator("p")},
        )
        r = dimensionless_restriction(euler)
        from dimalg import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            r(canonical_ring.generator("q"))

    def test_zero_derivation_restricts_to_zero(self, canonical_ring, rng):
        zero = DimDerivation(canonical_ring, (0,), {})
        r = dimensionless_restriction(zero)
        f = canonical_ring.sample(rng, dim=(0,))
        assert canonical_ring.is_zero(r(f))

    def test_commutators_map_to_commutators(self, canonical_ring, rng):
        """Restricting [D1, D2] agrees with commuting the restrictions on
        dimensionless probes."""
        d1 = DimDerivation(
            canonical_ring, (0,),
            {"q": canonical_ring.generator("q")},
        )
        d2 = DimDerivation(
            canonical_ring, (0,),
            {"p": canonical_ring.poly({(1, 2): F(1)})},  # q p^2, dim -1 = 0 + g_p
        )
        comm = d1.commutator(d2)
        r1, r2, rc = map(dimensionless_restriction, (d1, d2, comm))
        for _ in range(15):
            f = canonical_ring.sample(rng, dim=(0,))
            lhs = rc(f)
            rhs = canonical_ring.sub(r1(d2(f)), r2(d1(f)))
            assert lhs == rhs
