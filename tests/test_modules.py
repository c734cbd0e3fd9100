import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import draw as drawn
from dimalg import (
    CarrierError,
    ConstructionError,
    DimensionMismatch,
    FreeDimModule,
    GradedPolyRing,
    GSet,
    ProductDimRing,
    RingMorphism,
    TwistedLinearMap,
    bilinear_factorization,
    direct_sum_mod,
    gset_tensor,
    linear_map_check,
    module_axiom_report,
    pullback_map,
    pullback_module,
    quotient_module,
    rig_distributivity_witness,
    ring_axiom_report,
    span_contains,
    tensor_mod,
    zero_ideal,
)
from dimalg.carriers import Rationals
from dimalg.endo import EndoRing
from dimalg.group import DimElement
from dimalg.monoid import DimMonoid
from dimalg.ring import slot_cases
from mutants import DifferentHalvesAddOne, DoubledProduct, OffByOne, ZeroTimesTwoIsOne


def sign_morphism(s):
    """sgn(v, d) = ((-1)^d v, d) on QxZ/2: a ring automorphism that moves
    the odd slice's values and no dimension."""
    return RingMorphism(
        s, s, lambda d: d, lambda a: s.element((-1) ** a.dim * a.value, a.dim), "sgn"
    )


@pytest.fixture
def ring():
    return ProductDimRing(Rationals(), DimMonoid.free_abelian(1), label="QxZ")


@pytest.fixture
def gset(ring):
    return GSet(ring.dims, orbits=("i",))


@pytest.fixture
def rank2(ring, gset):
    return FreeDimModule(
        ring, gset, [("e", ((0,), "i")), ("f", ((1,), "i"))], "M"
    )


class TestModuleBasics:
    def test_action_scales_and_shifts(self, ring, rank2):
        r = ring.element(F(2), (1,))
        out = rank2.act(r, rank2.basis_element("e"))
        assert out.dim == ((1,), "i")
        assert dict(out.value)["e"] == r

    def test_axioms(self, rank2, rng):
        assert module_axiom_report(rank2).ok

    def test_show_names_the_slice_of_zero(self, rank2):
        assert rank2.show(rank2.zero(((1,), "i"))) == "0 @ ((1,), 'i')"

    def test_one_acts_trivially(self, ring, rank2, rng):
        for _ in range(10):
            a = drawn.element(rank2, rng)
            assert rank2.act(ring.one, a) == a

    def test_additivity_of_action(self, ring, rank2, rng):
        for _ in range(20):
            r = drawn.element(ring, rng)
            p = drawn.element(ring, rng, dim=r.dim)
            a = drawn.element(rank2, rng)
            assert rank2.act(ring.add(r, p), a) == rank2.add(rank2.act(r, a), rank2.act(p, a))

    def test_homogeneity_enforced(self, ring, rank2):
        # a coefficient that would land the term in a different slice
        with pytest.raises(DimensionMismatch):
            rank2.element(
                ((0,), "i"),
                {"e": ring.one, "f": ring.one},
            )


def _rank_one_over(mutant):
    r = mutant(Rationals(), DimMonoid.free_abelian(1), label=mutant.__name__)
    return r, FreeDimModule(r, GSet(r.dims, ("i",)), [("e", ((0,), "i"))], "M")


class TestModuleLawsAreRingLaws:
    """Each module law restates a coefficient-ring law on one basis vector:
    decided over a slot ring, probed over any other; a pullback's and a
    map's report end with their morphism's check."""

    def test_a_slot_ring_decides_without_drawing(self, rank2):
        """Each law runs its ring law's slot cases, and no probe."""
        decided = module_axiom_report(rank2)
        slots = rank2.coeff_ring.slots()
        laws = ("distributivity where defined",) * 2 + ("multiplicative associativity", "unitality")
        assert decided.ok
        assert [r.cases for r in decided.results] == [len(list(slot_cases(slots, law))) for law in laws]

    @pytest.mark.parametrize("mutant", [ZeroTimesTwoIsOne, DifferentHalvesAddOne])
    def test_mutants_beyond_random_probes_fail_both_distributive_laws(self, mutant):
        rep = module_axiom_report(_rank_one_over(mutant)[1])
        failures = {f.law: f.witness for f in rep.failures}
        assert failures["r(a+b) = ra + rb"].startswith("r(a+b) != ra+rb at ")
        assert failures["(r+p)a = ra + pa"].startswith("(r+p)a != ra+pa at ")

    @pytest.mark.parametrize("mutant", [ZeroTimesTwoIsOne, DifferentHalvesAddOne])
    def test_the_ring_suite_fails_the_same_coefficient_rings(self, mutant):
        rep = ring_axiom_report(_rank_one_over(mutant)[0])
        (line,) = [r for r in rep.results if r.law == "distributivity where defined"]
        assert not line.passed and line.witness

    def test_a_module_over_a_polynomial_ring_is_probed(self):
        """Each law runs on one probe triple per probe of the ring."""
        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        m = FreeDimModule(ring, GSet(ring.dims, ("i",)), [("e", ((0,), "i"))], "A")
        rep = module_axiom_report(m)
        assert rep.ok
        assert [r.cases for r in rep.results] == [len(ring.probe_elements())] * 4 == [16] * 4

    def test_the_zero_module_passes_every_law(self, ring, gset, rank2):
        zero = FreeDimModule(ring, gset, [], "0")
        rep = module_axiom_report(zero)
        assert rep.ok and len(rep.results) == 4
        for dst in (zero, rank2):
            check = linear_map_check(zero, dst, {})
            assert check.ok and check.value is not None

    def test_a_pullback_and_a_map_end_with_their_morphisms_check(self, ring, rank2, rng):
        q = ProductDimRing(Rationals(), DimMonoid.trivial(), label="Q")
        incl = RingMorphism(q, ring, lambda d: (0,), lambda a: ring.element(a.value, (0,)), "incl")
        morphism_laws = [r.law for r in incl.check().results]
        rep = module_axiom_report(pullback_module(incl, rank2))
        assert [r.law for r in rep.results] == [
            "r(a+b) = ra + rb", "(r+p)a = ra + pa", "(rq)a = r(qa)", "1·a = a", *morphism_laws]
        check = linear_map_check(rank2, rank2, _ident(rank2))
        assert [r.law for r in check.report.results] == [
            "images keyed by the basis names", "images live in the codomain",
            "dimension map is twisted-equivariant", *morphism_laws]


class TestLinearMaps:
    def test_identity_is_valid(self, rank2):
        images = {n: rank2.basis_element(n) for n, _ in rank2.basis}
        assert linear_map_check(rank2, rank2, images).ok

    def test_orbit_respecting_permutation(self, ring, gset):
        # two basis vectors at the same dimension swap cleanly
        m = FreeDimModule(ring, gset, [("e", ((0,), "i")), ("f", ((0,), "i"))])
        images = {"e": m.basis_element("f"), "f": m.basis_element("e")}
        check = linear_map_check(m, m, images)
        assert check.ok
        assert check.value(m.basis_element("e")) == m.basis_element("f")

    def test_wrong_slice_image_rejected(self, rank2):
        # e and f sit one dimension apart; equal images cannot be equivariant
        images = {"e": rank2.basis_element("f"), "f": rank2.basis_element("f")}
        check = linear_map_check(rank2, rank2, images)
        assert not check.ok
        assert "equivariant" in check.report.failures[0].witness

    @pytest.mark.parametrize("names, witness", [
        (("e",), "no image of basis element 'f'"),
        (("e", "f", "g"), "image of 'g', which names no basis element"),
    ], ids=["missing", "extra"])
    def test_images_keyed_by_other_names_are_a_failed_law(self, rank2, names, witness):
        e = rank2.basis_element("e")
        check = linear_map_check(rank2, rank2, dict.fromkeys(names, e))
        assert check.value is None
        assert [r.line() for r in check.report.results] == [
            f"FAIL  images keyed by the basis names: {witness}",
            "PASS  images live in the codomain",
        ]

    def test_map_action(self, ring, rank2, rng):
        images = {n: rank2.basis_element(n) for n, _ in rank2.basis}
        ident = TwistedLinearMap(rank2, rank2, RingMorphism.identity(ring), images)
        r = ring.element(F(3), (2,))
        scaled = ident.scaled(r)
        for _ in range(10):
            a = drawn.element(rank2, rng)
            assert scaled(a) == rank2.act(r, ident(a))


class TestMapsOverAMonoidWithoutInverses:
    """Over Map({0, 1}), which is no group, a map transports d = g·bd by
    the first monoid element g that carries the basis dimension bd there."""

    @staticmethod
    def _rank_one(at=None):
        endo = EndoRing(ProductDimRing(Rationals(), DimMonoid.cyclic(2)))
        bd = endo.dims.identity if at is None else at
        return endo, FreeDimModule(endo, GSet(endo.dims, ("i",)), [("e", (bd, "i"))], "M")

    def test_the_identity_places_both_zeros_of_the_basis_vectors_slice(self):
        endo, m = self._rank_one()
        e = m.basis_element("e")
        ident = TwistedLinearMap.identity(m)
        assert ident(e) == e
        assert e.dim == ((0, 1), "i")
        for zero in (m.zero(e.dim), m.act(endo.zero(endo.dims.identity), e)):
            assert zero.value == ()
            assert ident(zero) == m.zero(e.dim)

    def test_a_zero_over_a_constant_map(self):
        """(0, 0)∘id = (0, 0), so the constant map carries e's slice there."""
        _, m = self._rank_one()
        assert TwistedLinearMap.identity(m)(m.zero(((0, 0), "i"))) == m.zero(((0, 0), "i"))

    def test_a_factorization_runs_through_the_zero_probes(self):
        """The module's probes hold zeros, r·e for each zero r; the zero map
        factors, and each zero's tensor is placed by `dim_map`."""
        endo, m = self._rank_one()
        assert any(not x.value for x in m.probe_elements())

        def zero(x, y):
            return m.zero((endo.dims.combine(x.dim[0], y.dim[0]), "i"))

        assert bilinear_factorization(m, m, m, zero).ok

    def test_a_map_that_splits_a_slice_is_not_equivariant(self):
        """f sits where (0, 0)·e does; sending e and f to e would send that
        one slice to two."""
        endo, m = self._rank_one()
        m = FreeDimModule(endo, m.gset, [*m.basis, ("f", ((0, 0), "i"))], "M")
        e = m.basis_element("e")
        check = linear_map_check(m, m, {"e": e, "f": e})
        assert check.value is None
        assert [r.line() for r in check.report.failures] == [
            "FAIL  dimension map is twisted-equivariant: image of 'f' sits in slice "
            "((0, 1), 'i'), not the equivariant slice ((0, 0), 'i')"]
        assert linear_map_check(m, m, {"e": e, "f": m.basis_element("f")}).ok

    def test_a_slice_no_element_reaches_is_refused(self):
        """g∘(0, 0) is constant for every g, so no g carries (0, 0) to id."""
        _, m = self._rank_one(at=(0, 0))
        with pytest.raises(CarrierError, match=r"^cannot transport dimension \(\(0, 1\), 'i'\)$"):
            TwistedLinearMap.identity(m).dim_map(((0, 1), "i"))


class TestSumsAndTensors:
    def test_direct_sum_has_disjoint_basis(self, rank2):
        s = direct_sum_mod(rank2, rank2)
        assert len(s.module.basis) == 4
        a = s.inject_left(rank2.basis_element("e"))
        b = s.inject_right(rank2.basis_element("e"))
        total = s.module.add(a, b)
        assert len(total.value) == 2

    def test_action_distributes_over_sum(self, ring, rank2, rng):
        s = direct_sum_mod(rank2, rank2)
        for _ in range(20):
            r = drawn.element(ring, rng)
            x = drawn.element(s.module, rng)
            y = s.module.element(x.dim, {n: drawn.element(ring, rng, dim=c.dim) for n, c in x.value})
            assert (
                s.module.act(r, s.module.add(x, y))
                == s.module.add(s.module.act(r, x), s.module.act(r, y))
            )

    def test_gset_tensor_orbit_count(self, ring):
        g = ring.dims
        d = GSet(g, orbits=("a", "b"))
        e = GSet(g, orbits=("x", "y", "z"))
        t = gset_tensor(d, e)
        assert len(t.gset.orbits) == 6

    def test_gsets_compare_by_value(self, ring):
        g = ring.dims
        assert GSet(g, ("a", "b")) == GSet(g, orbits=["a", "b"])
        assert GSet(g, ("a",)) != GSet(g, ("b",))
        assert GSet(g, ("a",)) != GSet(DimMonoid.trivial(), ("a",))

    def test_gset_tensor_single_orbit_is_the_group(self, ring):
        g = ring.dims
        d = GSet(g, orbits=("i",))
        t = gset_tensor(d, d)
        assert t.eta(((2,), "i"), ((3,), "i")) == ((5,), ("i", "i"))

    def test_gset_tensor_defining_relation(self, ring, rng):
        g = ring.dims
        d = GSet(g, orbits=("a", "b"))
        t = gset_tensor(d, d)
        for _ in range(30):
            x, y = drawn.dimension(d, rng), drawn.dimension(d, rng)
            h = drawn.dimension(g, rng)
            assert t.eta(d.act(h, x), y) == t.eta(x, d.act(h, y))

    def test_gset_tensor_symmetric_and_associative_up_to_bijection(self, ring, rng):
        """For index sets of size <= 3: swapping factors and reassociating
        are orbit relabelings that match the canonical representatives."""
        g = ring.dims
        for nd, ne, nf in itertools.product((1, 2, 3), repeat=3):
            d = GSet(g, orbits=tuple(f"d{k}" for k in range(nd)))
            e = GSet(g, orbits=tuple(f"e{k}" for k in range(ne)))
            f = GSet(g, orbits=tuple(f"f{k}" for k in range(nf)))
            de = gset_tensor(d, e)
            ed = gset_tensor(e, d)
            assert sorted((j, i) for i, j in de.gset.orbits) == sorted(ed.gset.orbits)
            for _ in range(5):
                x, y = drawn.dimension(d, rng), drawn.dimension(e, rng)
                gx, (i, j) = de.eta(x, y)
                gy, (j2, i2) = ed.eta(y, x)
                assert gx == gy and (i, j) == (i2, j2)
            left = gset_tensor(de.gset, f)
            right = gset_tensor(d, gset_tensor(e, f).gset)
            flat_left = sorted((i, j, k) for (i, j), k in left.gset.orbits)
            flat_right = sorted((i, j, k) for i, (j, k) in right.gset.orbits)
            assert flat_left == flat_right
            for _ in range(5):
                x, y, z = drawn.dimension(d, rng), drawn.dimension(e, rng), drawn.dimension(f, rng)
                gl, ((i, j), k) = left.eta(de.eta(x, y), z)
                ef = gset_tensor(e, f)
                gr, (i2, (j2, k2)) = right.eta(x, ef.eta(y, z))
                assert gl == gr and (i, j, k) == (i2, j2, k2)

    def test_tensor_defining_relation_on_elements(self, ring, rank2, rng):
        t = tensor_mod(rank2, rank2)
        for _ in range(30):
            r = drawn.element(ring, rng)
            a = drawn.element(rank2, rng)
            b = drawn.element(rank2, rng)
            lhs = t.pure(rank2.act(r, a), b)
            rhs = t.pure(a, rank2.act(r, b))
            assert lhs == rhs
            assert lhs == t.module.act(r, t.pure(a, b))

    def test_rank_one_tensor(self, ring, gset):
        a = FreeDimModule(ring, gset, [("e", ((1,), "i"))])
        b = FreeDimModule(ring, gset, [("f", ((2,), "i"))])
        t = tensor_mod(a, b)
        assert len(t.module.basis) == 1
        assert t.module.basis[0][1] == ((3,), ("i", "i"))

    def test_tensor_with_trivial_module_is_trivial(self, ring, gset, rank2, rng):
        zero_mod = FreeDimModule(ring, gset, [])
        t = tensor_mod(rank2, zero_mod)
        assert t.module.basis == ()
        a = drawn.element(rank2, rng)
        z = zero_mod.zero(((0,), "i"))
        assert t.module.is_zero(t.pure(a, z))

    def test_relation_collapses_scaled_generators(self, ring, rank2):
        # (2r·a) (x) b  equals  a (x) (2r·b), so their difference vanishes
        t = tensor_mod(rank2, rank2)
        r = ring.element(F(2), (1,))
        a, b = rank2.basis_element("e"), rank2.basis_element("f")
        lhs = t.pure(rank2.act(r, a), b)
        rhs = t.pure(a, rank2.act(r, b))
        assert t.module.is_zero(t.module.sub(lhs, rhs))


class TestBilinearFactorization:
    def test_module_action_factors(self, ring, gset, rank2, rng):
        # the action R x M -> M is bilinear, so it factors
        rmod = FreeDimModule(ring, GSet(ring.dims, orbits=("r",)),
                             [("1", ((0,), "r"))], "R")

        def action(x, y):
            # x = c·1 at dim (g, "r"); act by the ring element c shifted to g
            coeff = dict(x.value).get("1", ring.zero((0,)))
            r = ring.element(coeff.value, x.dim[0])
            out = rank2.act(r, y)
            return out

        res = bilinear_factorization(rmod, rank2, rank2, action)
        assert res.ok

    def test_additive_but_not_bilinear_fails(self, ring, rank2, rng):
        # coefficient-sum map: built from additions, not balanced bilinear
        def phi(x, y):
            coeff_x = sum((c.value for _, c in x.value), F(0))
            coeff_y = sum((c.value for _, c in y.value), F(0))
            return rank2.element(
                ((0,), "i"), {"e": ring.element(coeff_x + coeff_y, (0,))}
            )

        res = bilinear_factorization(rank2, rank2, rank2, phi)
        assert not res.ok
        assert res.report.failures[0].witness

    def test_zero_map_factors(self, ring, rank2, rng):
        def zero(x, y):
            g = ring.dims
            return rank2.zero((g.combine(x.dim[0], y.dim[0]), "i"))

        res = bilinear_factorization(rank2, rank2, rank2, zero)
        assert res.ok

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_zero_module_factor_is_refused_before_sampling(self, ring, gset, rank2, side):
        """A map out of the zero module has no dimension map to transport:
        one ConstructionError, before any probe is formed."""
        zero = FreeDimModule(ring, gset, [], "0")
        a, b = (zero, rank2) if side == "left" else (rank2, zero)
        with pytest.raises(ConstructionError, match="^cannot factor through .*: a factor has an empty basis$"):
            bilinear_factorization(a, b, rank2, lambda x, y: rank2.zero(((0,), "i")))


class TestRigDistributivity:
    def test_exhaustive_small_shapes(self, ring):
        """Every configuration with ranks <= 2 and orbit index sets of
        size <= 3 (each bijection decided on basis vectors)."""
        g = ring.dims
        for n_orb, ra, rb, rc in itertools.product((1, 2, 3), (1, 2), (1, 2), (1, 2)):
            orbits = tuple(f"o{k}" for k in range(n_orb))
            gs = GSet(g, orbits=orbits)

            def mk(prefix, rank):
                return FreeDimModule(
                    ring,
                    gs,
                    [
                        (f"{prefix}{j}", ((j,), orbits[j % n_orb]))
                        for j in range(rank)
                    ],
                    prefix,
                )

            a, b = mk("a", ra), mk("b", rb)
            # b must share a's dimension G-set for the direct sum
            w = rig_distributivity_witness(a, b, mk("c", rc))
            assert w.report.ok, w.report.failures

    def test_zero_summand_reduces_to_identity(self, ring, gset, rank2, rng):
        zero_mod = FreeDimModule(ring, gset, [])
        w = rig_distributivity_witness(rank2, zero_mod, rank2)
        assert w.report.ok
        # with B = 0 the bijection is a pure relabeling of A (x) C
        x = drawn.element(tensor_mod(direct_sum_mod(rank2, zero_mod).module, rank2).module, rng)
        assert w.forward(x).dim == x.dim


class TestPullback:
    def test_identity_pullback_acts_identically(self, ring, rank2, rng):
        pm = pullback_module(RingMorphism.identity(ring), rank2)
        for _ in range(10):
            r = drawn.element(ring, rng)
            a = drawn.element(pm, rng)
            assert pm.act(r, a).value == rank2.act(r, a).value

    def test_dimensionless_inclusion_gives_ordinary_module(self, ring, rank2, rng):
        """Pull back along Q -> QxZ: the trivial monoid acts, so the module
        axioms hold with dimension shifts frozen."""
        q = ProductDimRing(Rationals(), DimMonoid.trivial(), label="Q")
        incl = RingMorphism(
            q, ring, lambda d: (0,), lambda a: ring.element(a.value, (0,)), "incl"
        )
        pm = pullback_module(incl, rank2)
        assert module_axiom_report(pm).ok
        r = q.element(F(5), ())
        a = pm.basis_element("e")
        out = pm.act(r, a)
        assert out.dim == a.dim  # the trivial monoid cannot shift slices

    def test_pullback_functor_laws(self, ring, rank2, rng):
        """Pulled-back composition equals composition of the pullbacks."""
        q = ProductDimRing(Rationals(), DimMonoid.trivial(), label="Q")
        incl = RingMorphism(
            q, ring, lambda d: (0,), lambda a: ring.element(a.value, (0,)), "incl"
        )
        ident_m = RingMorphism.identity(ring)
        psi = TwistedLinearMap(
            rank2, rank2, ident_m,
            {n: rank2.act(ring.element(F(2), (0,)), rank2.basis_element(n))
             for n, _ in rank2.basis},
            "psi",
        )
        theta = TwistedLinearMap(
            rank2, rank2, ident_m,
            {n: rank2.act(ring.element(F(-3), (0,)), rank2.basis_element(n))
             for n, _ in rank2.basis},
            "theta",
        )
        lhs = pullback_map(incl, psi.compose(theta))
        rhs = pullback_map(incl, psi).compose(pullback_map(incl, theta))
        pm = pullback_module(incl, rank2)
        ident_pull = pullback_map(incl, TwistedLinearMap.identity(rank2))
        for _ in range(25):
            x = drawn.element(pm, rng)
            assert lhs(x) == rhs(x)
            assert ident_pull(x) == x

    @staticmethod
    def _scaled_inclusion(q, ring, factor):
        """Q -> QxZ, x |-> factor·x in the dimensionless slice, under the
        default morphism label."""
        return RingMorphism(
            q, ring, lambda d: (0,), lambda a: ring.element(factor * a.value, (0,))
        )

    def test_mixed_pullbacks_are_refused(self, ring, rank2):
        """Pullbacks along two morphisms with one label are different modules:
        a sum of them would have a right injection that is not linear."""
        q = ProductDimRing(Rationals(), DimMonoid.trivial(), label="Q")
        incl = self._scaled_inclusion(q, ring, 1)
        double = self._scaled_inclusion(q, ring, 2)
        a, b = pullback_module(incl, rank2), pullback_module(double, rank2)
        with pytest.raises(CarrierError):
            direct_sum_mod(a, b)
        with pytest.raises(CarrierError):
            tensor_mod(a, b)

    def test_pullbacks_along_one_morphism_sum_and_tensor(self, ring, rank2, rng):
        q = ProductDimRing(Rationals(), DimMonoid.trivial(), label="Q")
        incl = self._scaled_inclusion(q, ring, 1)
        a, b = pullback_module(incl, rank2), pullback_module(incl, rank2)
        total = direct_sum_mod(a, b)
        assert module_axiom_report(total.module).ok
        assert module_axiom_report(tensor_mod(a, b).module).ok
        r = q.element(F(3), ())
        x = b.basis_element("e")
        assert total.inject_right(b.act(r, x)) == total.module.act(r, total.inject_right(x))


    def test_a_map_from_a_pullback_twists_through_its_source(self, q_x_z2, rng):
        """Pulled back along sgn(v, d) = ((-1)^d v, d), A's identity carrier
        map is linear over sgn with the identity on coefficients."""
        s, sgn = q_x_z2, sign_morphism(q_x_z2)
        a = FreeDimModule(s, GSet(s.dims, ("o",)), [("e", (0, "o"))], "A")
        check = linear_map_check(pullback_module(sgn, a), a, {"e": a.basis_element("e")})
        assert check.ok, check.report.failures
        pulled = pullback_map(sgn, TwistedLinearMap.identity(a))
        for _ in range(30):
            r, x = drawn.element(s, rng), drawn.element(pulled.src, rng)
            assert check.value(x) == pulled(x)
            assert pulled(pulled.src.act(r, x)) == a.act(sgn(r), pulled(x))

    def test_a_morphism_into_another_ring_is_refused(self, rank2, canonical_ring):
        """rank2's coefficients live in QxZ, which a morphism ending in
        Q[q, p] cannot reach."""
        q = ProductDimRing(Rationals(), DimMonoid.trivial(), label="Q")
        into_poly = RingMorphism(q, canonical_ring, lambda d: (0,),
                                 lambda a: canonical_ring.constant(a.value), "c")
        with pytest.raises(CarrierError, match=(
                r"^c\*M: along ends in Q\[q,p\], not in the coefficient ring QxZ$")):
            pullback_module(into_poly, rank2)


class TestQuotientModule:
    def test_quotient_by_everything_is_trivial(self, ring, rank2, rng):
        gens = [rank2.basis_element("e"), rank2.basis_element("f")]
        qm = quotient_module(rank2, gens, zero_ideal(ring))
        assert qm.module.basis == ()
        a = drawn.element(rank2, rng)
        assert qm.module.is_zero(qm.projection(a))

    def test_dropping_one_generator(self, ring, rank2, rng):
        gens = [rank2.basis_element("e")]
        qm = quotient_module(rank2, gens, zero_ideal(ring))
        assert [n for n, _ in qm.module.basis] == ["f"]
        assert qm.module.is_zero(qm.projection(rank2.basis_element("e")))
        assert not qm.module.is_zero(qm.projection(rank2.basis_element("f")))

    def test_graded_instance_projection_is_q_linear(self, rng):
        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        gs = GSet(ring.dims, orbits=("i",))
        mod = FreeDimModule(
            ring, gs, [("e", ((0,), "i")), ("f", ((1,), "i"))], "A"
        )
        ideal = ring.monomial_ideal(["q"])
        qgen = ideal.generators[0]
        gens = [
            mod.element(gs.act(qgen.dim, mod.basis_dim[n]), {n: qgen})
            for n in ("e", "f")
        ]
        qm = quotient_module(mod, gens, ideal)
        for _ in range(30):
            r = drawn.element(ring, rng)
            a = drawn.element(mod, rng)
            assert (
                qm.projection(mod.act(r, a))
                == qm.module.act(qm.ring_projection(r), qm.projection(a))
            )

    def test_quotient_of_a_pullback_is_linear_over_the_composed_projection(
        self, ring, canonical_ring, rng
    ):
        """Pulled back along QxZ -> Q[q,p], (v, d) |-> v, the acting ring
        reaches the quotient ring through the pullback's morphism."""
        poly = canonical_ring
        forget = RingMorphism(ring, poly, lambda d: (0,), lambda a: poly.constant(a.value))
        gs = GSet(poly.dims, orbits=("i",))
        mod = FreeDimModule(poly, gs, [("e", ((0,), "i")), ("f", ((1,), "i"))], "A")
        pulled = pullback_module(forget, mod)
        ideal = poly.monomial_ideal(["q"])
        qgen = ideal.generators[0]
        gens = [pulled.element(gs.act(qgen.dim, mod.basis_dim[n]), {n: qgen}) for n in ("e", "f")]
        qm = quotient_module(pulled, gens, ideal)
        for _ in range(30):
            r, a = drawn.element(ring, rng), drawn.element(pulled, rng)
            assert (
                qm.projection(pulled.act(r, a))
                == qm.module.act(qm.ring_projection(r), qm.projection(a))
            )

    def test_leibniz_style_expansion_lands_in_the_coset(self, rng):
        """(r+i)·(a+s) projects to the same coset as r·a."""
        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        gs = GSet(ring.dims, orbits=("i",))
        mod = FreeDimModule(ring, gs, [("e", ((0,), "i"))], "A")
        ideal = ring.monomial_ideal(["q"])
        qgen = ideal.generators[0]
        gens = [mod.element(gs.act(qgen.dim, mod.basis_dim["e"]), {"e": qgen})]
        qm = quotient_module(mod, gens, ideal)
        for _ in range(20):
            r = drawn.element(ring, rng)
            i = ring.mul(drawn.element(ring, rng, dim=tuple(x - 1 for x in r.dim)), qgen)
            a = drawn.element(mod, rng)
            s = mod.element(a.dim, {
                "e": ring.mul(
                    drawn.element(ring, rng, dim=tuple(x - 1 for x in dict(a.value)["e"].dim)),
                    qgen,
                )
            }) if a.value else mod.zero(a.dim)
            lhs = qm.projection(mod.act(ring.add(r, i), mod.add(a, s)))
            rhs = qm.projection(mod.act(r, a))
            assert lhs == rhs

    def test_containment_violation_witnessed(self, rng):
        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        gs = GSet(ring.dims, orbits=("i",))
        mod = FreeDimModule(
            ring, gs, [("e", ((0,), "i")), ("f", ((1,), "i"))], "A"
        )
        ideal = ring.monomial_ideal(["q"])
        qgen = ideal.generators[0]
        # submodule only covers e, so I·f is not inside S
        gens = [mod.element(gs.act(qgen.dim, mod.basis_dim["e"]), {"e": qgen})]
        with pytest.raises(ConstructionError) as exc:
            quotient_module(mod, gens, ideal)
        assert "'f'" in str(exc.value)


class TestSpan:
    def test_span_is_the_smallest_submodule_on_probes(self, ring, rank2, rng):
        """Random R-combinations of the generators are members; the other
        basis direction is not."""
        gens = [rank2.basis_element("e")]
        for _ in range(20):
            r = drawn.element(ring, rng)
            el = rank2.act(r, rank2.basis_element("e"))
            assert span_contains(rank2, gens, el)
        assert not span_contains(rank2, gens, rank2.basis_element("f"))

    def test_two_generators_span_sums(self, ring, rank2, rng):
        gens = [rank2.basis_element("e"), rank2.basis_element("f")]
        for _ in range(20):
            a = drawn.element(rank2, rng)
            assert span_contains(rank2, gens, a)

    def test_a_generator_in_another_orbit_spans_nothing_here(self, ring):
        """e and f sit at the same dimension in the orbits i and j: no
        multiple of e reaches f's orbit, so e alone does not span f."""
        m = FreeDimModule(ring, GSet(ring.dims, orbits=("i", "j")),
                          [("e", ((0,), "i")), ("f", ((0,), "j"))], "M")
        e, f = m.basis_element("e"), m.basis_element("f")
        assert not span_contains(m, [e], f)
        assert span_contains(m, [e, f], f)

    def test_a_repeated_generator_adds_no_direction(self, rank2):
        e, f = rank2.basis_element("e"), rank2.basis_element("f")
        assert span_contains(rank2, [e, e], e)
        assert not span_contains(rank2, [e, e], f)
        assert span_contains(rank2, [], rank2.zero(e.dim))


def test_a_fresh_import_loads_no_group_or_carrier_layer():
    """`modules` takes `DimElement` from core and decides span membership
    by `linalg.rref` ranks, not by a slice presentation."""
    code = "import sys, dimalg.modules; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "dimalg.modules" in loaded
    assert not {"dimalg.group", "dimalg.carriers"} & loaded


class TestNegativeControls:
    """Each probed law FAILs, with a witness, on a module or map built to
    break it."""

    @staticmethod
    def _failure(rep, law):
        (line,) = [r for r in rep.results if r.law == law]
        assert not line.passed and line.witness
        return line.witness

    @staticmethod
    def _rank_one(ring, along=None):
        gset = GSet(ring.dims, ("i",))
        return FreeDimModule(ring, gset, [("e", (ring.one.dim, "i"))], "M", along)

    @staticmethod
    def _product(m, out):
        """phi(x, y) = (x's coefficient)·(y's coefficient) on `out`'s basis vector."""
        def phi(x, y):
            d = m.gset.monoid.combine(x.dim[0], y.dim[0])
            if not (x.value and y.value):
                return out.zero((d, "i"))
            return out.element((d, "i"), {"e": m.coeff_ring.mul(x.value[0][1], y.value[0][1])})
        return phi

    def test_action_not_additive_in_the_module(self, ring, rng):
        m = self._rank_one(OffByOne(Rationals(), ring.dims, label="QxZ+1"))
        witness = self._failure(module_axiom_report(m), "r(a+b) = ra + rb")
        assert witness.startswith("r(a+b) != ra+rb at ")

    @pytest.mark.parametrize("fn, law, witness", [
        (lambda v: v * v, "additive within slices", "additivity fails at "),
        (lambda v: 2 * v, "multiplicative", "multiplicativity fails at "),
    ], ids=["non-additive", "non-multiplicative"])
    def test_pullback_along_a_map_that_is_no_morphism(self, ring, rank2, rng, fn, law, witness):
        bad = RingMorphism(ring, ring, lambda d: d, lambda a: ring.element(fn(a.value), a.dim))
        rep = module_axiom_report(pullback_module(bad, rank2))
        assert self._failure(rep, law).startswith(witness)

    def test_round_trip_over_a_ring_whose_unit_is_not_neutral(self, ring):
        """The bijection's round trips rest on the coefficient ring's unit law."""
        doubled = DoubledProduct(Rationals(), ring.dims, label="QxZ·2")
        m = self._rank_one(doubled)
        w = rig_distributivity_witness(m, m, m)
        assert [r.law for r in w.report.failures] == ["both round trips fix every basis vector"]
        assert w.report.failures[0].witness.startswith("round trip moved ")

    def test_forward_slices_over_a_sum_that_misplaces_its_second_summand(
            self, rank2, monkeypatch):
        """A direct sum that gives its second summand's basis vectors their
        dimensions in reverse order puts B's vectors of (A⊕B)⊗C and of
        A⊗C ⊕ B⊗C in different slices, so the forward map leaves one."""
        import dimalg.modules as modules

        true_sum = modules.direct_sum_mod

        def reversed_sum(a, b):
            basis = list(zip([n for n, _ in b.basis], [d for _, d in b.basis][::-1]))
            return true_sum(a, FreeDimModule(b.coeff_ring, b.gset, basis, b.label, b.along))

        monkeypatch.setattr(modules, "direct_sum_mod", reversed_sum)
        w = rig_distributivity_witness(rank2, rank2, rank2)
        assert [r.law for r in w.report.failures] == ["forward images stay in their slices"]
        assert w.report.failures[0].witness == \
            "((1, 'e'), 'e') leaves slice ((1,), ('i', 'i')) for ((2,), ('i', 'i'))"

    def test_bilinear_balance(self, rng):
        """Over the non-commutative Endo ring, (r·a)·b != a·(r·b)."""
        m = self._rank_one(EndoRing(ProductDimRing(Rationals(), DimMonoid.cyclic(2))))
        res = bilinear_factorization(m, m, m, self._product(m, m))
        assert res.value is None
        witness = self._failure(res.report, "phi is bilinear and balanced")
        assert witness.startswith("balance fails: phi(r·a, b) != phi(a, r·b) at ")

    def test_bilinear_scaling(self, q_x_z2, rng):
        """The target acts through sgn, so r·phi(a, b) = sgn(r)·a·b."""
        m = self._rank_one(q_x_z2)
        pulled = self._rank_one(q_x_z2, sign_morphism(q_x_z2))
        res = bilinear_factorization(m, m, pulled, self._product(m, m))
        witness = self._failure(res.report, "phi is bilinear and balanced")
        assert witness.startswith("phi(r·a, b) != r·phi(a, b) at ")

    def test_bilinear_left_additivity(self, ring, rng):
        m = self._rank_one(OffByOne(Rationals(), ring.dims, label="QxZ+1"))
        res = bilinear_factorization(m, m, m, self._product(m, m))
        witness = self._failure(res.report, "phi is bilinear and balanced")
        assert witness.startswith("left additivity fails at ")

    def test_bilinear_dimension_clash(self, ring, rng):
        """phi puts the product in a's slice, which a·b leaves unless b is
        dimensionless: the element refuses the placement."""
        m = self._rank_one(ring)

        def phi(x, y):
            return m.element(x.dim, {"e": ring.mul(x.value[0][1], y.value[0][1])})

        res = bilinear_factorization(m, m, m, phi)
        witness = self._failure(res.report, "phi is bilinear and balanced")
        assert witness.startswith("dimension clash: ")

    def test_bilinear_clash_on_basis_pairs(self, rank2, rng):
        """phi = addition adds e at (0,) to f at (1,): the factoring map's
        basis images clash before any probe is drawn."""
        res = bilinear_factorization(rank2, rank2, rank2, rank2.add)
        assert res.value is None
        witness = self._failure(res.report, "phi is bilinear and balanced")
        assert witness.startswith("dimension clash: M: undefined across dimensions")


def _doubling(r):
    """Doubles every slice's dimension and no value: not a morphism."""
    return RingMorphism(r, r, lambda d: tuple(2 * x for x in d), lambda a: a, "twice")


def _values(r, fn):
    """The same dimensions, every value v replaced by fn(v)."""
    return RingMorphism(r, r, lambda d: d, lambda a: r.element(fn(a.value), a.dim))


def _two_orbits(r):
    return FreeDimModule(r, GSet(r.dims, ("i", "j")), [("e", ((0,), "i")), ("f", ((0,), "j"))], "N")


def _ident(m):
    return {n: m.basis_element(n) for n, _ in m.basis}


# (report on QxZ and rank2, law, witness start): each input breaks its law
PROBED_MODULE_CONTROLS = [
    (lambda r, m: module_axiom_report(pullback_module(_doubling(r), m)),
     "dimension square commutes", "dim(twice("),
    (lambda r, m: linear_map_check(
        m, m, {**_ident(m), "e": DimElement((), ((0,), "x"))}).report,
     "images live in the codomain", "image of 'e' has no valid dimension"),
    (lambda r, m: linear_map_check(m, _two_orbits(r), _ident(_two_orbits(r))).report,
     "dimension map is twisted-equivariant", "orbit 'i' scattered across image orbits 'i' and 'j'"),
    (lambda r, m: linear_map_check(m, m, _ident(m), _values(r, lambda v: 2 * v)).report,
     "multiplicative", "multiplicativity fails at "),
    (lambda r, m: linear_map_check(m, m, _ident(m), _values(r, lambda v: v * v)).report,
     "additive within slices", "additivity fails at "),
]


@pytest.mark.parametrize("report, law, witness", PROBED_MODULE_CONTROLS, ids=[
    "action-dimension", "image-off-the-codomain", "scattered-orbit", "linearity", "additivity"])
def test_each_probed_module_law_fails_on_an_input_that_breaks_it(
        ring, rank2, report, law, witness):
    (line,) = [r for r in report(ring, rank2).results if r.law == law]
    assert not line.passed and line.witness.startswith(witness)


@pytest.mark.parametrize("call, error, message", [
    (lambda r, m, poly, pmod: gset_tensor(m.gset, GSet(DimMonoid.trivial(), ("i",))),
     CarrierError, "tensor of G-sets needs one acting monoid"),
    (lambda r, m, poly, pmod: FreeDimModule(r, m.gset, [("e", ((0,), "x"))]),
     CarrierError, r"basis dimension \(\(0,\), 'x'\) is not a G-set point"),
    (lambda r, m, poly, pmod: FreeDimModule(r, GSet(DimMonoid.cyclic(2), ("i",)), [], "C"),
     CarrierError, r"^C: G-set over DimMonoid\(cyclic, 2 elements\), not DimMonoid\(free_abelian, "),
    (lambda r, m, poly, pmod: FreeDimModule(r, m.gset, [("e", ((0,), "i")), ("e", ((1,), "i"))]),
     ConstructionError, "duplicate basis names"),
    (lambda r, m, poly, pmod: m.element(((0,), "x"), {}), CarrierError, "is not a module dimension"),
    (lambda r, m, poly, pmod: m.element(((0,), "i"), {"g": r.one}),
     CarrierError, "unknown basis vector 'g'"),
    (lambda r, m, poly, pmod: m.add(m.basis_element("e"), m.basis_element("f")),
     DimensionMismatch, "M: undefined across dimensions"),
    (lambda r, m, poly, pmod: TwistedLinearMap(m, m, RingMorphism.identity(r), {"e": m.basis_element("e")}),
     ConstructionError, r"""no image for basis vectors \["'f'"\]"""),
    (lambda r, m, poly, pmod: TwistedLinearMap.identity(m).dim_map(((0,), "j")),
     CarrierError, "cannot transport dimension"),
    (lambda r, m, poly, pmod: direct_sum_mod(m, FreeDimModule(r, GSet(r.dims, ("j",)), [])),
     DimensionMismatch, "direct_sum_mod: undefined across dimensions"),
    (lambda r, m, poly, pmod: quotient_module(
        m, [m.element(((1,), "i"), {"e": r.element(F(1), (1,)), "f": r.one})], zero_ideal(r)),
     ConstructionError, "multiples of single basis vectors"),
    (lambda r, m, poly, pmod: quotient_module(
        pmod, [pmod.element(((-1,), "i"), {"e": poly.generator("p")})], poly.monomial_ideal(["q"])),
     ConstructionError, "submodule multiplier p on 'e' falls outside the ideal"),
    (lambda r, m, poly, pmod: span_contains(pmod, [pmod.basis_element("e")], pmod.basis_element("e")),
     CarrierError, "span solving needs rational slice values"),
], ids=["tensor-of-two-monoids", "basis-off-the-gset", "gset-over-another-monoid",
        "duplicate-basis", "element-off-the-gset", "unknown-basis-vector", "sum-across-slices",
        "missing-image", "transport-to-no-orbit", "sum-of-two-gsets", "two-term-generator",
        "multiplier-outside-ideal", "span-over-polynomials"])
def test_module_refusals(ring, rank2, canonical_ring, call, error, message):
    """`rank2` over QxZ, and a rank-one module over Q[q, p]."""
    graded = FreeDimModule(canonical_ring, GSet(canonical_ring.dims, ("i",)),
                           [("e", ((0,), "i"))], "A")
    with pytest.raises(error, match=message):
        call(ring, rank2, canonical_ring, graded)
