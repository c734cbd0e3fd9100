import random
from collections import Counter
from fractions import Fraction as F

import pytest

from dimalg import (
    CarrierError,
    ConstructionError,
    Ideal,
    Line,
    PowerRing,
    dimensionless_ring,
    multiplicative_section,
    quotient_ring,
    ring_axiom_report,
    search_unit_section,
    slice_mul,
    unit_section_check,
    units_trivialization,
    whole_ideal,
    zero_ideal,
)


class TestProductRing:
    def test_multiplication_combines_dims(self, q_x_z):
        a = q_x_z.element(F(2), (1,))
        b = q_x_z.element(F(3), (2,))
        assert q_x_z.mul(a, b) == q_x_z.element(F(6), (3,))

    def test_reciprocal_of_an_integer_value_is_exact(self, q_x_z2):
        inv = q_x_z2.reciprocal(q_x_z2.element(2, 1))
        assert type(inv.value) is F and inv == q_x_z2.element(F(1, 2), 1)

    def test_zero_is_absorbent(self, q_x_z, rng):
        for _ in range(20):
            a = q_x_z.sample(rng)
            d = q_x_z.sample_dim(rng)
            prod = q_x_z.mul(q_x_z.zero(d), a)
            assert prod == q_x_z.zero(q_x_z.dims.combine(d, a.dim))

    def test_one_is_neutral(self, q_x_z, rng):
        a = q_x_z.sample(rng)
        assert q_x_z.mul(q_x_z.one, a) == a

    def test_reciprocal(self, q_x_z):
        a = q_x_z.element(F(4), (2,))
        r = q_x_z.reciprocal(a)
        assert r == q_x_z.element(F(1, 4), (-2,))
        assert q_x_z.mul(a, r) == q_x_z.one
        assert q_x_z.reciprocal(q_x_z.one) == q_x_z.one
        assert q_x_z.reciprocal(q_x_z.reciprocal(a)) == a

    def test_probe_elements_are_samples_then_one_then_zero(self, q_x_z):
        probes = q_x_z.probe_elements(random.Random(5), budget=4)
        rng = random.Random(5)
        samples = tuple(q_x_z.sample(rng) for _ in range(4))
        assert probes == samples + (q_x_z.one, q_x_z.zero(samples[0].dim))

    def test_axiom_suite_passes(self, q_x_z, q_x_z2, rng):
        assert ring_axiom_report(q_x_z, rng).ok
        assert ring_axiom_report(q_x_z2, rng).ok


class TestDimensionlessRing:
    def test_product_ring_view_is_the_scalar_field(self, q_x_z, rng):
        view = dimensionless_ring(q_x_z)
        sampled = {view.sample(rng) for _ in range(10)}
        assert all(isinstance(v, F) for v in sampled)
        assert view.mul(F(2), F(3)) == 6
        assert view.add(F(2), F(3)) == 5
        assert view.one() == 1 and view.zero() == 0
        assert view.reciprocal(F(4)) == F(1, 4)

    def test_morphism_restriction_is_a_ring_morphism(self, q_x_z, rng):
        """Restricting a dimensioned-ring morphism to the identity slice
        preserves + and ·."""
        u = multiplicative_section(q_x_z, {0: q_x_z.element(F(2), (1,))})
        triv = units_trivialization(q_x_z, unit_section_check(q_x_z, u).section)
        phi = triv.to_field
        ident = (0,)
        for _ in range(20):
            a = triv.product.sample(rng, dim=ident)
            b = triv.product.sample(rng, dim=ident)
            assert phi(triv.product.add(a, b)) == q_x_z.add(phi(a), phi(b))
            assert phi(triv.product.mul(a, b)) == q_x_z.mul(phi(a), phi(b))


class TestQuotientRing:
    def test_zero_ideal_gives_back_the_ring(self, q_x_z, rng):
        q = quotient_ring(q_x_z, zero_ideal(q_x_z), rng)
        for _ in range(10):
            a = q_x_z.sample(rng)
            assert q.project(a) == a

    def test_whole_ideal_collapses_slices(self, q_x_z, rng):
        q = quotient_ring(q_x_z, whole_ideal(q_x_z), rng)
        a = q_x_z.sample(rng)
        assert q.project(a) == q_x_z.zero(a.dim)

    def test_monomial_ideal_projection_is_multiplicative(self, canonical_ring, rng):
        ring = canonical_ring
        q = quotient_ring(ring, ring.monomial_ideal(["q"]), rng)
        for _ in range(30):
            a = ring.sample(rng)
            b = ring.sample(rng)
            assert ring.eq(q.project(ring.mul(a, b)), q.mul(q.project(a), q.project(b)))
        c = ring.sample(rng)
        d = ring.sample(rng, dim=c.dim)
        assert ring.eq(q.project(ring.add(c, d)), q.add(q.project(c), q.project(d)))

    def test_normal_form_drops_divisible_monomials(self, canonical_ring):
        ring = canonical_ring
        q = quotient_ring(ring, ring.monomial_ideal(["q"]))
        f = ring.poly({(1, 1): F(3), (0, 0): F(5)})  # 3qp + 5, both dimensionless
        assert q.project(f) == ring.poly({(0, 0): F(5)})

    def test_dimensionless_slice_of_quotient_matches_quotient_of_slices(
        self, canonical_ring, rng
    ):
        """Computed both ways on dimension-zero probes: project-then-view
        equals view-then-project through the identity slice."""
        ring = canonical_ring
        ideal = ring.monomial_ideal(["q"])
        q = quotient_ring(ring, ideal, rng)
        zero_dim = (0,)
        for _ in range(20):
            a = ring.sample(rng, dim=zero_dim)
            b = ring.sample(rng, dim=zero_dim)
            lhs = q.mul(q.project(a), q.project(b))
            rhs = q.project(ring.mul(a, b))
            assert ring.eq(lhs, rhs)
            assert q.project(a).dim == zero_dim

    def test_inconsistent_normal_form_rejected(self, q_x_z):
        # a "normal form" that rounds the scalar is not additive
        bad = Ideal(
            q_x_z,
            (),
            lambda a: q_x_z.element(F(int(a.value)), a.dim),
        )
        with pytest.raises(ConstructionError):
            quotient_ring(q_x_z, bad)


class TestUnitSections:
    def test_constant_one_is_always_a_unit(self, q_x_z2):
        check = unit_section_check(q_x_z2, lambda d: q_x_z2.element(F(1), d))
        assert check.ok

    def test_power_section_on_q_x_z(self, q_x_z):
        # oracle: u(n) = 2^n satisfies u(n+m) = u(n)·u(m) and never vanishes
        u = multiplicative_section(q_x_z, {0: q_x_z.element(F(2), (1,))})
        assert u((3,)) == q_x_z.element(F(8), (3,))
        assert u((-2,)) == q_x_z.element(F(1, 4), (-2,))
        check = unit_section_check(q_x_z, u)
        assert check.ok

    def test_section_hitting_zero_is_rejected(self, q_x_z2):
        def u(d):
            return q_x_z2.zero(d) if d == 1 else q_x_z2.element(F(1), d)

        check = unit_section_check(q_x_z2, u)
        assert not check.ok
        assert any("hits zero" in r.witness for r in check.report.failures)

    def test_non_multiplicative_section_is_rejected(self, q_x_z2):
        def u(d):
            return q_x_z2.element(F(2) if d == 1 else F(3), d)

        check = unit_section_check(q_x_z2, u)
        assert not check.ok

    def test_each_dimension_is_evaluated_once(self):
        ring = PowerRing((Line("length"), Line("time")))
        u = multiplicative_section(ring, {0: ring.element(F(2), (1, 0)),
                                          1: ring.element(F(3), (0, 1))})
        calls = Counter()

        def counting(d):
            calls[d] += 1
            return u(d)

        assert unit_section_check(ring, counting).ok
        # products of probe words of length <= 3: the radius-6 ball of Z^2
        assert len(calls) == 2 * 6 * 6 + 2 * 6 + 1 == 85
        assert set(calls.values()) == {1}

    def test_wrong_only_outside_the_probe_set_still_fails(self, q_x_z):
        # (5,) is no probe word (|n| <= 3), only a product of two
        def u(d):
            return q_x_z.element(F(7) if d == (5,) else F(1), d)

        check = unit_section_check(q_x_z, u)
        assert not check.ok
        assert check.report.failures[0].line() == (
            "FAIL  multiplicative on probed pairs: u((2,)∘(3,)) != u((2,))·u((3,))"
        )

    def test_zero_slice_structure_has_no_section(self):
        """Finite search proves non-existence and names the bad slice."""
        from dimalg.structure import load_structure
        from pathlib import Path

        ring = load_structure(Path(__file__).parent / "data" / "zero_slice_no_unit.json")
        result = search_unit_section(ring)
        assert not result.ok
        assert "'1'" in result.report.failures[0].witness

    def test_search_finds_the_declared_unit_candidate(self):
        import json
        from dimalg.structure import load_structure
        from pathlib import Path

        path = Path(__file__).parent.parent / "data" / "structures" / "product_ring_mod5_z2.json"
        ring = load_structure(path)
        result = search_unit_section(ring)
        assert result.ok
        found = {d: result.section(d).value for d in ring.dims.elements()}
        assert found == json.loads(path.read_text())["unit_candidate"]

    @pytest.mark.parametrize("ring", ["q_x_z", "q_x_z2"])
    def test_search_needs_a_ring_that_lists_its_elements(self, ring, request):
        # Q x Z/2 has finitely many dimensions but does not list its elements
        with pytest.raises(CarrierError, match="lists its elements"):
            search_unit_section(request.getfixturevalue(ring))


class TestSliceMulAndTrivialization:
    def test_slice_mul_example(self, q_x_z):
        m = slice_mul(q_x_z, q_x_z.element(F(2), (1,)), (3,))
        out = m.apply(q_x_z.element(F(5), (3,)))
        assert out == q_x_z.element(F(10), (4,))
        assert m.dst_dim == (4,)

    def test_slice_mul_inverse_roundtrip(self, q_x_z, rng):
        a = q_x_z.element(F(3), (-1,))
        m = slice_mul(q_x_z, a, (0,))
        assert m.apply(q_x_z.element(F(1), (0,))) == q_x_z.element(F(3), (-1,))
        inv = m.inverse()
        for _ in range(10):
            b = q_x_z.sample(rng, dim=(0,))
            assert inv.apply(m.apply(b)) == b

    def test_slice_mul_by_zero_rejected(self, q_x_z):
        from dimalg.errors import CarrierError

        with pytest.raises(CarrierError):
            slice_mul(q_x_z, q_x_z.zero((1,)), (0,))

    def test_trivialization_with_unit_one_is_identity(self, q_x_z, rng):
        u = unit_section_check(q_x_z, lambda d: q_x_z.element(F(1), d)).section
        triv = units_trivialization(q_x_z, u)
        for _ in range(20):
            a = q_x_z.sample(rng)
            assert triv.to_field(a) == a
            assert triv.from_field(a) == a

    def test_trivialization_with_powers_of_two(self, q_x_z):
        # oracle: u(2) = 4 so (3, 2) maps to (12, 2) and back
        u = unit_section_check(
            q_x_z, multiplicative_section(q_x_z, {0: q_x_z.element(F(2), (1,))})
        ).section
        triv = units_trivialization(q_x_z, u)
        x = triv.product.element(F(3), (2,))
        assert triv.to_field(x) == q_x_z.element(F(12), (2,))
        assert triv.from_field(q_x_z.element(F(12), (2,))) == x

    def test_trivialization_is_multiplicative(self, q_x_z, rng):
        u = unit_section_check(
            q_x_z, multiplicative_section(q_x_z, {0: q_x_z.element(F(3), (1,))})
        ).section
        triv = units_trivialization(q_x_z, u)
        for _ in range(50):
            a = triv.product.sample(rng)
            b = triv.product.sample(rng)
            assert triv.to_field(triv.product.mul(a, b)) == q_x_z.mul(
                triv.to_field(a), triv.to_field(b)
            )
            assert triv.from_field(triv.to_field(a)) == a


class TestAxiomReportNegativeControls:
    def test_broken_associativity_reported_with_witness(self):
        from dimalg.structure import load_structure
        from pathlib import Path

        ring = load_structure(Path(__file__).parent / "data" / "broken_associativity.json")
        rep = ring_axiom_report(ring)
        broken = {r.law for r in rep.failures}
        assert "multiplicative associativity" in broken
        witness = next(r for r in rep.failures if r.law == "multiplicative associativity")
        assert witness.witness

    def test_broken_absorbency_reported(self):
        from dimalg.structure import load_structure
        from pathlib import Path

        ring = load_structure(Path(__file__).parent / "data" / "broken_absorbency.json")
        rep = ring_axiom_report(ring)
        assert "zero family is absorbent" in {r.law for r in rep.failures}
