from collections import Counter
from fractions import Fraction as F

import pytest

from dimalg import (
    CarrierError,
    ConstructionError,
    DimensionMismatch,
    Ideal,
    Line,
    PowerRing,
    ProductDimRing,
    RingMorphism,
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
from dimalg.carriers import Rationals
from dimalg.monoid import DimMonoid
from dimalg.core import DimElement
from dimalg.report import CheckReport
from dimalg.ring import (COEFF_PROBES, PROBE_VALUES, SLOT_LAWS, QuotientDimRing, distributivity,
                         generating_set, probe_triples, slot_cases, slot_rows)

# the three product rings of acceptance criterion 2
CRITERION_2_PRODUCTS = (
    ProductDimRing(Rationals(), DimMonoid.free_abelian(1), label="QxZ"),
    ProductDimRing(Rationals(), DimMonoid.cyclic(2), label="QxZ/2"),
    PowerRing((Line("length"), Line("time"))),
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

    def test_is_a_field_exactly_when_the_dimensions_form_a_group(self):
        """Q is a field, so Q x D is a dimensioned field iff D is a group:
        then every nonzero value has a reciprocal in the inverse slice."""
        for monoid, field in ((DimMonoid.free_abelian(2), True), (DimMonoid.cyclic(3), True),
                              (DimMonoid.trivial(), True), (DimMonoid.map_monoid((0, 1)), False)):
            ring = ProductDimRing(Rationals(), monoid)
            assert ring.is_field is field, monoid
            if field:
                for d in ring.probe_dims():
                    a = ring.element(F(-3, 2), d)
                    assert ring.mul(a, ring.reciprocal(a)) == ring.one

    def test_zero_is_no_unit(self, q_x_z):
        """Zero has no reciprocal in any slice, so it is not a unit; a
        nonzero value is, at any dimension."""
        assert not q_x_z.is_unit(q_x_z.zero((3,)))
        assert not q_x_z.is_unit(q_x_z.zero((0,)))
        assert q_x_z.is_unit(q_x_z.element(F(4), (2,)))

    def test_probe_elements_are_the_probe_values_over_each_probe_dimension(self, q_x_z):
        """Non-integers of both signs and large magnitudes, at each of the
        D = 5 probe dimensions: 50 probes."""
        assert PROBE_VALUES == (-1, 0, 1, 2, F(-1, 2), F(-3, 2), F(5, 3), F(-7, 4),
                                F(10**6, 7), F(-10**6, 7))
        assert q_x_z.probe_dims() == ((-2,), (-1,), (0,), (1,), (2,))
        probes = q_x_z.probe_elements()
        assert probes == tuple(q_x_z.element(v, d) for d in q_x_z.probe_dims() for v in PROBE_VALUES)
        assert len(probes) == 50

    def test_probe_triples_take_b_from_a_s_slice_and_c_as_the_slices_take_turns(self):
        x0, x1, x2, y0 = (DimElement(v, d) for v, d in ((0, "x"), (1, "x"), (2, "x"), (0, "y")))
        assert probe_triples([x0, x1, y0, x2]) == [
            (x0, x1, x0), (x1, x2, y0), (y0, y0, x1), (x2, x0, x2)]

    def test_every_probe_fills_every_place_and_a_meets_c_at_every_pair_of_slices(self, q_x_z):
        probes = q_x_z.probe_elements()
        triples = probe_triples(probes)
        assert len(triples) == 50
        for place in range(3):
            assert Counter(t[place] for t in triples) == Counter(probes)
        assert all(b.dim == a.dim and b != a for a, b, _ in triples)
        dims = q_x_z.probe_dims()
        assert {(a.dim, c.dim) for a, _, c in triples} == {(d, e) for d in dims for e in dims}

    def test_axiom_suite_passes(self, q_x_z, q_x_z2, rng):
        assert ring_axiom_report(q_x_z, rng).ok
        assert ring_axiom_report(q_x_z2, rng).ok

    @pytest.mark.parametrize("ring", CRITERION_2_PRODUCTS, ids=lambda r: r.label)
    def test_each_law_runs_its_whole_decided_set(self, ring, rng):
        """Every law runs the slot rule's cases, uncapped: each tuple of the
        D probe dimensions it depends on, then every tuple of the k probe
        values in the identity slice, k^arity cases, or in each of the D
        slices for a law within one slice."""
        dims, k = ring.probe_dims(), len(COEFF_PROBES)
        d = len(dims)
        closed = ring.dims.elements() == dims
        rep = ring_axiom_report(ring, rng)
        assert rep.ok
        assert {r.law: r.cases for r in rep.results} == {
            "dimension monoid: associativity":
                d ** 2 * len(generating_set(dims, ring.dims.combine)) if closed else d ** 3,
            "dimension monoid: identity": d,
            "projection is a monoid morphism": d ** 2 + k ** 2,
            "distributivity where defined": d ** 2 + k ** 3,
            "zero family is absorbent": d ** 2 + d * k,
            "unitality": d + d * k,
            "multiplicative associativity": d ** 2 + k ** 3,
            "commutativity": d ** 2 + k ** 2,
            "slices are abelian groups": d + d * k ** 2,
            "addition is undefined across slices": d ** 2 - d,
        }


class TestSlotRows:
    """The slot rule is a premise-free row of `CheckReport.law`: a ring
    without `slots()`, or a law `SLOT_LAWS` does not name, gets no row and
    falls back to the cases the suite passes."""

    def test_a_ring_without_slots_gets_no_row(self, q_x_z):
        quotient = quotient_ring(q_x_z, zero_ideal(q_x_z))
        assert quotient.slots() is None
        assert all(slot_rows(quotient.slots(), law) == () for law in SLOT_LAWS)

    def test_a_law_the_slot_table_does_not_name_gets_no_row(self, q_x_z):
        assert "left distributivity" not in SLOT_LAWS
        assert slot_rows(q_x_z.slots(), "left distributivity") == ()
        ((premises, build),) = slot_rows(q_x_z.slots(), "unitality")
        assert premises == ()
        assert list(build()) == list(slot_cases(q_x_z.slots(), "unitality"))

    def test_a_law_without_a_row_runs_its_probe_triples(self, q_x_z):
        """On QxZ the slot row replaces the probe triples, and without one
        the law runs all 50 of them, not zero cases."""
        triples, slots = probe_triples(q_x_z.probe_elements()), q_x_z.slots()
        rep = CheckReport("fallback")
        for law in ("left distributivity", "distributivity where defined"):
            rep.law(law, triples, distributivity(q_x_z, "left"), *slot_rows(slots, law))
        assert rep.ok
        assert [r.cases for r in rep.results] == [
            50, len(list(slot_cases(slots, "distributivity where defined")))]


class TestDimensionlessRing:
    def test_the_trivialization_product_is_a_slot_ring(self, q_x_z):
        """F_1 x D is Q x D, so the slot rule decides its laws: no rng."""
        u = multiplicative_section(q_x_z, {0: q_x_z.element(F(2), (1,))})
        product = units_trivialization(q_x_z, u).product
        assert product.slots() is not None and product.slots() == q_x_z.slots()
        assert ring_axiom_report(product).ok

    def test_morphism_restriction_is_a_ring_morphism(self, q_x_z, rng):
        """Restricting a dimensioned-ring morphism to the identity slice
        preserves + and ·."""
        u = multiplicative_section(q_x_z, {0: q_x_z.element(F(2), (1,))})
        triv = units_trivialization(q_x_z, unit_section_check(q_x_z, u).value)
        phi = triv.to_field
        ident = (0,)
        for _ in range(20):
            a = triv.product.sample(rng, dim=ident)
            b = triv.product.sample(rng, dim=ident)
            assert phi(triv.product.add(a, b)) == q_x_z.add(phi(a), phi(b))
            assert phi(triv.product.mul(a, b)) == q_x_z.mul(phi(a), phi(b))


class TestQuotientRing:
    def test_zero_ideal_gives_back_the_ring(self, q_x_z, rng):
        q = quotient_ring(q_x_z, zero_ideal(q_x_z))
        for _ in range(10):
            a = q_x_z.sample(rng)
            assert q.project(a) == a

    def test_an_element_shows_as_its_class(self, q_x_z, rng):
        q = quotient_ring(q_x_z, zero_ideal(q_x_z))
        a = q_x_z.element(F(3, 2), (1,))
        assert q.show(a) == f"[{q_x_z.show(a)}]"

    def test_whole_ideal_collapses_slices(self, q_x_z, rng):
        q = quotient_ring(q_x_z, whole_ideal(q_x_z))
        a = q_x_z.sample(rng)
        assert q.project(a) == q_x_z.zero(a.dim)

    def test_monomial_ideal_projection_is_multiplicative(self, canonical_ring, rng):
        ring = canonical_ring
        q = quotient_ring(ring, ring.monomial_ideal(["q"]))
        for _ in range(30):
            a = ring.sample(rng)
            b = ring.sample(rng)
            assert ring.eq(q.project(ring.mul(a, b)), q.mul(q.project(a), q.project(b)))
        c = ring.sample(rng)
        d = ring.sample(rng, dim=c.dim)
        assert ring.eq(q.project(ring.add(c, d)), q.add(q.project(c), q.project(d)))

    def test_axiom_report_probes_a_quotient(self, canonical_ring):
        """No slot rule covers a quotient ring: its laws run on its probe
        set, the base's probes projected, each class once."""
        q = quotient_ring(canonical_ring, canonical_ring.monomial_ideal(["q"]))
        assert q.slots() is None
        probes = q.probe_elements()
        assert probes == tuple(dict.fromkeys(map(q.project, canonical_ring.probe_elements())))
        assert len(probes) == 12
        rep = ring_axiom_report(q)
        assert rep.ok
        assert {r.law: r.cases for r in rep.results}["multiplicative associativity"] == 12 ** 3

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
        q = quotient_ring(ring, ideal)
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
        assert not result.ok and result.value is None
        assert result.report.failures[0].line() == (
            "FAIL  nowhere zero: slice '1' contains only its zero; no section can exist"
        )

    def test_slice_without_additive_identity_has_no_section(self):
        import json
        from dimalg.structure import load_structure
        from pathlib import Path

        path = Path(__file__).parent.parent / "data" / "structures" / "product_ring_mod5_z2.json"
        doc = json.loads(path.read_text())
        doc["add"]["1"]["0@1"]["1@1"] = "2@1"
        result = search_unit_section(load_structure(doc))
        assert not result.ok and result.value is None
        assert result.report.failures[0].line() == (
            "FAIL  nowhere zero: slice '1' has no additive identity; no section can exist"
        )

    def test_search_finds_the_declared_unit_candidate(self):
        import json
        from dimalg.structure import load_structure
        from pathlib import Path

        path = Path(__file__).parent.parent / "data" / "structures" / "product_ring_mod5_z2.json"
        ring = load_structure(path)
        result = search_unit_section(ring)
        assert result.ok
        found = {d: result.value(d).value for d in ring.dims.elements()}
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
        u = unit_section_check(q_x_z, lambda d: q_x_z.element(F(1), d)).value
        triv = units_trivialization(q_x_z, u)
        for _ in range(20):
            a = q_x_z.sample(rng)
            assert triv.to_field(a) == a
            assert triv.from_field(a) == a

    def test_trivialization_with_powers_of_two(self, q_x_z):
        # oracle: u(2) = 4 so (3, 2) maps to (12, 2) and back
        u = unit_section_check(
            q_x_z, multiplicative_section(q_x_z, {0: q_x_z.element(F(2), (1,))})
        ).value
        triv = units_trivialization(q_x_z, u)
        x = triv.product.element(F(3), (2,))
        assert triv.to_field(x) == q_x_z.element(F(12), (2,))
        assert triv.from_field(q_x_z.element(F(12), (2,))) == x

    def test_trivialization_is_multiplicative(self, q_x_z, rng):
        u = unit_section_check(
            q_x_z, multiplicative_section(q_x_z, {0: q_x_z.element(F(3), (1,))})
        ).value
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

    def test_finite_monoid_defect_beyond_the_probe_cap(self):
        """Thirteen zeros z listed first (z·x = z for every x, x·z = z for
        every other x), then e, a and b, the magma of a·a = a,
        a·b = b·a = b, b·b = e under the identity e: (a·b)·b = e but
        a·(b·b) = a.  A triple that opens with a zero or e is associative,
        so the first failing triple of the 16³ comes after the first
        13·16² = 3 328, beyond the 3 000 triples an infinite monoid is
        probed on; this one is finite and closed, so Light's test decides
        it on a ring that lists no elements too."""
        zeros = [f"z{i}" for i in range(13)]
        magma = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "e"}

        def op(x, y):
            if x in zeros:
                return x
            if y in zeros or x == "e":
                return y
            return x if y == "e" else magma[(x, y)]

        dims = DimMonoid.finite(zeros + ["e", "a", "b"], "e", op, is_group=False)
        rep = ring_axiom_report(ProductDimRing(Rationals(), dims, label="QxM"))
        assert next(r for r in rep.results if r.law == "dimension monoid: associativity") \
            .line() == "FAIL  dimension monoid: associativity: monoid associativity fails at 'a','b','b'"

    def test_free_abelian_monoid_defect_past_the_first_3000_triples(self):
        """Z³ with one product moved, (2,0,0)·(0,0,4) = (2,0,5).  Of the 25³
        triples of the 25 probe words, only (2,0,0),(0,0,2),(0,0,2) meets
        it; it opens with the last word, so it comes after the first
        24·25² = 15 000.  No other law's cases form that product, so the
        monoid law alone fails, on every triple of probe words."""

        class OneSkewedProduct(DimMonoid):
            def combine(self, x, y):
                z = super().combine(x, y)
                return (2, 0, 5) if (x, y) == ((2, 0, 0), (0, 0, 4)) else z

        dims = OneSkewedProduct("free_abelian", rank=3, identity=(0, 0, 0))
        rep = ring_axiom_report(ProductDimRing(Rationals(), dims, label="QxZ3"))
        assert [r.line() for r in rep.failures] == [
            "FAIL  dimension monoid: associativity: "
            "monoid associativity fails at (2, 0, 0),(0, 0, 2),(0, 0, 2)"]


def _failure(rep, law):
    (line,) = [r for r in rep.results if r.law == law and not r.passed]
    return line.witness


def _refusal(build):
    with pytest.raises(ConstructionError) as exc:
        build()
    return str(exc.value)


# (the witness a broken input meets on QxZ's probes, its start)
PROBED_LAW_CONTROLS = [
    (lambda r: _failure(RingMorphism(r, r, lambda d: tuple(2 * x for x in d), lambda a: a,
                                     "bad").check(), "dimension square commutes"),
     "dim(bad("),
    # identity normal forms keep the nonzero generator 1 out of its own ideal
    (lambda r: _refusal(lambda: QuotientDimRing(r, Ideal(r, (r.one,), lambda a: a))),
     "ideal law fails: "),
]


@pytest.mark.parametrize("call, witness", PROBED_LAW_CONTROLS,
                         ids=["morphism-dimension-square", "ideal-absorbs-products"])
def test_each_probed_ring_law_fails_on_an_input_that_breaks_it(q_x_z, call, witness):
    assert call(q_x_z).startswith(witness)


MORPHISM_LAWS = ("dimension square commutes", "additive within slices", "multiplicative",
                 "preserves unit")


def test_the_identity_morphism_holds_its_laws_without_probing(q_x_z):
    rep = RingMorphism.identity(q_x_z).check()
    assert rep.lines() == ["== morphism id"] + [f"PASS  {law}" for law in MORPHISM_LAWS]
    assert [r.cases for r in rep.results] == [0] * len(MORPHISM_LAWS)  # each ran on no case


def test_a_map_equal_to_the_identity_is_still_probed(q_x_z):
    same = RingMorphism(q_x_z, q_x_z, lambda d: d, lambda a: a, "same")
    rep = same.check()
    assert rep.ok
    # each probed law on one triple per probe; the unit is a single check
    assert [r.cases for r in rep.results] == [len(q_x_z.probe_elements())] * 3 + [0]


_NOT_A_FIELD = ProductDimRing(Rationals(), DimMonoid.map_monoid((0, 1)), label="QxMap")


@pytest.mark.parametrize("call, error, message", [
    (lambda r: r.element(F(1), "x"), CarrierError, "unknown dimension 'x'"),
    (lambda r: _NOT_A_FIELD.reciprocal(_NOT_A_FIELD.one), CarrierError,
     "is not a dimensioned field"),
    (lambda r: multiplicative_section(_NOT_A_FIELD, {}), CarrierError, "free abelian monoid"),
    (lambda r: slice_mul(r, r.element(F(2), (1,)), (0,)).apply(r.element(F(1), (1,))),
     DimensionMismatch, "slice_mul"),
    (lambda r: units_trivialization(_NOT_A_FIELD, lambda d: _NOT_A_FIELD.one), CarrierError,
     "needs a dimensioned field"),
], ids=["element-of-unknown-dim", "reciprocal-off-a-field", "section-on-a-finite-monoid",
        "slice-mul-from-another-slice", "trivialization-of-a-non-field"])
def test_ring_refusals(q_x_z, call, error, message):
    with pytest.raises(error, match=message):
        call(q_x_z)
