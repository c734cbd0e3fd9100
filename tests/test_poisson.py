import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dimalg import (
    ConstructionError,
    DimensionMismatch,
    GradedPolyRing,
    InputFormatError,
    coisotrope_check,
    make_poisson,
    poisson_axiom_report,
    poisson_product_hetero,
    poisson_product_homo,
    linalg,
    poisson_reduce,
)
from dimalg.algebra import jacobiator
from dimalg.group import DimElement
from dimalg.poisson import DimPoisson, ReducedPoisson, _jacobi_and_casimir
from dimalg.report import CheckReport
from dimalg.structure import load_poisson

small_vec = st.tuples(*[st.integers(-5, 5)] * 3)


def canonical_4gen():
    """{q1, p1} = {q2, p2} = 1 on q1, p1, q2, p2 of dimensions 1, -1, 1, -1."""
    ring = GradedPolyRing(["q1", "p1", "q2", "p2"], [(1,), (-1,), (1,), (-1,)])
    return make_poisson(ring, {("q1", "p1"): ring.one, ("q2", "p2"): ring.one})


@given(small_vec, small_vec, small_vec, small_vec, small_vec)
def test_leibniz_term_dimensions_agree(b, p, g, h, k):
    """The three dimension projections appearing in the Leibniz identity
    coincide for any commutative dimension group."""
    add = lambda *vs: tuple(sum(xs) for xs in zip(*vs))
    assert add(b, g, p, h, k) == add(p, b, g, h, k) == add(p, h, b, g, k)


class TestCanonicalBracket:
    def test_hamilton_pairs(self, canonical_poisson):
        ring = canonical_poisson.ring
        # oracle by Leibniz expansion: {q^2, p} = 2q{q, p} = 2q
        assert canonical_poisson.bracket(
            ring.monomial((2, 0)), ring.generator("p")
        ) == ring.poly({(1, 0): F(2)})
        # and {q, p^2} = 2p
        assert canonical_poisson.bracket(
            ring.generator("q"), ring.monomial((0, 2))
        ) == ring.poly({(0, 1): F(2)})

    def test_self_bracket_vanishes(self, canonical_poisson, rng):
        ring = canonical_poisson.ring
        for _ in range(20):
            f = ring.sample(rng)
            assert ring.is_zero(canonical_poisson.bracket(f, f))

    def test_axiom_suite(self, canonical_poisson, rng):
        assert poisson_axiom_report(canonical_poisson, rng).ok

    def test_bracket_dimension_projection(self, canonical_poisson, rng):
        ring = canonical_poisson.ring
        for _ in range(20):
            f, g = ring.sample(rng), ring.sample(rng)
            assert canonical_poisson.bracket(f, g).dim == (f.dim[0] + g.dim[0],)

    def test_misplaced_structure_constant_raises_in_the_bracket(self):
        """Without validation, a bracket that reaches a constant off its
        slice b+g_i+g_j raises the mismatch; other pairs still bracket."""
        ring = GradedPolyRing(["q1", "p1", "q2", "p2"], [(1,), (-1,), (1,), (-1,)])
        p = make_poisson(
            ring,
            {("q1", "p1"): ring.one, ("q2", "p2"): ring.generator("q2")},  # dim 1, not 0
            bracket_dim=(0,),
            validate=False,
        )
        gen = ring.generator
        assert p.bracket(gen("q1"), gen("p1")) == ring.one
        for f, g in [(gen("q2"), gen("p2")), (ring.mul(gen("q1"), gen("q2")), gen("p2"))]:
            with pytest.raises(DimensionMismatch) as exc:
                p.bracket(f, g)
            expect = tuple(x + y for x, y in zip(f.dim, g.dim))
            assert (exc.value.left, exc.value.right) == (expect, (expect[0] + 1,))
            assert str(exc.value).startswith(f"{ring.label}: ")

    def test_a_misplaced_constant_whose_row_f_does_not_use_is_not_reached(self):
        """On the same table, {q1, p1*p2} = p2: the misplaced entries
        (q2, p2) and (p2, q2) pair no variable of q1 with one of p1*p2."""
        ring = GradedPolyRing(["q1", "p1", "q2", "p2"], [(1,), (-1,), (1,), (-1,)])
        p = make_poisson(
            ring,
            {("q1", "p1"): ring.one, ("q2", "p2"): ring.generator("q2")},
            bracket_dim=(0,),
            validate=False,
        )
        gen = ring.generator
        assert p.bracket(gen("q1"), ring.mul(gen("p1"), gen("p2"))) == gen("p2")

    def test_of_two_misplaced_constants_the_first_in_pair_order_is_named(self):
        """{q1, p2} = q1 sits one above its slice and {q2, p1} = q2^2 two
        above.  For f = q1*q2 and g = p1*p2 both meet f and g; the
        mismatch names (q1, p2), first in (i, j) order though its column
        p2 comes after p1.  Swapped, (p1, q2) comes before (p2, q1)."""
        ring = GradedPolyRing(["q1", "p1", "q2", "p2"], [(1,), (-1,), (1,), (-1,)])
        q1, p1, q2, p2 = map(ring.generator, ring.gen_names)
        p = make_poisson(
            ring,
            {("q1", "p1"): ring.one, ("q2", "p2"): ring.one,
             ("q1", "p2"): q1, ("q2", "p1"): ring.mul(q2, q2)},
            bracket_dim=(0,),
            validate=False,
        )
        f, g = ring.mul(q1, q2), ring.mul(p1, p2)
        for a, b, shift in ((f, g, 1), (g, f, 2)):
            with pytest.raises(DimensionMismatch) as exc:
                p.bracket(a, b)
            assert (exc.value.left, exc.value.right) == ((0,), (shift,))

    def test_broken_table_is_rejected_loudly(self, canonical_ring):
        with pytest.raises(ConstructionError):
            make_poisson(
                canonical_ring,
                {("q", "p"): canonical_ring.one, ("p", "q"): canonical_ring.one},
            )

    @pytest.mark.parametrize("bracket_dim", [(0,), None])
    @pytest.mark.parametrize("key", [("q", "z"), ("z", "q"), ("q",), "qp"])
    def test_a_key_that_is_not_a_pair_of_generator_names_is_refused(
            self, canonical_ring, key, bracket_dim):
        """A key is refused before anything reads it, whether the bracket
        dimension is given or read off the table's first nonzero entry."""
        one = canonical_ring.one
        with pytest.raises(InputFormatError, match="is not a pair of generator names"):
            make_poisson(canonical_ring, {key: one, ("q", "p"): one}, bracket_dim=bracket_dim)


class TestCoisotropes:
    def test_single_constraint_is_coisotropic(self, canonical_poisson):
        assert coisotrope_check(canonical_poisson, ["q"]).ok

    def test_full_pair_is_not(self, canonical_poisson):
        rep = coisotrope_check(canonical_poisson, ["q", "p"])
        assert not rep.ok
        assert any("outside the ideal" in r.witness for r in rep.failures)

    def test_zero_ideal_is_coisotropic(self, canonical_poisson):
        assert coisotrope_check(canonical_poisson, []).ok


class TestReduction:
    def test_two_generator_reduction_keeps_only_constants(self, canonical_poisson):
        """Oracle: a degree-bounded brute force over monomials, with the
        bracket computed from the closed form
        {q^a p^b, q^c p^d} = (ad - bc) q^(a+c-1) p^(b+d-1)."""
        cutoff = 6

        def oracle_in_idealizer(a, b):
            # {q^a p^b, q} = -b q^a p^(b-1); membership in (q) needs b = 0
            # or a >= 1
            coeff = -(b)
            return coeff == 0 or a >= 1

        survivors = sorted(
            (a, b)
            for a in range(cutoff + 1)
            for b in range(cutoff + 1 - a)
            if oracle_in_idealizer(a, b) and a == 0  # not already in (q)
        )
        red = poisson_reduce(canonical_poisson, ["q"], cutoff)
        got = sorted(m.value[0][0] for m in red.basis)
        assert got == [(a, b) for a, b in survivors]
        assert got == [(0, 0)]  # only the constants survive

    def test_zero_ideal_reduction_is_the_algebra_up_to_cutoff(self, canonical_poisson):
        cutoff = 4
        red = poisson_reduce(canonical_poisson, [], cutoff)
        expect = sorted(
            (a, b) for a in range(cutoff + 1) for b in range(cutoff + 1 - a)
        )
        assert sorted(m.value[0][0] for m in red.basis) == expect

    def test_four_generator_reduction_matches_oracle(self):
        """Reducing the 4-generator canonical algebra by (q1) leaves the
        canonical algebra on (q2, p2) up to the cutoff."""
        cutoff = 5
        ring = GradedPolyRing(
            ["q1", "p1", "q2", "p2"], [(1,), (-1,), (1,), (-1,)]
        )
        p4 = make_poisson(ring, {("q1", "p1"): ring.one, ("q2", "p2"): ring.one})
        red = poisson_reduce(p4, ["q1"], cutoff)

        # oracle: monomials with q1-exponent zero survive iff p1-exponent
        # is zero (direct bracket computation, done by hand above)
        expect = sorted(
            (0, 0, c, d)
            for c in range(cutoff + 1)
            for d in range(cutoff + 1 - c)
        )
        got = sorted(m.value[0][0] for m in red.basis)
        assert got == expect

        # the surviving bracket is the canonical one on (q2, p2)
        q2 = ring.generator("q2")
        p2 = ring.generator("p2")
        assert red.bracket(q2, p2) == ring.one
        assert red.axiom_report().ok

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [4, 6])
    def test_canonical_reduction_sizes_match_the_closed_form(self, n, cutoff):
        """On q1..qn, p1..pn with {qk, pk} = 1, reducing by (q1) leaves
        exactly the monomials free of q1 and p1 up to the cutoff:
        C(cutoff + 2n - 2, 2n - 2) of them."""
        names = [f"{x}{k}" for k in range(1, n + 1) for x in "qp"]
        dims = [(k,) if x == "q" else (-k,) for k in range(1, n + 1) for x in "qp"]
        ring = GradedPolyRing(names, dims)
        p = make_poisson(ring, {(f"q{k}", f"p{k}"): ring.one for k in range(1, n + 1)})
        red = poisson_reduce(p, ["q1"], cutoff)
        expect = sorted(
            (0, 0) + rest
            for rest in itertools.product(range(cutoff + 1), repeat=2 * n - 2)
            if sum(rest) <= cutoff
        )
        assert len(red.basis) == len(expect) == math.comb(cutoff + 2 * n - 2, 2 * n - 2)
        assert sorted(b.value for b in red.basis) == [((alpha, 1),) for alpha in expect]

    def test_bracket_descends(self, canonical_poisson, rng):
        """Changing a numerator representative by an ideal element does not
        change the reduced bracket: reduce-then-bracket agrees with
        bracket-then-reduce up to the cutoff."""
        cutoff = 6
        red = poisson_reduce(canonical_poisson, ["q"], cutoff)
        ring = canonical_poisson.ring
        for _ in range(20):
            n = ring.scale(F(rng.randint(-3, 3)), rng.choice(red.basis))
            m = ring.scale(F(rng.randint(-3, 3)), rng.choice(red.basis))
            # an ideal element in the same slice as n
            i = ring.mul(
                ring.sample(rng, dim=(n.dim[0] - 1,)), ring.generator("q")
            )
            lifted = ring.add(n, i)
            lhs = red.bracket(lifted, m)
            rhs = red.bracket(n, m)
            assert ring.eq(lhs, rhs)
            # the commutative product descends the same way
            assert ring.eq(red.product(lifted, m), red.product(n, m))

    @pytest.mark.parametrize("seed", range(5))
    def test_report_probes_representatives_beyond_normal_forms(self, seed):
        """Operations that skip the normal form agree with the true ones
        on the basis, whose vectors are normal forms already, but not on
        the ideal: the reduced report checks that both operations vanish
        on 1 and each generator times each ideal generator.  The `rng` it
        is passed is unused, so every seed gives the same verdict."""
        p4 = canonical_4gen()

        class Unreduced(ReducedPoisson):
            def bracket(self, f, g):
                return self.ring.truncate(self.parent.bracket(f, g), self.cutoff)

            def product(self, f, g):
                return self.ring.truncate(self.parent.product(f, g), self.cutoff)

        assert poisson_reduce(p4, ["q1"], 6).axiom_report(random.Random(seed)).ok
        assert not Unreduced(p4, ["q1"], 6).axiom_report(random.Random(seed)).ok

    @pytest.mark.parametrize("skipped", ["product", "bracket"])
    def test_report_fails_either_operation_without_its_normal_form(self, skipped):
        p4 = canonical_4gen()

        class Unreduced(ReducedPoisson):
            pass

        setattr(Unreduced, skipped, lambda self, f, g: self.ring.truncate(
            getattr(self.parent, skipped)(f, g), self.cutoff))
        rep = Unreduced(p4, ["q1"], 6).axiom_report()
        assert [r.law for r in rep.failures] == ["product and bracket vanish on I at low degree"]
        assert rep.failures[0].witness.startswith(f"{skipped} of ")

    def test_report_fails_a_basis_vector_outside_the_normaliser(self):
        """p1 brackets with q1 to -1, outside (q1): a basis that gains it
        is not a basis of N(I)/I."""
        p4 = canonical_4gen()

        class WithP1(ReducedPoisson):
            def _compute_basis(self):
                return super()._compute_basis() + (self.ring.generator("p1"),)

        rep = WithP1(p4, ["q1"], 6).axiom_report()
        first = rep.results[0]
        assert first.law.startswith("basis lies in N(I)") and not first.passed
        assert first.witness == "{p1,q1} = -1 is outside the ideal"

    @pytest.mark.parametrize("cutoff", [1, 4, 10])
    def test_report_decides_three_laws(self, cutoff):
        p4 = canonical_4gen()
        rep = poisson_reduce(p4, ["q1"], cutoff).axiom_report()
        assert rep.ok and len(rep.results) == 3

    def test_mutants_fail_and_case_counts_hold_across_cutoffs(self):
        """The three reduced-operation mutants (both operations without
        the normal form, one of them without it, and the bracket times
        q1) FAIL at cutoffs 2, 6 and 19; the guard laws' cases do not grow
        with the cutoff.  By (q1) the basis vectors of degree <= 1 are
        L = {1, q2, p2}: the normal-form law runs on the |L|(|L|+1)/2
        unordered pairs of L, and the vanishing law on the k(n+1)|L|
        pairs (m*y, g) for k = 1 ideal generator and n = 4 generators."""
        normal_forms = "product and bracket of low-degree basis pairs are normal forms"
        vanishes = "product and bracket vanish on I at low degree"
        _, op, mutant, _, law, witness = POISSON_MUTANTS[-1]
        true_op = getattr(ReducedPoisson, op)

        def unreduced(*ops):
            return type("Unreduced", (ReducedPoisson,), {name: lambda self, f, g, name=name:
                        self.ring.truncate(getattr(self.parent, name)(f, g), self.cutoff)
                        for name in ops})

        mutants = [(unreduced("product", "bracket"), vanishes, "product of "),
                   (unreduced("product"), vanishes, "product of "),
                   (unreduced("bracket"), vanishes, "bracket of "),
                   (type("Mutant", (ReducedPoisson,), {op: lambda self, f, g: mutant(
                       self.ring, true_op(self, f, g), f, g)}), law, witness)]
        p4 = canonical_4gen()
        for cutoff in (2, 6, 19):
            for cls, failing, start in mutants:
                failures = cls(p4, ["q1"], cutoff).axiom_report().failures
                assert [r.law for r in failures] == [failing], (cls, cutoff)
                assert failures[0].witness.startswith(start)
        seen = set()
        for cutoff in (6, 10, 19):
            rep = poisson_reduce(p4, ["q1"], cutoff).axiom_report()
            assert rep.ok
            cases = {r.law: r.cases for r in rep.results}
            seen.add((cases[normal_forms], cases[vanishes]))
        assert seen == {(3 * 4 // 2, 1 * 5 * 3)}

    def test_a_reduction_reaches_rref_through_nullspace(self, monkeypatch):
        """Every block of a reduction that needs an elimination (one with
        a condition and more than one column) is solved by `nullspace` as
        the poisson module names it, and `nullspace` eliminates by `rref`
        as the linalg module names it, so wrapping those two names, as a
        per-layer tracer does, counts every solve and every elimination."""
        import dimalg.linalg as linalg
        import dimalg.poisson as poisson

        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(linalg, "rref", spy("rref", linalg.rref))
        monkeypatch.setattr(poisson, "nullspace", spy("nullspace", linalg.nullspace))
        poisson_reduce(canonical_4gen(), ["q1"], 4)
        assert calls and calls == ["nullspace", "rref"] * (len(calls) // 2)

    def test_rejects_non_coisotrope(self, canonical_poisson):
        """{q, p} = 1 leaves the ideal (q, p), and {q1, p1} = 1 leaves
        (q1, p1): the refusal names the bracket."""
        with pytest.raises(ConstructionError):
            poisson_reduce(canonical_poisson, ["q", "p"], 4)
        with pytest.raises(ConstructionError) as err:
            poisson_reduce(canonical_4gen(), ["q1", "p1"], 4)
        assert str(err.value) == "not a coisotrope: {q1,p1} = 1 is outside the ideal"

    def test_rejects_bad_cutoff(self, canonical_poisson):
        from dimalg.errors import CarrierError

        with pytest.raises(CarrierError):
            poisson_reduce(canonical_poisson, ["q"], 0)

    @pytest.mark.parametrize("ideal", [["q"], ["p"]])
    def test_a_parent_whose_table_is_not_antisymmetric_is_refused(self, ideal):
        """{q,p} = {p,q} = 1 closes on (q) and on (p), so only the parent's
        law 2 stands between this table and a reduction."""
        p, _ = load_poisson(Path(__file__).parent / "data" / "poisson_broken_antisymmetry.json",
                            validate=False)
        with pytest.raises(ConstructionError) as exc:
            poisson_reduce(p, ideal, 6)
        assert str(exc.value) == (
            "parent is not Poisson: FAIL  table antisymmetry: table not antisymmetric at (q,p)")

    def test_a_parent_with_a_nonzero_diagonal_entry_is_refused(self):
        """{q,q} = -{q,q} leaves no diagonal entry but 0."""
        p, _ = load_poisson({"generators": _gens("q", 1) + _gens("p", -1),
                             "bracket": {"q,p": "1", "q,q": "1"}}, validate=False)
        with pytest.raises(ConstructionError) as exc:
            poisson_reduce(p, ["q"], 6)
        assert str(exc.value) == (
            "parent is not Poisson: FAIL  table antisymmetry: table not antisymmetric at (q,q)")

    @pytest.mark.parametrize("ideal", [["x"], ["y"], ["z"]])
    def test_a_parent_that_fails_jacobi_is_refused(self, ideal):
        """{x,y} = yz, {y,z} = x, {x,z} = xy is antisymmetric, and each
        generator spans a coisotrope, but the Jacobiator of (x,y,z) is not
        0: unless the reduction decides Jacobi, it builds 7, 7 and 1 basis
        vectors at cutoff 6 and its report PASSes."""
        p, _ = load_poisson({"generators": _gens("xyz"),
                             "bracket": {"x,y": "y*z", "y,z": "x", "x,z": "x*y"}}, validate=False)
        with pytest.raises(ConstructionError) as exc:
            poisson_reduce(p, ideal, 6)
        assert str(exc.value) == ("parent is not Poisson: FAIL  Jacobi on generator triples: "
                                  "Jacobi fails on generators (x,y,z)")

    def test_a_parent_whose_scale_is_not_a_casimir_is_refused(self):
        """so(3)* scaled by x fails Leibniz, as {y, x} = -z; unless the
        reduction decides the scale, its reduction by (x) at cutoff 4
        PASSes."""
        p, _ = load_poisson({"generators": _gens("xyz"), "scale": "x",
                             "bracket": {"x,y": "z", "y,z": "x", "z,x": "y"}}, validate=False)
        with pytest.raises(ConstructionError) as exc:
            poisson_reduce(p, ["x"], 4)
        assert str(exc.value) == (
            "parent is not Poisson: FAIL  Leibniz: the scale brackets to zero with every "
            "generator: {y,x} = -z, so Leibniz fails for the scaled product")


class TestHeterogeneousProduct:
    def test_two_canonical_factors_give_the_four_generator_bracket(self, rng):
        a_ring = GradedPolyRing(["q1", "p1"], [(1,), (-1,)])
        b_ring = GradedPolyRing(["q2", "p2"], [(1,), (-1,)])
        pa = make_poisson(a_ring, {("q1", "p1"): a_ring.one})
        pb = make_poisson(b_ring, {("q2", "p2"): b_ring.one})
        prod = poisson_product_hetero(pa, pb)
        ring = prod.ring
        expect = {
            ("q1", "p1"): ring.one,
            ("q2", "p2"): ring.one,
        }
        for x, y in itertools.combinations(ring.gen_names, 2):
            got = prod.bracket(ring.generator(x), ring.generator(y))
            want = expect.get((x, y), ring.zero(got.dim))
            assert ring.eq(got, want), (x, y)

    def test_trivial_factor_leaves_the_other_bracket(self, rng):
        a_ring = GradedPolyRing(["q1", "p1"], [(1,), (-1,)])
        b_ring = GradedPolyRing(["x"], [(1,)])
        pa = make_poisson(a_ring, {("q1", "p1"): a_ring.one})
        pb = make_poisson(b_ring, {})  # zero bracket
        prod = poisson_product_hetero(pa, pb)
        ring = prod.ring
        assert ring.eq(
            prod.bracket(ring.generator("q1"), ring.generator("p1")), ring.one
        )
        assert ring.is_zero(prod.bracket(ring.generator("q1"), ring.generator("x")))
        assert ring.is_zero(prod.bracket(ring.generator("x"), ring.generator("x")))

    def test_self_bracket_of_decomposables_vanishes(self, rng):
        a_ring = GradedPolyRing(["q1", "p1"], [(1,), (-1,)])
        b_ring = GradedPolyRing(["q2", "p2"], [(1,), (-1,)])
        pa = make_poisson(a_ring, {("q1", "p1"): a_ring.one})
        pb = make_poisson(b_ring, {("q2", "p2"): b_ring.one})
        prod = poisson_product_hetero(pa, pb)
        ring = prod.ring
        for _ in range(15):
            f = ring.sample(rng)
            assert ring.is_zero(prod.bracket(f, f))

    def test_displayed_formula_on_decomposables(self, rng):
        """{a(x)b, a'(x)b'} = {a,a'}(x)bb' + aa'(x){b,b'} with all elements
        embedded into the combined ring."""
        a_ring = GradedPolyRing(["q1", "p1"], [(1,), (-1,)])
        b_ring = GradedPolyRing(["q2", "p2"], [(1,), (-1,)])
        pa = make_poisson(a_ring, {("q1", "p1"): a_ring.one})
        pb = make_poisson(b_ring, {("q2", "p2"): b_ring.one})
        prod = poisson_product_hetero(pa, pb)
        ring = prod.ring
        from dimalg.poisson import _embed

        pad_a = lambda d: d + (0,)
        pad_b = lambda d: (0,) + d
        ea = lambda el: _embed(ring, 0, pad_a, el)
        eb = lambda el: _embed(ring, 2, pad_b, el)
        for _ in range(15):
            a1, a2 = a_ring.sample(rng), a_ring.sample(rng)
            b1, b2 = b_ring.sample(rng), b_ring.sample(rng)
            lhs = prod.bracket(
                ring.mul(ea(a1), eb(b1)), ring.mul(ea(a2), eb(b2))
            )
            rhs = ring.add(
                ring.mul(ea(pa.bracket(a1, a2)), eb(b_ring.mul(b1, b2))),
                ring.mul(ea(a_ring.mul(a1, a2)), eb(pb.bracket(b1, b2))),
            )
            assert ring.eq(lhs, rhs)

    def test_hypothesis_product_equals_bracket_dim(self, rng):
        a_ring = GradedPolyRing(["q1", "p1", "z"], [(1,), (-1,), (1,)])
        pa = make_poisson(
            a_ring,
            {("q1", "p1"): a_ring.monomial((0, 0, 2))},
            scale=a_ring.generator("z"),
        )  # product dim 1 != bracket dim 2
        b_ring = GradedPolyRing(["x"], [(1,)])
        pb = make_poisson(b_ring, {})
        with pytest.raises(ConstructionError):
            poisson_product_hetero(pa, pb)

    def test_hypothesis_checked_on_the_right_factor_too(self):
        a_ring = GradedPolyRing(["x"], [(1,)])
        pa = make_poisson(a_ring, {})
        b_ring = GradedPolyRing(["q1", "p1", "z"], [(1,), (-1,), (1,)])
        pb = make_poisson(
            b_ring,
            {("q1", "p1"): b_ring.monomial((0, 0, 2))},
            scale=b_ring.generator("z"),
        )
        with pytest.raises(ConstructionError) as exc:
            poisson_product_hetero(pa, pb)
        assert str(exc.value) == "right factor has product dim (1,) != bracket dim (2,)"

    @pytest.mark.parametrize("product", [poisson_product_hetero, poisson_product_homo])
    def test_rejects_factors_sharing_a_generator_name(self, product):
        from dimalg.errors import CarrierError

        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        pa = make_poisson(ring, {("q", "p"): ring.one})
        with pytest.raises(CarrierError) as exc:
            product(pa, pa)
        assert str(exc.value) == "factor algebras must use distinct generator names"


class TestHomogeneousProduct:
    @staticmethod
    def _factor_1_2():
        ring = GradedPolyRing(["a1", "a2", "z"], [(1,), (-1,), (1,)])
        return make_poisson(
            ring,
            {("a1", "a2"): ring.monomial((0, 0, 2))},
            scale=ring.generator("z"),
        )

    @staticmethod
    def _factor_3_4():
        ring = GradedPolyRing(["b1", "b2", "w"], [(2,), (-2,), (1,)])
        return make_poisson(
            ring,
            {("b1", "b2"): ring.monomial((0, 0, 4))},
            scale=ring.monomial((0, 0, 3)),
        )

    def test_accepts_compatible_dimensions(self, rng):
        # (p, b, q, c) = (1, 2, 3, 4): b+q = 5 = p+c
        prod = poisson_product_homo(self._factor_1_2(), self._factor_3_4())
        assert prod.product_dim == (4,)
        assert prod.bracket_dim == (5,)
        assert poisson_axiom_report(prod, rng).ok

    def test_rejects_incompatible_dimensions(self, rng):
        # (p, b, q, c) = (0, 1, 0, 0): 1 != 0
        ring = GradedPolyRing(["x", "y", "u"], [(1,), (-1,), (1,)])
        p1 = make_poisson(ring, {("x", "y"): ring.generator("u")})  # b = 1, p = 0
        other = GradedPolyRing(["s", "t"], [(1,), (-1,)])
        p0 = make_poisson(other, {("s", "t"): other.one})  # q = 0, c = 0
        with pytest.raises(ConstructionError) as exc:
            poisson_product_homo(p1, p0)
        assert "(1,)" in str(exc.value) and "(0,)" in str(exc.value)

    def test_rejects_factors_over_different_dimension_groups(self):
        a_ring = GradedPolyRing(["q1", "p1"], [(1,), (-1,)])
        b_ring = GradedPolyRing(["q2", "p2"], [(1, 0), (-1, 0)])
        pa = make_poisson(a_ring, {("q1", "p1"): a_ring.one})
        pb = make_poisson(b_ring, {("q2", "p2"): b_ring.one})
        with pytest.raises(ConstructionError) as exc:
            poisson_product_homo(pa, pb)
        assert str(exc.value) == "homogeneous product needs one dimension group"

    def test_equal_dimensions_reduce_to_the_heterogeneous_shape(self, rng):
        """With p = b and q = c the compatibility is automatic and the
        combined table matches the factor-wise formula."""
        a_ring = GradedPolyRing(["q1", "p1"], [(1,), (-1,)])
        b_ring = GradedPolyRing(["q2", "p2"], [(1,), (-1,)])
        pa = make_poisson(a_ring, {("q1", "p1"): a_ring.one})
        pb = make_poisson(b_ring, {("q2", "p2"): b_ring.one})
        prod = poisson_product_homo(pa, pb)
        ring = prod.ring
        assert prod.product_dim == (0,)
        assert prod.bracket_dim == (0,)
        assert ring.eq(
            prod.bracket(ring.generator("q1"), ring.generator("p1")), ring.one
        )


# ---------------------------------------------------------------------------
# A product reduces factor by factor
# ---------------------------------------------------------------------------


def _doc(gens, bracket):
    return {"generators": [{"name": n, "dim": [d]} for n, d in gens], "bracket": bracket}


# scale 1 and bracket and product dimension 0, so both products apply
FACTORS = {
    "A": _doc([("a1", 1), ("b1", -1), ("a2", 1), ("b2", -1)], {"a1,b1": "1", "a2,b2": "1"}),
    "B": _doc([("c1", 1), ("d1", -1), ("c2", 1), ("d2", -1)], {"c1,d1": "1", "c2,d2": "1"}),
    "QP": _doc([("Q", 1), ("P", -1)], {"Q,P": "Q*P"}),
    "so(3)": _doc([("u", 0), ("v", 0), ("w", 0)], {"u,v": "w", "v,w": "u", "w,u": "v"}),
}


def _reduced_counts(p, ideal, cutoff):
    """The reduced basis's size in each degree 0..cutoff."""
    degrees = Counter(p.ring.degree(b) for b in poisson_reduce(p, ideal, cutoff).basis)
    return [degrees[n] for n in range(cutoff + 1)]


# both products of four pairs of FACTORS, each by a monomial coisotrope per factor
FACTOR_PAIRS = pytest.mark.parametrize("a, ideal_a, b, ideal_b", [
    ("A", ["a1"], "B", ["d2"]),
    ("A", ["a1", "b2"], "QP", ["Q"]),
    ("QP", ["P"], "so(3)", ["u"]),
    ("so(3)", ["u"], "A", ["a1"]),
], ids=["A/(a1) x B/(d2)", "A/(a1,b2) x QP/(Q)", "QP/(P) x so(3)/(u)", "so(3)/(u) x A/(a1)"])
PRODUCTS = pytest.mark.parametrize("product", [poisson_product_hetero, poisson_product_homo])


@PRODUCTS
@FACTOR_PAIRS
def test_a_product_reduces_factor_by_factor(product, a, ideal_a, b, ideal_b):
    """With scale 1 on both factors and I = I_A(x)B + A(x)I_B,
    N(I)/I = N(I_A)/I_A (x) N(I_B)/I_B as graded spaces (Śniatycki &
    Weinstein, 1983, through the product of the source paper): the
    product's reduced counts per degree are the convolution of the
    factors' counts."""
    pa, pb = load_poisson(FACTORS[a])[0], load_poisson(FACTORS[b])[0]
    for cutoff in (4, 6):
        ca, cb = _reduced_counts(pa, ideal_a, cutoff), _reduced_counts(pb, ideal_b, cutoff)
        convolved = [sum(ca[i] * cb[n - i] for i in range(n + 1)) for n in range(cutoff + 1)]
        assert _reduced_counts(product(pa, pb), ideal_a + ideal_b, cutoff) == convolved
    if (a, b) == ("A", "B"):  # polynomials in four variables, by hand
        assert convolved == [1, 4, 10, 20, 35, 56, 84]


@PRODUCTS
@FACTOR_PAIRS
def test_the_factors_reduced_products_span_each_block_of_the_product(
        product, a, ideal_a, b, ideal_b):
    """A rank oracle for the reduction at cutoff 4: in each (degree,
    dimension) block the product's reduced basis, the embedded products
    b_A·b_B of the factors' reduced bases of total degree at most 4, and
    their union have one rank, the block's basis size.  So the products
    span the block and the basis lost no vector.  Each b_A·b_B is in
    N(I) and in normal form, since a monomial x^α·y^β lies in
    I_A(x)B + A(x)I_B exactly when x^α lies in I_A or y^β in I_B."""
    cutoff = 4
    pa, pb = load_poisson(FACTORS[a])[0], load_poisson(FACTORS[b])[0]
    prod = product(pa, pb)
    ring = prod.ring
    basis = poisson_reduce(prod, ideal_a + ideal_b, cutoff).basis
    embedded = [ring.poly({al + be: c * d for al, c in x.value for be, d in y.value})
                for x in poisson_reduce(pa, ideal_a, cutoff).basis
                for y in poisson_reduce(pb, ideal_b, cutoff).basis
                if pa.ring.degree(x) + pb.ring.degree(y) <= cutoff]

    def blocks(elements):
        out = {}
        for x in elements:
            out.setdefault((ring.degree(x), x.dim), []).append(dict(x.value))
        return out

    def rank(rows):
        return len(linalg.rref(rows)[1])

    ours, theirs = blocks(basis), blocks(embedded)
    assert ours.keys() == theirs.keys()
    for block, rows in ours.items():
        assert rank(rows) == rank(theirs[block]) == rank(rows + theirs[block]) == len(rows), block


@st.composite
def _drawn_factors(draw, prefix):
    """A factor on 2-3 generators over Z, Poisson by construction, with
    scale 1 and bracket dimension 0, and the exponents of a monomial
    coisotrope of it.  Either the table is log-canonical,
    {x_i, x_j} = c_ij·x_i·x_j, under which every monomial ideal is a
    Poisson ideal, and the ideal has one or two monomial generators; or
    the ideal is principal, a coisotrope because {m, m} = 0, and the
    table is constant, c_ij wherever g_i + g_j = 0, or c times that of
    so(3)* on dimensionless generators, or c times that of the
    Heisenberg algebra, {x_1, x_2} = c·x_3 at g_3 = g_1 + g_2."""
    family = draw(st.sampled_from(["log-canonical", "constant", "so(3)*", "Heisenberg"]))
    n = draw(st.integers(2, 3)) if family in ("log-canonical", "constant") else 3
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    dims = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    if family == "so(3)*":
        dims = [0] * n
    elif family == "Heisenberg":
        dims[2] = dims[0] + dims[1]
    ring = GradedPolyRing(names, [(d,) for d in dims])
    log_canonical = family == "log-canonical"
    table = {}
    if family in ("so(3)*", "Heisenberg"):
        c = draw(st.sampled_from([F(1), F(-2), F(3, 2)]))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))[:3 if family == "so(3)*" else 1]:
            table[(names[i], names[j])] = ring.monomial(tuple(int(m == k) for m in range(n)), c)
    else:
        for i, j in itertools.combinations(range(n), 2):
            c = draw(st.sampled_from([F(0), F(1), F(-2), F(3, 2)]))
            if c and (log_canonical or dims[i] + dims[j] == 0):
                alpha = tuple(int(log_canonical and k in (i, j)) for k in range(n))
                table[(names[i], names[j])] = ring.monomial(alpha, c)
    exponents = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideal = draw(st.lists(exponents, min_size=1, max_size=2 if log_canonical else 1))
    return make_poisson(ring, table, bracket_dim=(0,)), ideal


@settings(max_examples=30, deadline=None)
@given(_drawn_factors("a"), _drawn_factors("b"))
def test_a_drawn_product_reduces_factor_by_factor(a, b):
    """The law of `test_a_product_reduces_factor_by_factor` on drawn
    factors and monomial coisotropes, at cutoff 4: both products'
    reduced counts per degree are the convolution of the factors'
    counts.  Blocks with no condition, one-column blocks and blocks that
    need an elimination all occur among the draws."""
    (pa, exps_a), (pb, exps_b) = a, b
    cutoff, na, nb = 4, pa.ring.nvars, pb.ring.nvars
    ca = _reduced_counts(pa, [pa.ring.monomial(e) for e in exps_a], cutoff)
    cb = _reduced_counts(pb, [pb.ring.monomial(e) for e in exps_b], cutoff)
    convolved = [sum(ca[i] * cb[n - i] for i in range(n + 1)) for n in range(cutoff + 1)]
    exps = [e + (0,) * nb for e in exps_a] + [(0,) * na + e for e in exps_b]
    for product in (poisson_product_hetero, poisson_product_homo):
        prod = product(pa, pb)
        ideal = [prod.ring.monomial(e) for e in exps]
        assert _reduced_counts(prod, ideal, cutoff) == convolved


# ---------------------------------------------------------------------------
# Laws decided on generators, against the random probes they replaced
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
REPO_DATA = Path(__file__).parent.parent / "data"

ANTISYMMETRY = ("table antisymmetry", "bracket extends the table on generator pairs")
JACOBI = "Jacobi on generator triples"
LEIBNIZ = "Leibniz: the scale brackets to zero with every generator"


def _canonical_doc(n, rank, rng):
    """{q_i, p_i} = 1 on 2n generators with seeded dimension vectors."""
    gens = []
    for i in range(1, n + 1):
        v = [0] * rank
        while not any(v):
            v = [rng.randint(-2, 2) for _ in range(rank)]
        gens += [{"name": f"q{i}", "dim": v}, {"name": f"p{i}", "dim": [-x for x in v]}]
    return {"generators": gens, "product_dim": [0] * rank, "bracket_dim": [0] * rank,
            "bracket": {f"q{i},p{i}": "1" for i in range(1, n + 1)}, "ideal": ["q1"]}


def _gens(names, dim=0):
    return [{"name": n, "dim": [dim]} for n in names]


def _subjects():
    """Fifteen Poisson documents: the shipped ones, the broken fixture,
    six seeded canonical shapes, two scaled algebras, so(3), and one
    mutant per law (Jacobi, Leibniz, coisotrope closure)."""
    docs = {p.stem: json.loads(p.read_text()) for p in sorted((REPO_DATA / "poisson").glob("*.json"))}
    docs["broken antisymmetry"] = json.loads((DATA / "poisson_broken_antisymmetry.json").read_text())
    rng = random.Random(901)
    for n, rank in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
        docs[f"canonical n={n} rank={rank}"] = _canonical_doc(n, rank, rng)
    docs["scaled by z"] = {"generators": _gens(["a1"], 1) + _gens(["a2"], -1) + _gens(["z"], 1),
                           "product_dim": [1], "scale": "z", "bracket": {"a1,a2": "z^2"}}
    docs["scaled by w^3"] = {
        "generators": [{"name": "b1", "dim": [2]}, {"name": "b2", "dim": [-2]},
                       {"name": "w", "dim": [1]}],
        "product_dim": [3], "scale": "w^3", "bracket": {"b1,b2": "w^4"}}
    docs["so(3)"] = {"generators": _gens("xyz"),
                     "bracket": {"x,y": "z", "y,z": "x", "z,x": "y"}}
    docs["not Jacobi"] = {"generators": _gens("xyz"), "bracket": {"x,y": "z", "z,x": "x^2"}}
    docs["scale not Casimir"] = {"generators": _gens("q", 1) + _gens("p", -1),
                                 "product_dim": [1], "scale": "q", "bracket": {"q,p": "1"}}
    docs["ideal (q, p)"] = {**docs["canonical_qp"], "ideal": ["q", "p"]}
    return docs


SUBJECTS = _subjects()


def _gl_doc(n):
    """The Lie-Poisson table of gl(n)*: {e_ij, e_kl} = δ_jk·e_il - δ_li·e_kj
    on dimensionless generators, Poisson by construction."""
    idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    bracket = {}
    for (i, j), (k, l) in itertools.combinations(idx, 2):
        plus, minus = f"e{i}{l}" * (j == k), f"-e{k}{j}" * (l == i)
        if plus or minus:
            bracket[f"e{i}{j},e{k}{l}"] = " ".join(filter(None, (plus, minus)))
    return {"generators": _gens(f"e{i}{j}" for i, j in idx), "bracket": bracket}


def _load(name):
    return load_poisson(SUBJECTS[name], validate=False)


def probed_verdicts(p, ideal, seed=67, probes=25):
    """The random-probe checks that the report and the coisotrope check
    ran before their laws were decided on generators, kept as a reference
    oracle: antisymmetry, Jacobi and Leibniz for the scaled product on
    random polynomials, and closure on random multiples of the ideal
    generators.  Maps each law to whether every probe passed."""
    rng = random.Random(seed)
    ring, br = p.ring, p.bracket

    def draws(k):
        return [tuple(ring.sample(rng) for _ in range(k)) for _ in range(probes)]

    verdicts = {
        "antisymmetry": all(ring.eq(br(f, g), ring.neg(br(g, f))) for f, g in draws(2)),
        "Jacobi": all(ring.is_zero(jacobiator(br, ring.add, *fgh)) for fgh in draws(3)),
        "Leibniz": all(
            ring.eq(br(f, p.product(g, h)),
                    ring.add(p.product(br(f, g), h), p.product(g, br(f, h))))
            for f, g, h in draws(3)),
    }
    if ideal:
        mono = ring.monomial_ideal(ideal)
        fs = [ring.sample(rng) for _ in range(20)]
        verdicts["closure"] = all(
            mono.contains(br(ring.mul(f, g1), g2))
            for f, g1, g2 in itertools.product(fs, mono.generators, mono.generators))
    return verdicts


class TestGeneratorDecisions:
    @pytest.mark.parametrize("name", SUBJECTS)
    def test_probes_agree_with_the_generator_decisions(self, name):
        p, ideal = _load(name)
        rep = poisson_axiom_report(p)
        decided = {r.law: r.passed for r in rep.results}
        expect = probed_verdicts(p, ideal)
        assert all(decided[law] == expect["antisymmetry"] for law in ANTISYMMETRY
                   if law in decided)
        if len(rep.results) < 8:  # stops only after a failed law 1 or 2
            assert not rep.ok and not expect["antisymmetry"]
            return
        assert decided[JACOBI] == expect["Jacobi"]
        assert decided[LEIBNIZ] == expect["Leibniz"]
        if ideal and rep.ok:
            co = coisotrope_check(p, ideal)
            assert len(co.results) == 3
            assert co.ok == expect["closure"]

    @pytest.mark.parametrize("name", SUBJECTS)
    def test_no_law_reads_the_rng(self, name):
        p, ideal = _load(name)
        unusable = object()  # any draw from it would raise
        assert poisson_axiom_report(p, unusable).lines() == poisson_axiom_report(p).lines()
        if ideal:
            assert coisotrope_check(p, ideal, unusable).lines() == coisotrope_check(p, ideal).lines()

    def test_passing_reports_have_eight_and_three_lines(self):
        passing = [name for name in SUBJECTS if poisson_axiom_report(_load(name)[0]).ok]
        assert len(passing) == 12
        for name in passing:
            p, ideal = _load(name)
            assert len(poisson_axiom_report(p).results) == 8
            if ideal:
                co = coisotrope_check(p, ideal)
                assert len(co.results) == 3
                assert co.ok == (name != "ideal (q, p)")

    def test_a_scale_that_is_not_a_casimir_fails_leibniz(self):
        rep = poisson_axiom_report(_load("scale not Casimir")[0])
        assert [r.law for r in rep.failures] == [LEIBNIZ]
        assert rep.failures[0].witness.startswith("{p,q} = -1, ")

    def test_a_table_that_breaks_jacobi_fails_on_generators(self):
        rep = poisson_axiom_report(_load("not Jacobi")[0])
        assert [r.line() for r in rep.failures] == [
            f"FAIL  {JACOBI}: Jacobi fails on generators (x,y,z)"]

    @staticmethod
    def _calls_inside(monkeypatch, counted, laws):
        """Count calls to each (owner, name) of `counted` made inside the
        laws named in `laws`: the returned list gets, per such law run,
        the number of calls it made."""
        calls, inside, law = [], [], CheckReport.law
        for owner, name in counted:
            true_op = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, true_op=true_op:
                                calls.append(true_op) or true_op(*args))

        def watched(rep, name, cases, check):
            before = len(calls)
            law(rep, name, cases, check)
            if name in laws:
                inside.append(len(calls) - before)

        monkeypatch.setattr(CheckReport, "law", watched)
        return inside

    def test_jacobi_reads_the_table_of_gl3_and_builds_no_generator(self, monkeypatch):
        """The Lie-Poisson table of gl(3)* PASSes; with one entry perturbed
        it FAILs Jacobi alone.  Laws 4 and 5 read the table's nonzero
        entries, so they build no generator and form no bracket."""
        doc = _gl_doc(3)
        assert doc["bracket"]["e12,e21"] == "e11 -e22"
        inside = self._calls_inside(monkeypatch, [(GradedPolyRing, "generator"),
                                                  (DimPoisson, "bracket")], (JACOBI, LEIBNIZ))
        assert poisson_axiom_report(load_poisson(doc, validate=False)[0]).ok
        rep = poisson_axiom_report(load_poisson(
            {**doc, "bracket": {**doc["bracket"], "e12,e21": "e11"}}, validate=False)[0])
        assert [r.line() for r in rep.failures] == [
            f"FAIL  {JACOBI}: Jacobi fails on generators (e12,e21,e23)"]
        assert inside == [0, 0, 0, 0]

    def test_jacobi_and_leibniz_on_an_empty_table_do_no_polynomial_work(self, monkeypatch):
        """On 60 generators with no entry, laws 4 and 5 walk their
        C(60, 3) and 60 cases with no derivative and no product: no term
        exists where no entry meets a variable."""
        inside = self._calls_inside(
            monkeypatch, [(GradedPolyRing, "partial"), (GradedPolyRing, "mul")], (JACOBI, LEIBNIZ))
        p = make_poisson(GradedPolyRing([f"x{i}" for i in range(60)], [(0,)] * 60), {},
                         validate=False)
        rep = CheckReport("empty table")
        _jacobi_and_casimir(p, rep)
        assert [(r.law, r.passed, r.cases) for r in rep.results] == [
            (JACOBI, True, math.comb(60, 3)), (LEIBNIZ, True, 60)]
        assert inside == [0, 0]

    def test_a_bracket_on_the_widest_empty_table_scales_neither_side(self, monkeypatch):
        """On an empty table with as many generators as
        MAX_POISSON_GENERATORS admits no placed entry's row is a variable
        of f, so each generator bracket is its slice's zero before either
        side is scaled to integers; with one entry {x0, x1} = 1 the
        bracket {x0, x1} scales both."""
        import dimalg.poisson as poisson
        from dimalg.errors import MAX_POISSON_GENERATORS

        calls, numerators = [], poisson._numerators
        monkeypatch.setattr(poisson, "_numerators", lambda f: calls.append(f) or numerators(f))
        n = MAX_POISSON_GENERATORS
        ring = GradedPolyRing([f"x{i}" for i in range(n)], [(0,)] * n)
        gens = [ring.generator(name) for name in ring.gen_names]
        p = make_poisson(ring, {}, validate=False)
        for f, g in itertools.product(gens, repeat=2):
            assert p.bracket(f, g) == DimElement((), (0,))
        assert calls == []
        one = make_poisson(ring, {("x0", "x1"): ring.one}, validate=False)
        assert one.bracket(gens[0], gens[1]) == ring.one
        assert len(calls) == 2

    def test_a_misplaced_constant_stops_after_the_first_law(self):
        doc = {**SUBJECTS["canonical_qp"], "bracket_dim": [5]}
        rep = poisson_axiom_report(load_poisson(doc, validate=False)[0])
        assert rep.lines()[1:] == [
            "FAIL  structure constants sit at b+g_i+g_j: dim({q,p}) = (0,), expected (5,)"]

    def test_a_table_that_is_not_antisymmetric_stops_after_the_second_law(self):
        rep = poisson_axiom_report(_load("broken antisymmetry")[0])
        assert rep.lines()[1:] == [
            "PASS  structure constants sit at b+g_i+g_j",
            "FAIL  table antisymmetry: table not antisymmetric at (q,p)"]

    def test_an_ideal_that_is_not_closed_fails_on_generator_pairs(self):
        p, ideal = _load("ideal (q, p)")
        rep = coisotrope_check(p, ideal)
        assert [r.passed for r in rep.results] == [True, False, False]
        assert rep.failures[0].line() == (
            "FAIL  bracket closes on generator pairs: {q,p} = 1 is outside the ideal")

    @pytest.mark.parametrize("name, law", [
        ("broken antisymmetry", "table antisymmetry"),
        ("not Jacobi", JACOBI),
        ("scale not Casimir", LEIBNIZ),
    ])
    def test_validation_names_the_first_failing_law(self, name, law):
        with pytest.raises(ConstructionError) as exc:
            load_poisson(SUBJECTS[name], validate=True)
        assert str(exc.value).startswith(f"Poisson construction rejected: FAIL  {law}: ")


@pytest.mark.parametrize("name, unit", [
    ("canonical_qp", True),
    ("canonical n=2 rank=2", True),
    ("scaled by z", False),
    ("scaled by w^3", False),
])
def test_product_is_the_scale_times_the_ring_product(name, unit):
    """A unit scale is skipped, and no other: on sampled polynomials the
    product is ring.mul(scale, ring.mul(f, g)) in either case."""
    p, _ = _load(name)
    ring, rng = p.ring, random.Random(71)
    assert ring.eq(p.scale, ring.one) == unit
    for _ in range(30):
        f, g = ring.sample(rng), ring.sample(rng)
        assert p.product(f, g) == ring.mul(p.scale, ring.mul(f, g))


def test_every_zero_entry_sits_at_its_slice():
    """Declared, mirrored or missing, each zero of the table is the zero
    of its slice b + g_i + g_j; the product dimension is the scale's."""
    p, _ = load_poisson({"generators": _gens("q", 1) + _gens("p", -1) + _gens("r", 2),
                         "bracket": {"q,p": "1", "q,r": "0", "r,r": "0"}}, validate=False)
    dims = dict(zip(p.ring.gen_names, p.ring.gen_dims))
    for (x, y), t in p.table.items():
        assert t.dim == p.bracket_slice(dims[x], dims[y])
    assert p.product_dim == p.scale.dim == (0,)


def test_a_report_forms_each_generator_bracket_and_product_once(monkeypatch):
    """On n generators one passing report makes n(n-1) brackets for
    law 3 and the n diagonal ones for law 6, whose other pairs law 3
    formed; Jacobi and Leibniz read the table and make none.  It makes
    the n(n+1)/2 products of law 6, their n(n-1)/2 mirrors for
    commutativity and two outer products per triple of law 8, whose
    inner ones are law 6's."""
    p, calls = canonical_4gen(), Counter()
    for op in ("bracket", "product"):
        true_op = getattr(DimPoisson, op)
        monkeypatch.setattr(DimPoisson, op, lambda self, f, g, op=op, true_op=true_op:
                            calls.update([op]) or true_op(self, f, g))
    assert poisson_axiom_report(p).ok
    n = p.ring.nvars
    assert calls["bracket"] == n * (n - 1) + n == 16
    assert calls["product"] == n * (n + 1) // 2 + n * (n - 1) // 2 + 2 * math.comb(n + 2, 3) == 56


def _shifted(el):
    """`el` moved one slice up."""
    return DimElement(el.value, tuple(d + 1 for d in el.dim))


POISSON_MUTANTS = [
    # (owner, operation, mutant of the true value r at f, g, report, law, witness start)
    (DimPoisson, "bracket", lambda ring, r, f, g: ring.add(r, r), poisson_axiom_report,
     "bracket extends the table on generator pairs", "{q1,p1} = 2, the table says 1"),
    (DimPoisson, "bracket", lambda ring, r, f, g: _shifted(r), poisson_axiom_report,
     "dimension projections of both products", "dim({f,g}) != b+dim(f)+dim(g) at "),
    (DimPoisson, "product", lambda ring, r, f, g: _shifted(r), poisson_axiom_report,
     "dimension projections of both products", "dim(f*g) != p+dim(f)+dim(g) at "),
    (DimPoisson, "product", lambda ring, r, f, g: ring.mul(f, r), poisson_axiom_report,
     "product commutative on generator pairs", "product not commutative at "),
    (DimPoisson, "product", lambda ring, r, f, g: ring.mul(r, r), poisson_axiom_report,
     "product associative on generator triples", "product not associative at "),
    (DimPoisson, "product", lambda ring, r, f, g: ring.one, lambda p: coisotrope_check(p, ["q1"]),
     "ideal for the product", "product leaks: 1*q1 left the ideal"),
    (ReducedPoisson, "bracket", lambda ring, r, f, g: ring.mul(r, ring.generator("q1")),
     lambda p: poisson_reduce(p, ["q1"], 6).axiom_report(),
     "product and bracket of low-degree basis pairs are normal forms", "bracket of "),
]


@pytest.mark.parametrize("owner, op, mutant, report, law, witness", POISSON_MUTANTS, ids=[
    "bracket-off-the-table", "bracket-off-its-slice", "product-off-its-slice",
    "product-not-commutative", "product-not-associative", "product-leaves-the-ideal",
    "reduced-bracket-no-normal-form"])
def test_each_poisson_law_fails_on_a_mutant(monkeypatch, owner, op, mutant, report, law, witness):
    """canonical_4gen is built with the true operations, then `op` is
    replaced by a mutant: `law` FAILs with a witness."""
    p4 = canonical_4gen()
    true_op = getattr(owner, op)
    monkeypatch.setattr(owner, op, lambda self, f, g: mutant(self.ring, true_op(self, f, g), f, g))
    (line,) = [r for r in report(p4).results if r.law == law and not r.passed]
    assert line.witness.startswith(witness)
