import itertools
from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import DEFAULT_SEED
from dimalg import DimensionMismatch, GradedPolyRing, make_poisson, ring_axiom_report
from dimalg.errors import CarrierError


class SkewSumPoly(GradedPolyRing):
    """Q[q, p] whose dimensionless sums gain (a·b)(a+b): still commutative,
    with 0 and -a, but no longer associative."""

    def add(self, a, b):
        s = super().add(a, b)
        return s if any(a.dim) else super().add(s, self.mul(self.mul(a, b), s))


class SelfNegPoly(GradedPolyRing):
    """Q[q, p] whose negation returns its argument."""

    def neg(self, a):
        return a


class TestConstruction:
    def test_monomial_dimension_is_weighted_sum(self, canonical_ring):
        assert canonical_ring.monomial_dim((2, 1)) == (1,)
        assert canonical_ring.monomial_dim((1, 1)) == (0,)

    def test_mixed_dimension_terms_rejected(self, canonical_ring):
        with pytest.raises(DimensionMismatch):
            canonical_ring.poly({(1, 0): F(1), (0, 1): F(1)})

    def test_sums_across_slices_rejected(self, canonical_ring):
        ring = canonical_ring
        with pytest.raises(DimensionMismatch):
            ring.add(ring.generator("q"), ring.generator("p"))
        with pytest.raises(DimensionMismatch):  # zeros too: each belongs to its slice
            ring.add(ring.zero((1,)), ring.zero((0,)))

    def test_zero_lives_in_every_slice(self, canonical_ring):
        z = canonical_ring.zero((5,))
        assert z.dim == (5,)
        assert canonical_ring.is_zero(z)

    def test_coefficients_cancel(self, canonical_ring):
        f = canonical_ring.poly({(1, 0): F(2)})
        g = canonical_ring.poly({(1, 0): F(-2)})
        assert canonical_ring.is_zero(canonical_ring.add(f, g))

    def test_generator_dims_must_share_rank(self):
        with pytest.raises(CarrierError):
            GradedPolyRing(["x", "y"], [(1,), (1, 0)])


class TestArithmetic:
    def test_multiplication_adds_dimensions(self, canonical_ring, rng):
        for _ in range(30):
            f = canonical_ring.sample(rng)
            g = canonical_ring.sample(rng)
            fg = canonical_ring.mul(f, g)
            assert fg.dim == tuple(a + b for a, b in zip(f.dim, g.dim))

    def test_ring_axioms(self, qp_report):
        """Every law runs every case over the probes E (one, the zero, q, p,
        then 30 samples) and the probe dimensions D, E_d being the probes
        over d: associativity all |E|³ = 34³ triples."""
        ring = qp_report.ring
        probes = ring.probe_elements(Random(DEFAULT_SEED))
        dims = ring.probe_dims()
        e, d = len(probes), len(dims)
        by_dim = Counter(a.dim for a in probes)
        within = sum(n * n for n in by_dim.values())
        rep = qp_report.report
        assert rep.ok
        cases = {r.law: r.cases for r in rep.results}
        assert cases == {
            "dimension monoid: associativity": d ** 3,
            "dimension monoid: identity": d,
            "projection is a monoid morphism": e ** 2,
            "distributivity where defined": e * within,
            "zero family is absorbent": d * e,
            "unitality": e,
            "multiplicative associativity": e ** 3,
            "commutativity": e ** 2,
            "slices are abelian groups": within,
            "addition is undefined across slices": sum(d - (a.dim in dims) for a in probes),
        }
        assert cases["multiplicative associativity"] == 34 ** 3

    @pytest.mark.parametrize("cls, budget, witness", [
        # two distinct summands of one slice come only from the samples
        (SkewSumPoly, 30, "(a+b)+b != a+(b+b) at "),
        # the ring's one, probed first, shows it without samples
        (SelfNegPoly, 0, "a+(-a) != 0 at 1"),
    ], ids=["non-associative-sum", "self-negation"])
    def test_probed_slice_group_law_names_its_broken_axiom(self, cls, budget, witness, rng):
        rep = ring_axiom_report(cls(["q", "p"], [(1,), (-1,)]), rng, budget)
        (line,) = [r for r in rep.failures if r.law == "slices are abelian groups"]
        assert line.witness.startswith(witness)

    def test_power_matches_repeated_multiplication(self, canonical_ring, rng):
        ring = canonical_ring
        for f in [ring.zero((2,))] + [ring.sample(rng) for _ in range(30)]:
            expect = ring.one
            for n in range(6):
                assert ring.pow(f, n) == expect
                expect = ring.mul(expect, f)

    def test_a_negative_power_needs_a_reciprocal(self, canonical_ring):
        q = canonical_ring.generator("q")
        with pytest.raises(CarrierError, match=r"^Q\[q,p\] has no reciprocals$"):
            canonical_ring.pow(q, -1)

    def test_partial_derivative(self, canonical_ring):
        f = canonical_ring.poly({(2, 1): F(1)})  # q^2 p
        df = canonical_ring.partial(f, "q")
        assert df == canonical_ring.poly({(1, 1): F(2)})
        assert df.dim == (0,)
        assert canonical_ring.is_zero(canonical_ring.partial(canonical_ring.one, "q"))

    def test_truncate(self, canonical_ring):
        f = canonical_ring.poly({(1, 1): F(1), (2, 2): F(1), (3, 3): F(1)})
        t = canonical_ring.truncate(f, 4)
        assert t == canonical_ring.poly({(1, 1): F(1), (2, 2): F(1)})


class TestMonomialIdeal:
    def test_membership_is_divisibility(self, canonical_ring):
        ring = canonical_ring
        ideal = ring.monomial_ideal(["q"])
        assert ideal.contains(ring.poly({(1, 1): F(3)}))
        assert not ideal.contains(ring.poly({(1, 1): F(3), (0, 0): F(1)}))
        assert ideal.contains(ring.zero((2,)))

    def test_normal_form_is_idempotent(self, canonical_ring, rng):
        nf = canonical_ring.monomial_ideal(["q"]).normal_form
        for _ in range(20):
            f = canonical_ring.sample(rng)
            assert nf(nf(f)) == nf(f)

    def test_monomials_of_dim_enumeration(self, canonical_ring):
        # dimension zero, degree <= 4: 1, qp, (qp)^2
        monos = canonical_ring.monomials_of_dim((0,), 4)
        assert sorted(monos) == [(0, 0), (1, 1), (2, 2)]


class TestShow:
    def test_rendering(self, canonical_ring):
        f = canonical_ring.poly({(2, 1): F(3), (1, 0): F(-1)})
        # both terms must share a dimension; (2,1) has dim 1, (1,0) has dim 1
        assert canonical_ring.show(f) in ("3*q^2*p - q", "-q + 3*q^2*p")
        assert canonical_ring.show(canonical_ring.zero((0,))) == "0"
        assert canonical_ring.show(canonical_ring.one) == "1"


# ---------------------------------------------------------------------------
# The monomial index against a brute-force reference
# ---------------------------------------------------------------------------


def _weighted_dim(gen_dims, rank, alpha):
    return tuple(sum(e * g[k] for e, g in zip(alpha, gen_dims)) for k in range(rank))


def _brute_monomials(gen_dims, rank, dim, max_degree):
    """Every exponent tuple of the (max_degree+1)^n box with total degree
    <= max_degree and the given dimension, in box order."""
    return [
        alpha
        for alpha in itertools.product(range(max_degree + 1), repeat=len(gen_dims))
        if sum(alpha) <= max_degree
        and _weighted_dim(gen_dims, rank, alpha) == tuple(dim)
    ]


def _reference_sample(gen_dims, rank, rng, max_degree):
    """The documented sampling recipe, written on top of the brute force:
    a random slice, a shuffled pick of up to three of its monomials, and a
    coefficient p/q with -9 <= p <= 9, 1 <= q <= 9 for each."""
    alpha = tuple(rng.randint(0, 2) for _ in gen_dims)
    dim = _weighted_dim(gen_dims, rank, alpha)
    monos = _brute_monomials(gen_dims, rank, dim, max_degree)
    if not monos:
        return (), dim
    rng.shuffle(monos)
    picked = monos[: rng.randint(1, min(3, len(monos)))]
    terms = {al: F(rng.randint(-9, 9), rng.randint(1, 9)) for al in picked}
    return tuple(sorted((al, c) for al, c in terms.items() if c != 0)), dim


@st.composite
def graded_rings(draw):
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 4))
    gen_dims = [
        tuple(draw(st.integers(-2, 2)) for _ in range(rank)) for _ in range(nvars)
    ]
    return GradedPolyRing([f"x{i}" for i in range(nvars)], gen_dims), gen_dims, rank


class TestMonomialIndex:
    @settings(max_examples=60, deadline=None)
    @given(graded_rings(), st.integers(0, 5), st.data())
    def test_matches_brute_force_in_order(self, ring_spec, max_degree, data):
        ring, gen_dims, rank = ring_spec
        box = list(itertools.product(range(max_degree + 1), repeat=len(gen_dims)))
        dims = {_weighted_dim(gen_dims, rank, a) for a in box}
        dims.add(tuple(data.draw(st.integers(-12, 12)) for _ in range(rank)))
        for dim in sorted(dims):
            assert ring.monomials_of_dim(dim, max_degree) == _brute_monomials(
                gen_dims, rank, dim, max_degree
            )

    @settings(max_examples=30, deadline=None)
    @given(graded_rings(), st.integers(0, 5))
    def test_returned_lists_are_fresh(self, ring_spec, max_degree):
        ring, _, rank = ring_spec
        dim = (0,) * rank
        first = ring.monomials_of_dim(dim, max_degree)
        expected = list(first)
        first.reverse()
        first.append((99,) * ring.nvars)
        assert ring.monomials_of_dim(dim, max_degree) == expected
        first.clear()
        assert ring.monomials_of_dim(dim, max_degree) == expected

    @settings(max_examples=40, deadline=None)
    @given(graded_rings(), st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_seeded_sample_matches_reference(self, ring_spec, seed, max_degree):
        ring, gen_dims, rank = ring_spec
        rng, ref_rng = Random(seed), Random(seed)
        for _ in range(10):
            got = ring.sample(rng, max_degree=max_degree)
            assert (got.value, got.dim) == _reference_sample(
                gen_dims, rank, ref_rng, max_degree
            )
        assert rng.random() == ref_rng.random()

    @settings(max_examples=40, deadline=None)
    @given(graded_rings(), st.data())
    def test_poly_still_rejects_mixed_dimensions(self, ring_spec, data):
        ring, gen_dims, rank = ring_spec
        box = list(itertools.product(range(3), repeat=len(gen_dims)))
        a = data.draw(st.sampled_from(box))
        others = [b for b in box if _weighted_dim(gen_dims, rank, b)
                  != _weighted_dim(gen_dims, rank, a)]
        assume(others)
        b = data.draw(st.sampled_from(others))
        with pytest.raises(DimensionMismatch):
            ring.poly({a: F(1), b: F(2)})
        with pytest.raises(DimensionMismatch):
            ring.poly({a: 1}, dim=_weighted_dim(gen_dims, rank, b))

    @settings(max_examples=30, deadline=None)
    @given(graded_rings(), st.data())
    def test_poly_still_rejects_bad_exponents(self, ring_spec, data):
        ring, _, _ = ring_spec
        n = ring.nvars
        bad = data.draw(st.one_of(
            st.lists(st.integers(0, 3), max_size=6).filter(lambda xs: len(xs) != n),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(
                lambda xs: any(x < 0 for x in xs)),
        ))
        with pytest.raises(CarrierError):
            ring.poly({tuple(bad): F(1)})

    def test_exact_and_integer_coefficients_agree(self, canonical_ring):
        from_ints = canonical_ring.poly({(2, 1): 3, (1, 0): -1})
        from_fractions = canonical_ring.poly({(2, 1): F(3), (1, 0): F(-1)})
        assert from_ints == from_fractions
        assert all(type(c) is F for _, c in from_ints.value)


class TestTrustedResults:
    """add, mul, partial, neg, scale and the Poisson bracket build their
    results without re-validation; each must still be exactly what the
    checked constructor poly() builds from the same terms."""

    @staticmethod
    def assert_canonical(ring, x):
        assert x == ring.poly(dict(x.value), dim=x.dim)
        alphas = [a for a, _ in x.value]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))  # strictly sorted
        assert all(type(c) is F and c != 0 for _, c in x.value)
        assert all(ring.monomial_dim(a) == x.dim for a in alphas)

    @settings(max_examples=80, deadline=None)
    @given(graded_rings(), st.integers(0, 2**32 - 1),
           st.fractions(min_value=-5, max_value=5, max_denominator=6))
    def test_results_are_canonical(self, ring_spec, seed, c):
        ring, gen_dims, rank = ring_spec
        rng = Random(seed)
        f, g = ring.sample(rng), ring.sample(rng)
        h = ring.sample(rng, dim=f.dim)
        # structure constants sampled in their slices b + g_i + g_j, so the
        # bracket meets polynomial constants and cancellation
        b = tuple(rng.randint(-1, 1) for _ in range(rank))
        table = {
            (ring.gen_names[i], ring.gen_names[j]): ring.sample(
                rng, dim=tuple(map(sum, zip(b, gen_dims[i], gen_dims[j]))))
            for i, j in itertools.combinations(range(ring.nvars), 2)
        }
        p = make_poisson(ring, table, bracket_dim=b, validate=False)
        results = [
            ring.add(f, h), ring.add(f, ring.neg(f)), ring.add(f, ring.sub(h, f)),
            ring.mul(f, g), ring.mul(f, ring.zero(g.dim)), ring.neg(f), ring.scale(c, f),
            ring.pow(f, 3),
            p.bracket(f, g), p.bracket(f, f), p.bracket(f, h),
        ]
        results += [ring.partial(f, n) for n in ring.gen_names]
        for x in results:
            self.assert_canonical(ring, x)


@pytest.mark.parametrize("call, message", [
    (lambda ring: GradedPolyRing(["q"], []), "one dimension vector per generator"),
    (lambda ring: ring.monomial_ideal([ring.add(ring.generator("q"), ring.monomial((2, 1)))]),
     "monomial ideal generators must be monomials"),
], ids=["a-generator-without-dimension", "a-binomial-ideal-generator"])
def test_poly_refusals(canonical_ring, call, message):
    with pytest.raises(CarrierError, match=message):
        call(canonical_ring)
