"""Acceptance criteria, one test per criterion.

Every algebraic equality here is bit-exact over exact rationals (zero
tolerance); the only stated numeric tolerance is the fill-time landing
within 0.5 s of 4 s.  Each test prints one PASS/FAIL line; run with
`pytest tests/test_acceptance.py -s` to see them as they go.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import run_cli
from dimalg import (
    ConstructionError,
    EndoRing,
    Factor,
    FreeDimModule,
    GradedPolyRing,
    GSet,
    Line,
    PowerRing,
    ProductDimRing,
    RingMorphism,
    TwistedLinearMap,
    check_structure,
    endo_distributivity_report,
    line_unit_to_section,
    make_poisson,
    poisson_product_hetero,
    poisson_product_homo,
    poisson_reduce,
    power_functor,
    pullback_map,
    pullback_module,
    quotient_module,
    quotient_ring,
    rig_distributivity_witness,
    ring_axiom_report,
    tensor_mod,
    units_trivialization,
)
from dimalg.carriers import Rationals
from dimalg.monoid import DimMonoid
from dimalg.sampling import rand_nonzero_fraction

REPO = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, title: str, bound_s: float | None = None):
    """One criterion's PASS/FAIL line; a criterion with a wall-clock bound
    must finish inside it, and its line gives the time beside the bound."""
    start, verdict = time.perf_counter(), "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert bound_s is None or elapsed < bound_s, f"took {elapsed:.2f}s"
        verdict = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        timing = "" if bound_s is None else f" ({elapsed:.3f} s, bound {bound_s:g} s)"
        print(f"{verdict}: criterion {number} — {title}{timing}")


def test_criterion_1_worked_example_end_to_end():
    with criterion(1, "worked example: combined flow and fill time", bound_s=1.0):
        registry = str(REPO / "data" / "registries" / "si_demo.json")

        r = run_cli(["eval", "2.2 L/min + 2.1 L/min", "--registry", registry])
        assert r.exit_code == 0
        assert r.output.strip() == "4.300 L/min"

        r = run_cli([
            "eval", "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "--registry", registry, "--to", "s",
        ])
        assert r.exit_code == 0
        assert r.output.strip() == "4.186 s"

        # the exact fill time lands within 0.5 s of the quoted 4 seconds
        fill_seconds = F(300, 10**6) / (F(43, 10) * F(1, 1000) / 60)
        assert fill_seconds == F(180, 43)
        assert abs(fill_seconds - 4) <= F(1, 2)


def test_criterion_2_ring_axiom_suites():
    with criterion(2, "ring axiom suite on four rings inside 10 s", bound_s=10.0):
        rng = random.Random(202)
        scalars = Rationals()

        subjects = [
            ProductDimRing(scalars, DimMonoid.free_abelian(1), label="QxZ"),
            ProductDimRing(scalars, DimMonoid.cyclic(2), label="QxZ/2"),
            PowerRing((Line("length"), Line("time"))),
        ]
        for ring in subjects:
            rep = ring_axiom_report(ring, rng)
            assert rep.ok, f"{ring.label}: {rep.failures}"

        endo = EndoRing(ProductDimRing(scalars, DimMonoid.cyclic(3)))
        rep = ring_axiom_report(endo, rng)
        assert rep.ok, rep.failures
        rep = endo_distributivity_report(endo)
        assert rep.ok, rep.failures


def test_criterion_3_trivialization_bit_exact():
    with criterion(3, "trivialization: 3 sections x 1000 elements, bit-exact"):
        rng = random.Random(303)
        ring = PowerRing((Line("a"), Line("b")))
        for _ in range(3):
            coords = [rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)]
            section = line_unit_to_section(ring, coords)
            assert section.ok
            triv = units_trivialization(ring, section.value)
            product = triv.product
            elements = [product.sample(rng) for _ in range(1000)]
            for x in elements:
                assert triv.from_field(triv.to_field(x)) == x
            field_elements = [ring.sample(rng) for _ in range(200)]
            for y in field_elements:
                assert triv.to_field(triv.from_field(y)) == y
            for x, y in zip(elements[:500], elements[500:]):
                assert triv.to_field(product.mul(x, y)) == ring.mul(
                    triv.to_field(x), triv.to_field(y)
                )


def test_criterion_4_power_functoriality():
    with criterion(4, "power functor laws on 100 random factor pairs"):
        rng = random.Random(404)
        a, b, c = Line("A"), Line("B"), Line("C")
        src = PowerRing((a,))
        for _ in range(100):
            fb = Factor(a, b, rand_nonzero_fraction(rng))
            fc = Factor(b, c, rand_nonzero_fraction(rng))
            composed = power_functor(fc.compose(fb))
            chained = power_functor(fc).compose(power_functor(fb))
            ident = power_functor(Factor.identity(a))
            for n in range(-3, 4):
                x = src.element(rand_nonzero_fraction(rng), (n,))
                assert composed(x) == chained(x)
                assert ident(x) == x


def test_criterion_5_quotient_projections_are_morphisms():
    with criterion(5, "quotient projections: 500 probes each, bit-exact"):
        rng = random.Random(505)
        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        ideal = ring.monomial_ideal(["q"])
        quot = quotient_ring(ring, ideal)
        for _ in range(500):
            x = ring.sample(rng)
            y = ring.sample(rng, dim=x.dim)
            z = ring.sample(rng)
            assert quot.project(ring.add(x, y)) == quot.add(quot.project(x), quot.project(y))
            assert quot.project(ring.mul(x, z)) == quot.mul(quot.project(x), quot.project(z))

        gs = GSet(ring.dims, orbits=("i",))
        module = FreeDimModule(
            ring, gs, [("e", ((0,), "i")), ("f", ((1,), "i"))], "A"
        )
        qgen = ideal.generators[0]
        gens = [
            module.element(gs.act(qgen.dim, module.basis_dim[n]), {n: qgen})
            for n in ("e", "f")
        ]
        qm = quotient_module(module, gens, ideal)
        for _ in range(500):
            r = ring.sample(rng)
            x = module.sample(rng)
            y = module.element(x.dim, {n: ring.sample(rng, dim=c.dim) for n, c in x.value})
            assert (
                qm.projection(module.act(r, x))
                == qm.module.act(qm.ring_projection(r), qm.projection(x))
            )
            assert (
                qm.projection(module.add(x, y))
                == qm.module.add(qm.projection(x), qm.projection(y))
            )


def test_criterion_6_tensor_machinery():
    with criterion(6, "tensor relation, distributivity bijection, pullback laws"):
        rng = random.Random(606)
        ring = ProductDimRing(Rationals(), DimMonoid.free_abelian(1), label="QxZ")
        g = ring.dims
        gs = GSet(g, orbits=("i",))
        module = FreeDimModule(
            ring, gs, [("e", ((0,), "i")), ("f", ((1,), "i"))], "M"
        )
        tens = tensor_mod(module, module)
        for _ in range(500):
            r = ring.sample(rng)
            x = module.sample(rng)
            y = module.sample(rng)
            lhs = tens.pure(module.act(r, x), y)
            rhs = tens.pure(x, module.act(r, y))
            assert lhs == rhs

        # distributivity bijections for every shape with ranks <= 2 and
        # orbit index sets of size <= 3
        for n_orb, ra, rb, rc in itertools.product((1, 2, 3), (1, 2), (1, 2), (1, 2)):
            orbits = tuple(f"o{k}" for k in range(n_orb))
            shared = GSet(g, orbits=orbits)

            def mk(prefix, rank):
                return FreeDimModule(
                    ring,
                    shared,
                    [(f"{prefix}{j}", ((j,), orbits[j % n_orb])) for j in range(rank)],
                    prefix,
                )

            w = rig_distributivity_witness(mk("a", ra), mk("b", rb), mk("c", rc))
            assert w.report.ok, w.report.failures

        # pullback functor laws on 100 probes
        q = ProductDimRing(Rationals(), DimMonoid.trivial(), label="Q")
        incl = RingMorphism(
            q, ring, lambda d: (0,), lambda a: ring.element(a.value, (0,)), "incl"
        )
        ident_m = RingMorphism.identity(ring)
        two = ring.element(F(2), (0,))
        three = ring.element(F(-3), (1,))
        psi = TwistedLinearMap(
            module, module, ident_m,
            {n: module.act(two, module.basis_element(n)) for n, _ in module.basis},
            "psi",
        )
        theta = TwistedLinearMap(
            module, module, ident_m,
            {n: module.act(three, module.basis_element(n)) for n, _ in module.basis},
            "theta",
        )
        lhs = pullback_map(incl, psi.compose(theta))
        rhs = pullback_map(incl, psi).compose(pullback_map(incl, theta))
        ident_pull = pullback_map(incl, TwistedLinearMap.identity(module))
        pulled = pullback_module(incl, module)
        for _ in range(100):
            x = pulled.sample(rng)
            assert lhs(x) == rhs(x)
            assert ident_pull(x) == x


def test_criterion_7_poisson_suite():
    with criterion(7, "Poisson suite: canonical laws, reduction, products; < 60 s", bound_s=60.0):
        rng = random.Random(707)
        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        poisson = make_poisson(ring, {("q", "p"): ring.one})

        # identically-zero laws on 300 random homogeneous triples, degree <= 3
        for _ in range(300):
            f = ring.sample(rng, max_degree=3)
            g_ = ring.sample(rng, max_degree=3)
            h = ring.sample(rng, max_degree=3)
            anti = ring.add(poisson.bracket(f, g_), poisson.bracket(g_, f))
            assert ring.is_zero(anti)
            jac = ring.add(
                poisson.bracket(f, poisson.bracket(g_, h)),
                ring.add(
                    poisson.bracket(g_, poisson.bracket(h, f)),
                    poisson.bracket(h, poisson.bracket(f, g_)),
                ),
            )
            assert ring.is_zero(jac)
            leib = ring.sub(
                poisson.bracket(f, ring.mul(g_, h)),
                ring.add(
                    ring.mul(poisson.bracket(f, g_), h),
                    ring.mul(g_, poisson.bracket(f, h)),
                ),
            )
            assert ring.is_zero(leib)

        assert poisson.bracket(ring.monomial((2, 0)), ring.generator("p")) == ring.poly(
            {(1, 0): F(2)}
        )

        # reduction against an independent oracle: closed-form monomial
        # bracket {q^a p^b, q^c p^d} = (ad - bc) q^(a+c-1) p^(b+d-1)
        cutoff = 6

        def oracle_bracket_with_q(a, b):
            # (a·0 - b·1) q^a p^(b-1)
            return (-b, a, b - 1)

        def oracle_in_ideal(coeff, qe):
            return coeff == 0 or qe >= 1

        oracle_survivors = sorted(
            (a, b)
            for a in range(cutoff + 1)
            for b in range(cutoff + 1 - a)
            if a == 0  # representatives outside (q)
            and oracle_in_ideal(*oracle_bracket_with_q(a, b)[:2])
        )
        reduced = poisson_reduce(poisson, ["q"], cutoff)
        got = sorted(m.value[0][0] for m in reduced.basis)
        assert got == oracle_survivors == [(0, 0)]

        # the product of two canonical algebras carries the 4-generator
        # canonical bracket on every generator pair
        a_ring = GradedPolyRing(["q1", "p1"], [(1,), (-1,)])
        b_ring = GradedPolyRing(["q2", "p2"], [(1,), (-1,)])
        pa = make_poisson(a_ring, {("q1", "p1"): a_ring.one})
        pb = make_poisson(b_ring, {("q2", "p2"): b_ring.one})
        prod = poisson_product_hetero(pa, pb)
        pring = prod.ring
        canonical_pairs = {("q1", "p1"), ("q2", "p2")}
        for x, y in itertools.combinations(pring.gen_names, 2):
            got_el = prod.bracket(pring.generator(x), pring.generator(y))
            if (x, y) in canonical_pairs:
                assert got_el == pring.one
            else:
                assert pring.is_zero(got_el)

        # homogeneous product: the compatibility b+q = p+c gates construction
        az = GradedPolyRing(["a1", "a2", "z"], [(1,), (-1,), (1,)])
        paz = make_poisson(
            az, {("a1", "a2"): az.monomial((0, 0, 2))},
            scale=az.generator("z"),
        )
        bw = GradedPolyRing(["b1", "b2", "w"], [(2,), (-2,), (1,)])
        pbw = make_poisson(
            bw, {("b1", "b2"): bw.monomial((0, 0, 4))},
            scale=bw.monomial((0, 0, 3)),
        )
        accepted = poisson_product_homo(paz, pbw)
        assert accepted.bracket_dim == (5,)

        xy = GradedPolyRing(["x", "y", "u"], [(1,), (-1,), (1,)])
        pxy = make_poisson(xy, {("x", "y"): xy.generator("u")})
        st_ring = GradedPolyRing(["s", "t"], [(1,), (-1,)])
        pst = make_poisson(st_ring, {("s", "t"): st_ring.one})
        with pytest.raises(ConstructionError):
            poisson_product_homo(pxy, pst)


def test_criterion_8_negative_controls():
    with criterion(8, "mutated fixtures are rejected with witnesses, exit 1"):
        fixtures = {
            "broken_associativity.json": "associativity",
            "broken_absorbency.json": "absorbent",
            "zero_slice_no_unit.json": "hits zero",
        }
        for name, needle in fixtures.items():
            code, lines = check_structure(DATA / name)
            assert code == 1
            failing = [l for l in lines if l.startswith("FAIL") and needle in l]
            assert failing, f"{name}: no witnessed failure mentioning {needle!r}"

            r = run_cli(["check", str(DATA / name)])
            assert r.exit_code == 1

        r = run_cli([
            "poisson", "check", str(DATA / "poisson_broken_antisymmetry.json")
        ])
        assert r.exit_code == 1
        assert "FAIL" in r.output and "antisymmetry" in r.output
