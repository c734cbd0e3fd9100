"""sympy as an independent oracle for the polynomial and Poisson kernels.

`GradedPolyRing.mul`, `partial` and the monomial-ideal normal form are
checked against `sympy.Poly`, `DimDerivation.apply` (the `poly.leibniz`
extension of its generator images) against sympy's sum over i of
dF/dx_i * D(x_i), and `DimPoisson.bracket` against the sum
over ordered generator pairs of d_i f * d_j g * {x_i, x_j}, computed by
sympy from the structure constants alone.  The reduced basis that
`poisson_reduce` computes is checked against sympy's nullspace of the
same conditions, built from that sum and `sympy.reduced`, and the exact
elimination under it, `rref` and `nullspace`, against
sympy's `rref` and `nullspace` on seeded integer, rational and mixed
matrices.
"""

import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st

from dimalg import (DimDerivation, GradedPolyRing, make_poisson, poisson_product_homo,
                    poisson_reduce)
from dimalg.linalg import nullspace, rref
from dimalg.poly import leibniz
from dimalg.structure import load_poisson

REPO_DATA = Path(__file__).parent.parent / "data"

# generators over Z^2 whose dimensions are not all multiples of one another
RING = GradedPolyRing(["x", "y", "u", "v"], [(1, 0), (-1, 0), (0, 1), (1, -1)])

oracle = settings(derandomize=True, max_examples=40, deadline=None)
coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def polys(ring, max_degree=3):
    """Homogeneous polynomials of up to four terms: a dimension of the
    ring's monomial index, then coefficients on monomials of it."""
    index = ring.monomial_index(max_degree)
    return st.sampled_from(sorted(index)).flatmap(
        lambda d: st.dictionaries(st.sampled_from(index[d]), coeffs, max_size=4)
        .map(lambda terms: ring.poly(terms, dim=d)))


def symbols(ring):
    return sympy.symbols(ring.gen_names)


def to_sympy(ring, f):
    terms = {a: sympy.Rational(c.numerator, c.denominator) for a, c in f.value}
    return sympy.Poly.from_dict(terms, *symbols(ring), domain=sympy.QQ)


def terms_of(poly):
    return {a: Fraction(int(c.p), int(c.q)) for a, c in poly.as_dict().items()}


def vec_sum(*vs):
    return tuple(map(sum, zip(*vs)))


@oracle
@given(polys(RING), polys(RING))
def test_mul_matches_sympy(f, g):
    got = RING.mul(f, g)
    assert dict(got.value) == terms_of(to_sympy(RING, f) * to_sympy(RING, g))
    assert got.dim == vec_sum(f.dim, g.dim)


@oracle
@given(polys(RING), st.sampled_from(RING.gen_names))
def test_partial_matches_sympy(f, name):
    got = RING.partial(f, name)
    assert dict(got.value) == terms_of(to_sympy(RING, f).diff(sympy.Symbol(name)))
    assert got.dim == tuple(d - e for d, e in zip(f.dim, RING.gen_dims[RING.index[name]]))


def derivations(ring, max_degree=3):
    """Derivations whose shift is some monomial's dimension less some
    generator's, so that generator's image can be nonzero; each image is
    drawn at its slice shift + g_i where the ring's monomial index has
    that slice, and is zero where it has not."""
    index = ring.monomial_index(max_degree)

    @functools.cache  # one strategy per shift, built and validated once
    def with_images(shift):
        slots = {n: vec_sum(shift, d) for n, d in zip(ring.gen_names, ring.gen_dims)}
        images = {n: st.dictionaries(st.sampled_from(index[d]), coeffs, min_size=1, max_size=3)
                  .map(lambda terms, d=d: ring.poly(terms, dim=d))
                  for n, d in slots.items() if d in index}
        return st.fixed_dictionaries(images).map(
            lambda imgs: DimDerivation(ring, shift, imgs))

    shifts = st.tuples(st.sampled_from(sorted(index)), st.sampled_from(ring.gen_dims))
    return shifts.map(lambda t: tuple(a - b for a, b in zip(*t))).flatmap(with_images)


@oracle
@given(derivations(RING), polys(RING).filter(lambda f: f.value))
def test_derivation_matches_sympy(D, f):
    """D(F) against the sum over i of dF/dx_i * D(x_i), formed by sympy."""
    xs, F = symbols(RING), to_sympy(RING, f)
    want = sum((F.diff(x) * to_sympy(RING, D.images[n]) for x, n in zip(xs, RING.gen_names)),
               sympy.Poly(0, *xs, domain=sympy.QQ))
    got = D(f)
    assert dict(got.value) == terms_of(want)
    assert got.dim == vec_sum(D.shift, f.dim)


# ideal generators: the monomials of degree 1 and 2
DIVISORS = [a for a in itertools.product(range(3), repeat=RING.nvars) if 1 <= sum(a) <= 2]


def used(f):
    return {u for a, _ in f.value for u, e in enumerate(a) if e}


def leibniz_cases(ring):
    """(f, rows): f uses some but not all generators; `rows` is keyed by a
    subset of them that holds a generator f does not use and lacks one
    it does, each row up to three terms of degree <= 2 with integer or
    Fraction coefficients."""
    monos = [a for a in itertools.product(range(3), repeat=ring.nvars) if sum(a) <= 2]
    row = st.lists(st.tuples(st.sampled_from(monos), st.integers(-9, 9) | coeffs),
                   min_size=1, max_size=3).map(tuple)

    def rows_for(f):
        inside, outside = sorted(used(f)), sorted(set(range(ring.nvars)) - used(f))
        return st.tuples(st.sampled_from(outside), st.sampled_from(inside)).flatmap(
            lambda pick: st.dictionaries(
                st.sampled_from([u for u in range(ring.nvars) if u != pick[1]]), row)
            .flatmap(lambda rows: row.map(lambda r: {**rows, pick[0]: r})))

    fs = polys(ring).filter(lambda f: 0 < len(used(f)) < ring.nvars)
    return fs.flatmap(lambda f: rows_for(f).map(lambda rows: (f, rows)))


@oracle
@given(leibniz_cases(RING))
def test_leibniz_matches_sympy(case):
    """`leibniz` against sympy's sum over u of dF/dx_u * rows[u], over the
    generators with a row: one absent from f adds nothing, and a
    variable of f with no row adds nothing either.  Cancelled sums may
    stay as zeros."""
    f, rows = case
    xs, F = symbols(RING), to_sympy(RING, f)
    want = sympy.Poly(0, *xs, domain=sympy.QQ)
    for u, row in rows.items():
        terms = {}
        for beta, r in row:
            terms[beta] = terms.get(beta, 0) + sympy.Rational(r.numerator, r.denominator)
        want += F.diff(xs[u]) * sympy.Poly.from_dict(terms, *xs, domain=sympy.QQ)
    got = leibniz(f.value, rows)
    assert {a: c for a, c in got.items() if c} == terms_of(want)


@oracle
@given(polys(RING), st.lists(st.sampled_from(DIVISORS), min_size=1, max_size=3))
def test_monomial_ideal_normal_form_matches_sympy(f, alphas):
    """The remainder of dividing by monomials keeps exactly the terms no
    generator divides, whatever the division order."""
    ideal = RING.monomial_ideal([RING.monomial(a) for a in alphas])
    xs = symbols(RING)
    divisors = [sympy.Mul(*(x ** e for x, e in zip(xs, a))) for a in alphas]
    _, remainder = sympy.reduced(to_sympy(RING, f).as_expr(), divisors, *xs)
    got = ideal.normal_form(f)
    assert dict(got.value) == terms_of(sympy.Poly(remainder, *xs, domain=sympy.QQ))
    assert got.dim == f.dim


def sympy_bracket(p, f, g):
    """sum over i != j of d_i f * d_j g * {x_i, x_j}, in sympy."""
    ring = p.ring
    xs = symbols(ring)
    F, G = to_sympy(ring, f).as_expr(), to_sympy(ring, g).as_expr()
    total = sum(
        (sympy.diff(F, xs[i]) * sympy.diff(G, xs[j])
         * to_sympy(ring, p.table[(ni, nj)]).as_expr()
         for (i, ni), (j, nj) in itertools.permutations(enumerate(ring.gen_names), 2)),
        sympy.Integer(0),
    )
    return sympy.Poly(total, *xs, domain=sympy.QQ)


# Both algebras are built without their axiom suites, which run the
# bracket under test: the oracle alone decides here.
CANONICAL_4GEN, _ = load_poisson(REPO_DATA / "poisson" / "canonical_4gen.json", validate=False)

# Structure constants z^2 w^3 and z w^4, not constants: the homogeneous
# product of criterion 7's two scaled algebras, written out.
_SP = GradedPolyRing(["a1", "a2", "z", "b1", "b2", "w"],
                     [(1,), (-1,), (1,), (2,), (-2,), (1,)])
SCALED_PRODUCT = make_poisson(
    _SP,
    {("a1", "a2"): _SP.monomial((0, 0, 2, 0, 0, 3)),
     ("b1", "b2"): _SP.monomial((0, 0, 1, 0, 0, 4))},
    scale=_SP.monomial((0, 0, 1, 0, 0, 3)), validate=False,
)


def test_the_scaled_product_is_a_product_of_two_algebras():
    az = GradedPolyRing(["a1", "a2", "z"], [(1,), (-1,), (1,)])
    paz = make_poisson(az, {("a1", "a2"): az.monomial((0, 0, 2))},
                       scale=az.generator("z"))
    bw = GradedPolyRing(["b1", "b2", "w"], [(2,), (-2,), (1,)])
    pbw = make_poisson(bw, {("b1", "b2"): bw.monomial((0, 0, 4))},
                       scale=bw.monomial((0, 0, 3)))
    prod = poisson_product_homo(paz, pbw)
    assert prod.ring.gen_dims == _SP.gen_dims
    assert (prod.table, prod.scale, prod.bracket_dim, prod.product_dim) == (
        SCALED_PRODUCT.table, SCALED_PRODUCT.scale,
        SCALED_PRODUCT.bracket_dim, SCALED_PRODUCT.product_dim)


# Constants over denominators 2, 3 and 7, with several terms and nonzero
# exponents, each entry in one slice: the common denominator of the
# table shows in every coefficient.  Not a Poisson algebra (Jacobi fails
# on x, y, u), which the bracket itself does not need.
FRACTIONAL = make_poisson(
    RING,
    {("x", "y"): RING.poly({(1, 0, 0, 0): Fraction(3, 2), (0, 0, 1, 1): Fraction(-5, 7)}),
     ("u", "v"): RING.poly({(2, 0, 0, 0): Fraction(1, 3)})},
    bracket_dim=(1, 0), validate=False,
)


@pytest.mark.parametrize("p", [CANONICAL_4GEN, SCALED_PRODUCT, FRACTIONAL],
                         ids=["canonical_4gen", "scaled_product", "fractional"])
def test_bracket_matches_sympy(p):
    ring = p.ring

    @oracle
    @given(polys(ring), polys(ring))
    def check(f, g):
        got = p.bracket(f, g)
        assert dict(got.value) == terms_of(sympy_bracket(p, f, g))
        assert got.dim == vec_sum(p.bracket_dim, f.dim, g.dim)

    check()


# Two Poisson algebras that are not canonical.  ROTATION is the Lie-Poisson
# structure {x,y} = 3/2 z, {y,z} = 5/7 x, {z,x} = 1/3 y, graded by b = -1;
# its reductions hold Casimir classes such as 9/2 z^2 + y^2, so the
# conditions mix several monomials.  CASIMIR_SCALED is the scaled product
# with structure constants of two terms each, polynomials in the Casimirs
# z and w.
_R3 = GradedPolyRing(["x", "y", "z"], [(1,), (1,), (1,)])
ROTATION = make_poisson(
    _R3,
    {("x", "y"): _R3.poly({(0, 0, 1): Fraction(3, 2)}),
     ("y", "z"): _R3.poly({(1, 0, 0): Fraction(5, 7)}),
     ("z", "x"): _R3.poly({(0, 1, 0): Fraction(1, 3)})},
)
CASIMIR_SCALED = make_poisson(
    _SP,
    {("a1", "a2"): _SP.poly({(0, 0, 2, 0, 0, 3): Fraction(3, 2),
                             (0, 0, 5, 0, 0, 0): Fraction(-5, 7)}),
     ("b1", "b2"): _SP.poly({(0, 0, 1, 0, 0, 4): Fraction(1, 3),
                             (0, 0, 0, 0, 0, 5): Fraction(2, 9)})},
    scale=_SP.monomial((0, 0, 1, 0, 0, 3)),
)
# The widest shape the benchmark reduces: three canonical pairs {q_i, p_i} = 1
# with 2-D dimensions.  By (q1) at cutoff 3, 22 of its 40 blocks have no
# condition, 8 are one column with a condition, and 10 need an elimination.
_R6 = GradedPolyRing(["q1", "p1", "q2", "p2", "q3", "p3"],
                     [(1, 0), (-1, 0), (1, 1), (-1, -1), (1, 2), (-1, -2)])
CANONICAL_6GEN = make_poisson(
    _R6, {("q1", "p1"): _R6.one, ("q2", "p2"): _R6.one, ("q3", "p3"): _R6.one})


def sympy_reduced_blocks(p, ideal, cutoff):
    """{(degree, dimension): (block monomials, nullspace)} of the
    reduction of `p` by the monomial ideal with exponents `ideal`: one
    condition per (ideal generator, monomial of the remainder of the
    bracket of a block monomial with it), solved by sympy."""
    ring = p.ring
    xs = symbols(ring)
    divisors = [sympy.Mul(*(x ** e for x, e in zip(xs, c))) for c in ideal]
    blocks: dict = {}
    for alpha in itertools.product(range(cutoff + 1), repeat=ring.nvars):
        if sum(alpha) <= cutoff and not any(
                all(x <= y for x, y in zip(c, alpha)) for c in ideal):
            dim = vec_sum(*(tuple(e * d for d in gd) for e, gd in zip(alpha, ring.gen_dims)))
            blocks.setdefault((sum(alpha), dim), []).append(alpha)
    out = {}
    for key, monos in blocks.items():
        conditions: dict = {}
        for col, alpha in enumerate(monos):
            for k, c in enumerate(ideal):
                br = sympy_bracket(p, ring.monomial(alpha), ring.monomial(c))
                _, rem = sympy.reduced(br.as_expr(), divisors, *xs)
                for beta, coeff in sympy.Poly(rem, *xs, domain=sympy.QQ).as_dict().items():
                    conditions.setdefault((k, beta), {})[col] = coeff
        matrix = sympy.Matrix([[cond.get(col, 0) for col in range(len(monos))]
                               for cond in conditions.values()])
        out[key] = monos, (matrix.nullspace() if conditions
                           else list(sympy.eye(len(monos)).columnspace()))
    return out


@pytest.mark.parametrize("p,ideal,cutoff", [
    (ROTATION, [(1, 0, 0)], 5),
    (ROTATION, [(2, 0, 0)], 4),
    (ROTATION, [(1, 1, 0)], 5),
    (CASIMIR_SCALED, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)], 3),
    (CANONICAL_6GEN, [(1, 0, 0, 0, 0, 0)], 3),
], ids=["rotation-x", "rotation-x2", "rotation-xy", "casimir_scaled-a1-b1", "canonical_6gen-q1"])
def test_reduced_basis_matches_sympy_nullspace(p, ideal, cutoff):
    """Per (degree, dimension) block the reduced basis has sympy's size,
    and both bases have the same reduced row echelon form."""
    ring = p.ring
    reduced = poisson_reduce(p, [ring.monomial(c) for c in ideal], cutoff)
    ours: dict = {}
    for b in reduced.basis:
        ours.setdefault((ring.degree(b), b.dim), []).append(dict(b.value))
    want = sympy_reduced_blocks(p, ideal, cutoff)
    assert {k for k, (_, null) in want.items() if null} == set(ours)
    for key, vectors in ours.items():
        monos, null = want[key]
        assert len(vectors) == len(null), key
        got = sympy.Matrix([[sympy.Rational(v.get(m, 0)) for m in monos] for v in vectors])
        assert got.rref()[0] == sympy.Matrix.hstack(*null).T.rref()[0], key


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("nrows,ncols", [(2, 5), (4, 4), (9, 3), (12, 6)])
def test_elimination_matches_sympy(nrows, ncols):
    """On seeded integer matrices, mostly zeros, each with a zero row and
    a duplicate row inserted, `rref` and `nullspace` give sympy's reduced
    rows, pivots and nullspace vectors, for dense rows and for
    {column: entry} rows of the nonzero entries alike; the latter come
    back as {column: entry} dicts, compared densely.  Each matrix is also
    given with rational entries, and mixed: every other row an integer
    row, the rest rational multiples of theirs, so the duplicate stays
    dependent.  Whatever the entries, every entry returned is a Fraction."""
    rng, scales = random.Random(nrows * 100 + ncols), random.Random(-nrows * 100 - ncols)
    for _ in range(10):
        ints = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
                for _ in range(nrows)]
        ints.insert(rng.randrange(len(ints) + 1), [0] * ncols)
        ints.insert(rng.randrange(len(ints) + 1), list(rng.choice(ints)))
        rational = [[Fraction(x, scales.randint(1, 6)) for x in row] for row in ints]
        mixed = [row if i % 2 else [x * Fraction(scales.randint(1, 5), scales.randint(2, 5))
                                    for x in row] for i, row in enumerate(ints)]
        for rows in (ints, rational, mixed):
            red, pivots = sympy.Matrix(rows).rref()
            want_rows = [tuple(map(_fraction, red.row(i))) for i in range(len(pivots))]
            want_null = [tuple(map(_fraction, v)) for v in sympy.Matrix(rows).nullspace()]
            sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
            for form in (rows, sparse):
                got, got_pivots = rref(form)
                dense = [tuple(r.get(c, 0) for c in range(ncols)) if isinstance(r, dict) else r
                         for r in got]
                assert (dense, got_pivots) == (want_rows, list(pivots)), rows
                null = nullspace(form, ncols)
                got_null = [tuple(v.get(c, 0) for c in range(ncols)) if isinstance(v, dict) else v
                            for v in null]
                assert got_null == want_null, rows
                assert all(type(x) is Fraction for v in [*got, *null]
                           for x in (v.values() if isinstance(v, dict) else v)), rows
