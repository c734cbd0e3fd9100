"""Dimensioned Poisson algebras on graded polynomial carriers.

The commutative product has a homogeneous dimension p: it is the
polynomial product scaled by a fixed monomial of dimension p (the plain
product when p = 0).  The bracket has homogeneous dimension b and is the
biderivation extension of a table of structure constants {x_i, x_j},
each homogeneous of dimension b + g_i + g_j.  Because the bracket is
that extension, every law the axiom suite and the coisotrope check state
is decided exactly by finitely many generator cases (Laurent-Gengoux,
Pichereau & Vanhaecke, *Poisson Structures*, 2013); each function says
which identity reduces which law.  On a generator the extension reads
{x_u, f} = sum over l of pi^{ul} * d_l f, the component form of
[pi, pi] = 0 (Lichnerowicz, *J. Diff. Geom.* 12, 1977), read off one
column index of the table (`_at_generators`), so the work follows the
table's nonzero entries; the bracket is `poly.leibniz` over it, {f, g} =
sum over u of d_u f * {x_u, g}.  Nothing here uses a random value.
"""

import itertools
import math
from functools import cache, cached_property
from fractions import Fraction
from operator import add as _add, sub as _sub

from .core import DimElement
from .errors import CarrierError, ConstructionError, DimensionMismatch, InputFormatError
from .linalg import nullspace
from .poly import GradedPolyRing, leibniz
from .report import CheckReport


class DimPoisson:
    def __init__(self, ring: GradedPolyRing, bracket_dim: tuple, scale: DimElement, table: dict):
        self.ring = ring
        self.bracket_dim = bracket_dim
        self.scale = scale  # homogeneous at the product dimension
        self.table = table  # every (name, name) -> structure constant

    @property
    def product_dim(self) -> tuple:
        return self.scale.dim

    def bracket_slice(self, d: tuple, e: tuple) -> tuple:
        """The grading rule: {f, g} sits at b + d + e for f at d and g at e."""
        return tuple(map(_add, map(_add, self.bracket_dim, d), e))

    # -- the two multiplications ---------------------------------------
    def product(self, f: DimElement, g: DimElement) -> DimElement:
        fg = self.ring.mul(f, g)
        return fg if self._unit_scale else self.ring.mul(self.scale, fg)

    def bracket(self, f: DimElement, g: DimElement) -> DimElement:
        """{f, g} = `leibniz`(f, {x_u, g}) in the slice b + dim(f) + dim(g).
        The first misplaced entry (i, j) in (i, j) order with i a variable
        of f and j one of g raises DimensionMismatch.  The bracket is the
        slice's zero at once where no placed entry pi^{ul} has u a variable
        of f, or none of those has l one of g; else {x_u, g} is read for
        those u alone, f and g scaled to integers by the lcm of their
        denominators, the sum taken in integers, and each output coefficient
        is one Fraction over the three denominators, with no gcd when their
        product is 1."""
        dim = self.bracket_slice(f.dim, g.dim)
        used = {u for a, _ in f.value for u, e in enumerate(a) if e}
        if self._misplaced:
            used_g = {j for a, _ in g.value for j, e in enumerate(a) if e}
            for i, j, shift in self._misplaced:
                if i in used and j in used_g:
                    raise DimensionMismatch(dim, tuple(map(_add, dim, shift)), self.ring.label)
        if used.isdisjoint(self._rows):
            return DimElement((), dim)
        dg_den, g_terms = _numerators(g)
        rows = self._at_generators(g_terms, used)
        if not rows:
            return DimElement((), dim)
        df_den, f_terms = _numerators(f)
        den = self._denominator * df_den * dg_den
        coeff = Fraction if den == 1 else lambda n: Fraction(n, den)
        acc = leibniz(f_terms, rows)
        return DimElement(tuple(sorted((a, coeff(n)) for a, n in acc.items() if n)), dim)

    @cached_property
    def _unit_scale(self) -> bool:
        """Whether the scale is the ring's one, so products skip it."""
        return self.scale == self.ring.one

    @cached_property
    def _denominator(self) -> int:
        """The lcm of every structure constant's denominators."""
        return math.lcm(*(c.denominator for t in self.table.values() for _, c in t.value))

    @cached_property
    def _entries(self) -> tuple:
        """The table's nonzero off-diagonal entries in (i, j) order, each
        (i, j, shift, terms): terms with integer coefficients over
        `_denominator`, and shift the entry's offset from its slice
        b + g_i + g_j, or None when it sits there."""
        ring, den = self.ring, self._denominator
        entries = []
        for i, ni in enumerate(ring.gen_names):
            for j, nj in enumerate(ring.gen_names):
                t = self.table[(ni, nj)]
                if i == j or not t.value:
                    continue
                expect = self.bracket_slice(ring.gen_dims[i], ring.gen_dims[j])
                shift = None if t.dim == expect else tuple(map(_sub, t.dim, expect))
                terms = tuple((a, c.numerator * (den // c.denominator)) for a, c in t.value)
                entries.append((i, j, shift, terms))
        return tuple(entries)

    @cached_property
    def _misplaced(self) -> tuple:
        """The (i, j, shift) of the entries off their slice, in (i, j) order."""
        return tuple((i, j, shift) for i, j, shift, _ in self._entries if shift is not None)

    @cached_property
    def _columns(self) -> dict:
        """The placed entries by column: l -> the (u, terms) of each pi^{ul}."""
        columns: dict = {}
        for u, l, shift, terms in self._entries:
            if shift is None:
                columns.setdefault(l, []).append((u, terms))
        return columns

    @cached_property
    def _rows(self) -> frozenset:
        """The u of every placed entry pi^{ul}: no other {x_u, g} is nonzero."""
        return frozenset(u for column in self._columns.values() for u, _ in column)

    def _at_generators(self, terms, rows=None) -> dict:
        """u -> the terms of {x_u, f} = sum over l of pi^{ul} * d_l f, over
        `_denominator` times f's, f given by its integer `terms`: for each u
        (in `rows`, if given) that a placed entry in a column of one of f's
        variables meets; no other entry is read."""
        acc: dict = {}
        columns = self._columns
        for alpha, c in terms:
            for l, e in enumerate(alpha):
                if e and l in columns:
                    lowered, ce = alpha[:l] + (e - 1,) + alpha[l + 1:], c * e
                    for u, entry in columns[l]:
                        if rows is None or u in rows:
                            row = acc.setdefault(u, {})
                            for tl, ct in entry:
                                key = tuple(map(_add, lowered, tl))
                                row[key] = row[key] + ce * ct if key in row else ce * ct
        return {u: row.items() for u, row in acc.items()}


def _numerators(f: DimElement):
    """The lcm of f's denominators, and f's terms scaled by it to integer
    coefficients."""
    den = math.lcm(*[c.denominator for _, c in f.value])
    return den, tuple([(a, c.numerator * (den // c.denominator)) for a, c in f.value])


def make_poisson(
    ring: GradedPolyRing,
    bracket_table: dict,
    bracket_dim=None,
    scale: "DimElement | None" = None,
    validate: bool = True,
) -> DimPoisson:
    """Assemble and (by default) validate a dimensioned Poisson algebra.

    `bracket_table` maps generator-name pairs to homogeneous elements.
    The algebra holds every pair in one normal form: a missing pair is
    the negated transpose of its mirror, or zero, and every zero entry,
    however it came, sits at its slice b + g_i + g_j.  An omitted
    `bracket_dim` is read off the first nonzero entry (zero when there is
    none); one of the wrong length is an InputFormatError, and so is a
    key that is not a pair of generator names.  The product dimension is the
    dimension of `scale`, which defaults to the ring's one.  Validation
    runs `poisson_axiom_report`, which decides every law on generators,
    and raises ConstructionError with the first failing law and its
    witness.
    """
    if bracket_dim is not None and len(bracket_dim) != ring.rank:
        raise InputFormatError(
            f"bracket_dim has {len(bracket_dim)} exponents, expected {ring.rank}")
    scale = ring.one if scale is None else scale
    p = DimPoisson(ring, (0,) * ring.rank if bracket_dim is None else tuple(bracket_dim), scale, {})
    dims = dict(zip(ring.gen_names, ring.gen_dims))
    for key in bracket_table:
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in dims and key[1] in dims):
            raise InputFormatError(f"bracket table key {key!r} is not a pair of generator names")
    if bracket_dim is None:  # invert the grading rule at the first nonzero entry
        for (x, y), v in bracket_table.items():
            if v.value:
                offset = p.bracket_slice(dims[x], dims[y])  # g_x + g_y while b is 0
                p = DimPoisson(ring, tuple(map(_sub, v.dim, offset)), scale, {})
                break
    for ni, gi in dims.items():  # fills p.table in place
        for nj, gj in dims.items():
            t = bracket_table.get((ni, nj))
            if t is None and (nj, ni) in bracket_table:
                t = ring.neg(bracket_table[(nj, ni)])
            if t is None or not t.value:
                t = ring.zero(p.bracket_slice(gi, gj))
            p.table[(ni, nj)] = t
    if validate:
        rep = poisson_axiom_report(p)
        if not rep.ok:
            raise ConstructionError(f"Poisson construction rejected: {rep.failures[0].line()}")
    return p


def _table_laws(p: DimPoisson, rep: CheckReport) -> bool:
    """Decide law 1, each nonzero off-diagonal entry at b + g_i + g_j, and
    then law 2, table antisymmetry on generator pairs, the diagonal
    included, into `rep`; whether `rep` passes."""
    ring, names, dims = p.ring, p.ring.gen_names, p.ring.gen_dims

    def misplaced(i, j, shift, _):
        if shift is not None:
            return (f"dim({{{names[i]},{names[j]}}}) = {p.table[(names[i], names[j])].dim}, "
                    f"expected {p.bracket_slice(dims[i], dims[j])}")

    rep.law("structure constants sit at b+g_i+g_j", p._entries, misplaced)
    if rep.ok:  # else brackets would add terms from distinct slices
        rep.law("table antisymmetry", itertools.combinations_with_replacement(names, 2),
                lambda ni, nj: not ring.eq(p.table[(ni, nj)], ring.neg(p.table[(nj, ni)]))
                and f"table not antisymmetric at ({ni},{nj})")
    return rep.ok


def _jacobi_and_casimir(p: DimPoisson, rep: CheckReport) -> None:
    """Decide laws 4 and 5 into `rep` for a table that passes laws 1 and
    2, from the table's nonzero entries alone.  Law 4 adds each
    {x_u, pi^{vw}} (`_at_generators`), v < w and u apart from both, into
    the Jacobiator of the sorted triple, negated where (u, v, w) is not a
    cyclic order of it (where v < u < w), and walks the triples in order;
    law 5 reads {x_i, s}, s the scale, off the column index as well."""
    ring, names = p.ring, p.ring.gen_names
    jacobiators: dict = {}
    for v, w, _, terms in p._entries:
        if v < w:
            for u, row in p._at_generators(terms).items():
                if u != v and u != w:
                    triple = tuple(sorted((u, v, w)))
                    for key, n in row:
                        at = (triple, key)
                        jacobiators[at] = jacobiators.get(at, 0) + (-n if v < u < w else n)
    broken = {triple for (triple, _), n in jacobiators.items() if n}
    rep.law("Jacobi on generator triples", itertools.combinations(range(len(names)), 3),
            lambda i, j, k: (i, j, k) in broken
            and f"Jacobi fails on generators ({names[i]},{names[j]},{names[k]})")
    den, scale = _numerators(p.scale)
    at_scale = p._at_generators(scale)

    def casimir(i):
        terms = sorted((a, Fraction(n, den * p._denominator)) for a, n in at_scale.get(i, ()) if n)
        if terms:  # {x_i, s} as the bracket forms it
            br = DimElement(tuple(terms), p.bracket_slice(ring.gen_dims[i], p.scale.dim))
            return (f"{{{names[i]},{ring.show(p.scale)}}} = {ring.show(br)}, "
                    "so Leibniz fails for the scaled product")

    rep.law("Leibniz: the scale brackets to zero with every generator",
            zip(range(len(names))), casimir)


def poisson_axiom_report(p: DimPoisson, rng=None) -> CheckReport:
    """The dimensioned-Poisson axiom suite, decided exactly on generators.

    With the table placed (law 1: each nonzero off-diagonal entry sits at
    b + g_i + g_j, where `make_poisson` put every zero) and antisymmetric
    (law 2, which makes each {x_i, x_i} zero), each law of the
    biderivation extension reduces to generator cases:
    - the bracket extends the table (law 3), so {g, f} = -{f, g}
      everywhere: both sides are biderivations that agree on generators;
    - the Jacobiator of an antisymmetric biderivation is an alternating
      triderivation (half the Schouten bracket [pi, pi]), so it vanishes
      iff it vanishes on triples of distinct generators (law 4); with law
      3, each triple's is {x_i, pi^jk} + {x_j, pi^ki} + {x_k, pi^ij}, and
      {x_i, f} = sum over l of pi^il * d_l f, the component form of
      [pi, pi] = 0 (Lichnerowicz, 1977), read off the table's nonzero
      entries without a bracket;
    - for the scaled product s*g*h, {f, s*g*h} - s{f,g}h - s*g{f,h} =
      {f,s}*g*h, so Leibniz holds iff the scale is a Casimir, and {-, s}
      is a derivation, so iff {x_i, s} = 0 for every generator (law 5),
      read off the table as law 4's terms are;
    - both products are graded, commutative and associative because the
      polynomial product is; laws 6-8 confirm it on generator pairs and
      triples.
    The bracket and the product of two generators are formed once per
    ordered pair and shared by laws 3 and 6-8; commutativity compares
    x_i * x_j with x_j * x_i, formed on its own.
    The report stops after a failing law 1 (brackets would add terms
    from distinct slices) or law 2 (the Jacobiator of a table that is
    not antisymmetric is no triderivation, so generators decide nothing).
    `rng` is unused: no law is probed.
    """
    ring = p.ring
    rep = CheckReport(f"Poisson algebra on {ring.label}")
    show, names = ring.show, ring.gen_names
    if not _table_laws(p, rep):  # generator triples would not decide Jacobi
        return rep
    gens = [ring.generator(n) for n in names]
    gen_bracket = cache(lambda i, j: p.bracket(gens[i], gens[j]))
    gen_product = cache(lambda i, j: p.product(gens[i], gens[j]))

    def extends(i, j):
        br, t = gen_bracket(i, j), p.table[(names[i], names[j])]
        if not ring.eq(br, t):
            return f"{{{names[i]},{names[j]}}} = {show(br)}, the table says {show(t)}"

    def graded(i, j):
        f, g = gens[i], gens[j]
        if gen_bracket(i, j).dim != p.bracket_slice(f.dim, g.dim):
            return f"dim({{f,g}}) != b+dim(f)+dim(g) at {show(f)}, {show(g)}"
        expect = tuple(q + x + y for q, x, y in zip(p.product_dim, f.dim, g.dim))
        if gen_product(i, j).dim != expect:
            return f"dim(f*g) != p+dim(f)+dim(g) at {show(f)}, {show(g)}"

    pairs = list(itertools.combinations_with_replacement(range(len(names)), 2))
    rep.law("bracket extends the table on generator pairs",
            itertools.permutations(range(len(names)), 2), extends)
    _jacobi_and_casimir(p, rep)
    rep.law("dimension projections of both products", pairs, graded)
    rep.law("product commutative on generator pairs", pairs,
            lambda i, j: not ring.eq(gen_product(i, j), gen_product(j, i))
            and f"product not commutative at {show(gens[i])}, {show(gens[j])}")
    rep.law("product associative on generator triples",
            itertools.combinations_with_replacement(range(len(names)), 3),
            lambda i, j, k: not ring.eq(p.product(gen_product(i, j), gens[k]),
                                        p.product(gens[i], gen_product(j, k)))
            and f"product not associative at {show(gens[i])}, {show(gens[j])}, {show(gens[k])}")
    return rep


# ---------------------------------------------------------------------------
# Coisotropes and reduction
# ---------------------------------------------------------------------------


def _outside(p: DimPoisson, ideal, f, g):
    """The witness that {f, g} is outside `ideal`, or None."""
    if not ideal.contains(br := p.bracket(f, g)):
        show = p.ring.show
        return f"{{{show(f)},{show(g)}}} = {show(br)} is outside the ideal"


def coisotrope_check(p: DimPoisson, ideal_gens, rng=None) -> CheckReport:
    """Is the monomial constraint ideal I = (m_1, ..., m_k) a coisotrope:
    an ideal for the product and a Lie subalgebra for the bracket.

    Decided on generators.  A monomial ideal absorbs any product, which
    the first law confirms on 1 and each generator times each m_a.  Every
    element of I is a sum of f*m_a, and
    {f*m_a, g*m_b} = f*g{m_a,m_b} + f*m_b{m_a,g} + g*m_a{f,m_b} + m_a*m_b{f,g}
    has every term but the first in I, so the bracket closes on I iff it
    closes on generator pairs (the second law).  The third law checks the
    one-sided case {x*m_a, m_b} for x in 1 and the generators.  `rng` is
    unused: no law is probed.
    """
    ring = p.ring
    ideal = ring.monomial_ideal(ideal_gens)
    rep = CheckReport(f"coisotrope candidate ({', '.join(map(str, ideal_gens))})")
    gens, show = ideal.generators, ring.show
    units = [ring.one] + [ring.generator(n) for n in ring.gen_names]

    rep.law("ideal for the product", itertools.product(units, gens),
            lambda f, g: not ideal.contains(p.product(f, g))
            and f"product leaks: {show(f)}*{show(g)} left the ideal")
    rep.law("bracket closes on generator pairs", itertools.product(gens, repeat=2),
            lambda f, g: _outside(p, ideal, f, g))
    rep.law("bracket closes on generator multiples of ideal generators",
            itertools.product(units, gens, gens),
            lambda x, g1, g2: _outside(p, ideal, ring.mul(x, g1), g2))
    return rep


class ReducedPoisson:
    """The subquotient N(I)/I presented degree-by-degree up to a cutoff.

    N(I) is the largest subspace whose bracket against the ideal stays in
    the ideal; membership is decided by bracketing with the ideal
    generators.  Representatives are ideal normal forms; operations
    compute upstairs, reduce, and truncate at the cutoff.

    A parent that is not Poisson is refused with ConstructionError: its
    table laws (1, 2), Jacobi (4) and Casimir scale (5) are decided as
    `poisson_axiom_report` decides them.  Law 3 holds by the bracket's
    definition and laws 6-8 by the polynomial product, so these are all
    the premise of the reduction needs.
    """

    def __init__(self, parent: DimPoisson, ideal_gens, cutoff: int):
        if cutoff < 1:
            raise CarrierError("cutoff must be >= 1")
        premise = CheckReport("parent")
        if _table_laws(parent, premise):
            _jacobi_and_casimir(parent, premise)
        if not premise.ok:
            raise ConstructionError(f"parent is not Poisson: {premise.failures[0].line()}")
        co = coisotrope_check(parent, ideal_gens)
        if not co.ok:
            raise ConstructionError(f"not a coisotrope: {co.failures[0].witness}")
        self.parent = parent
        self.ring = parent.ring
        self.ideal = self.ring.monomial_ideal(ideal_gens)
        self.cutoff = cutoff
        self.basis = self._compute_basis()

    def _compute_basis(self):
        """Per degree, solve the linear conditions cutting N(I) out of the
        span of non-ideal monomials; representatives modulo I.

        Each condition row is read off the parent's column index: for an
        ideal generator m, {x_u, m} is read once for every u
        (`_at_generators`), and the bracket of a column monomial x^a with
        it is `leibniz`(x^a, {x_u, m}), the sum over u of
        a_u x^(a - e_u) {x_u, m}; the terms no ideal generator divides
        give one row per (m, residual monomial).  Each row is that of the
        normal forms of the brackets times one nonzero factor, the table's
        denominator over m's coefficient, so the rows have the same
        reduced echelon form and the same nullspace.  Rows stay sparse,
        {column: integer}, as they are collected: `nullspace` eliminates on their nonzero
        entries alone and returns each vector as its nonzero entries, which
        in column order are the basis vector's terms in lexicographic order.
        Two kinds of block need no elimination: one with no condition keeps
        each of its monomials, in column order, as `nullspace` would return
        them, and one column with a condition (whose entries are nonzero)
        has rank 1 and keeps nothing.  One `divisible_by` test, built from
        the ideal's exponents, decides which monomials and residual terms
        lie in I.  Index exponent tuples and nullspace terms are valid by
        construction, so basis vectors are built trusted."""
        ring, parent = self.ring, self.parent
        basis, one = [], Fraction(1)
        gens = self.ideal.generators
        divisible = ring.divisible_by(g.value[0][0] for g in gens)
        at_ideal = [parent._at_generators(((g.value[0][0], 1),)) for g in gens]
        # exact-degree, non-ideal monomials per (degree, dimension), each
        # group in lexicographic order
        by_degree: dict = {}
        for dim, alphas in ring.monomial_index(self.cutoff).items():
            for alpha in alphas:
                if not divisible(alpha):
                    by_degree.setdefault(sum(alpha), {}).setdefault(dim, []).append(alpha)
        for deg in range(0, self.cutoff + 1):
            for dim, monos in sorted(by_degree.get(deg, {}).items()):
                # rows: one linear condition per (ideal generator, residual monomial)
                conditions: dict = {}
                for col, alpha in enumerate(monos):
                    for k, rows in enumerate(at_ideal):
                        for beta, n in leibniz(((alpha, 1),), rows).items():
                            if n and not divisible(beta):
                                conditions.setdefault((k, beta), {})[col] = n
                if not conditions:  # every monomial is free, in column order
                    basis += [DimElement(((alpha, one),), dim) for alpha in monos]
                elif len(monos) > 1:  # one column with a nonzero condition has none
                    basis += [DimElement(tuple((monos[c], x) for c, x in sorted(vec.items())), dim)
                              for vec in nullspace(list(conditions.values()), len(monos))]
        return tuple(basis)

    # -- the reduced structure ------------------------------------------------
    def product(self, f, g):
        return self.ring.truncate(self.ideal.normal_form(self.parent.product(f, g)), self.cutoff)

    def bracket(self, f, g):
        return self.ring.truncate(self.ideal.normal_form(self.parent.bracket(f, g)), self.cutoff)

    def axiom_report(self, rng=None) -> CheckReport:
        """The reduced structure, decided on finitely many cases.

        A reduction is built only when the parent is Poisson and I is a
        coisotrope, both decided on generators.  Then N(I) is a Poisson
        subalgebra, I a Poisson ideal in it, and N(I)/I is Poisson
        (Śniatycki & Weinstein, *Lett. Math. Phys.* 7, 1983).  What is
        left is that the code computes that quotient:
        - every basis vector b lies in N(I): {b, m} is in I for every
          ideal generator m, decided on the computed basis;
        - the reduced product and bracket are normal forms of degree
          <= cutoff: each is truncate ∘ normal_form ∘ the parent's;
        - both vanish on I: x*g*scale lies in I for x in I, and by
          Leibniz {x^γ m, g} = x^γ{m, g} + m{x^γ, g}, where {m, g} =
          -{g, m} lies in I by the first law.
        The last two hold by construction, so they run as guards against
        an override of either operation, on cases sized by the generators,
        not the cutoff: unordered pairs of basis vectors of degree <= 1,
        and (m*y, g) for m an ideal generator, y in 1 and the generators,
        and g such a basis vector.  `rng` is unused: no law is probed.
        """
        ring, ideal, show, cutoff = self.ring, self.ideal, self.ring.show, self.cutoff
        rep = CheckReport(f"reduced Poisson (cutoff {cutoff})")
        lowdeg = [b for b in self.basis if ring.degree(b) <= 1]
        units = [ring.one] + [ring.generator(n) for n in ring.gen_names]
        ops = (("product", self.product), ("bracket", self.bracket))

        def normal_forms(f, g):
            for name, op in ops:
                r = op(f, g)
                if ring.degree(r) > cutoff or not ring.eq(ideal.normal_form(r), r):
                    return f"{name} of {show(f)}, {show(g)} is {show(r)}, no normal form"

        def vanishes(x, g):
            for name, op in ops:
                if not ring.is_zero(r := op(x, g)):
                    return f"{name} of {show(x)}, {show(g)} is {show(r)}, not 0"

        rep.law("basis lies in N(I): {b, m} in I for every ideal generator m",
                itertools.product(self.basis, ideal.generators),
                lambda b, m: _outside(self.parent, ideal, b, m))
        rep.law("product and bracket of low-degree basis pairs are normal forms",
                itertools.combinations_with_replacement(lowdeg, 2), normal_forms)
        rep.law("product and bracket vanish on I at low degree", itertools.product(
            [ring.mul(m, y) for m in ideal.generators for y in units], lowdeg), vanishes)
        return rep


def poisson_reduce(p: DimPoisson, ideal_gens, cutoff: int, rng=None) -> ReducedPoisson:
    """The reduction of `p` by a coisotrope, up to `cutoff`; `rng` is
    unused: the coisotrope check and the reduced report are decided."""
    return ReducedPoisson(p, ideal_gens, cutoff)


# ---------------------------------------------------------------------------
# Products of dimensioned Poisson algebras
# ---------------------------------------------------------------------------


def _embed(ring: GradedPolyRing, offset: int, pad, el: DimElement) -> DimElement:
    terms = {}
    for alpha, c in el.value:
        beta = [0] * ring.nvars
        for i, e in enumerate(alpha):
            beta[offset + i] = e
        terms[tuple(beta)] = c
    dim = pad(el.dim)
    return ring.poly(terms, dim=dim) if terms else ring.zero(dim)


def _product(a: DimPoisson, b: DimPoisson, pad_a, pad_b, bracket_dim) -> DimPoisson:
    """The product on the combined ring, whose generators' dimensions are
    the factors' through `pad_a` and `pad_b`: an A-pair brackets to
    {x,y}_A tensor the B-scale, a B-pair to the A-scale tensor {u,v}_B,
    cross pairs vanish, and the scale is the product of the scales."""
    names = a.ring.gen_names + b.ring.gen_names
    if len(set(names)) != len(names):
        raise CarrierError("factor algebras must use distinct generator names")
    dims = [pad_a(d) for d in a.ring.gen_dims] + [pad_b(d) for d in b.ring.gen_dims]
    ring = GradedPolyRing(names, dims, label=f"{a.ring.label}(x){b.ring.label}")
    ea = lambda el: _embed(ring, 0, pad_a, el)
    eb = lambda el: _embed(ring, a.ring.nvars, pad_b, el)
    sa, sb = ea(a.scale), eb(b.scale)
    table = {}
    for x, y in itertools.permutations(a.ring.gen_names, 2):
        table[(x, y)] = ring.mul(ea(a.table[(x, y)]), sb)
    for u, v in itertools.permutations(b.ring.gen_names, 2):
        table[(u, v)] = ring.mul(sa, eb(b.table[(u, v)]))
    return make_poisson(ring, table, bracket_dim=bracket_dim, scale=ring.mul(sa, sb))


def poisson_product_hetero(a: DimPoisson, b: DimPoisson) -> DimPoisson:
    """Product of two algebras whose bracket and product dimensions agree
    factor-wise; the result lives over the product dimension group."""
    if a.product_dim != a.bracket_dim:
        raise ConstructionError(
            f"left factor has product dim {a.product_dim} != bracket dim {a.bracket_dim}"
        )
    if b.product_dim != b.bracket_dim:
        raise ConstructionError(
            f"right factor has product dim {b.product_dim} != bracket dim {b.bracket_dim}"
        )
    ka, kb = a.ring.rank, b.ring.rank
    return _product(
        a, b, lambda d: d + (0,) * kb, lambda d: (0,) * ka + d,
        a.bracket_dim + b.bracket_dim,
    )


def poisson_product_homo(a: DimPoisson, b: DimPoisson) -> DimPoisson:
    """Product of two algebras over one dimension group, subject to the
    compatibility b+q = p+c between bracket and product dimensions."""
    if a.ring.rank != b.ring.rank:
        raise ConstructionError("homogeneous product needs one dimension group")
    zero = (0,) * a.ring.rank
    lhs = a.bracket_slice(b.product_dim, zero)
    rhs = b.bracket_slice(a.product_dim, zero)
    if lhs != rhs:
        raise ConstructionError(
            f"dimension condition fails: b+q = {lhs} but p+c = {rhs}"
        )
    same = lambda d: d
    return _product(a, b, same, same, lhs)
