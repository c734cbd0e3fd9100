"""The Jacobi and coisotrope verdicts on a whole space of tables, against sympy.

The space is every antisymmetric table on three dimensionless generators
x, y, z whose entries {x,y}, {y,z} and {z,x} lie in {0, ±1, ±x, ±y, ±z}:
9³ = 729 tables, 281 of them Poisson.  For each, the axiom report's
`Jacobi on generator triples` verdict must match the Jacobiator that
sympy computes from the table alone, the component form of [π, π] = 0:
the sum over the cyclic orders (i, j, k) of (x, y, z) of
Σ_l π^{il}·∂_l π^{jk}.

On the same tables `coisotrope_check` is decided for nine monomial
ideals: each generated by a nonempty subset of {x, y, z}, (x^2, y) and
(x*y, z).  Its verdict must match one sympy computes from the table
alone: the ideal is a coisotrope iff every term of {m_a, m_b} and of
{x_i*m_a, m_b}, for ideal generators m_a, m_b and generators x_i, is
divisible by an ideal generator, the bracket formed as the sum over
i != j of d_i F * d_j G * pi^{ij}.

Tier-1 runs every tenth table, a slice in which each entry takes all nine
values.  Run as a script, the module sweeps all 729 and exits 1 on a
mismatch, on a Jacobi pass count other than 281, or on a coisotrope count
other than 4 375 of the 6 561 (table, ideal) pairs:

    PYTHONPATH=src python tests/test_jacobi_space.py
"""

import itertools
import sys

import pytest

sympy = pytest.importorskip("sympy")

from dimalg import GradedPolyRing, coisotrope_check, make_poisson, poisson_axiom_report
from dimalg.structure import parse_poly

NAMES = ("x", "y", "z")
PAIRS = (("x", "y"), ("y", "z"), ("z", "x"))  # also the cyclic orders of (x, y, z)
VALUES = ("0", "1", "-1", "x", "-x", "y", "-y", "z", "-z")
TABLES = tuple(itertools.product(VALUES, repeat=len(PAIRS)))
JACOBI = "Jacobi on generator triples"
RING = GradedPolyRing(NAMES, [(0,)] * len(NAMES))
SYMBOLS = dict(zip(NAMES, sympy.symbols(NAMES)))
IDEALS = tuple(itertools.chain(*(itertools.combinations(NAMES, k) for k in (1, 2, 3)),
                               (("x^2", "y"), ("x*y", "z"))))
RING_IDEALS = tuple([parse_poly(RING, m) for m in ideal] for ideal in IDEALS)
SRING = sympy.ring(",".join(NAMES), sympy.ZZ)[0]
SPOLY = {text: SRING.from_expr(sympy.sympify(text, locals=SYMBOLS))
         for text in VALUES + tuple(m for ideal in IDEALS for m in ideal)}


def sympy_jacobi(entries) -> bool:
    """Whether the Jacobiator of the table is zero, computed by sympy."""
    pi = {(n, n): sympy.Integer(0) for n in NAMES}
    for (a, b), text in zip(PAIRS, entries):
        pi[a, b] = sympy.sympify(text, locals=SYMBOLS)
        pi[b, a] = -pi[a, b]
    jacobiator = sum(pi[i, l] * sympy.diff(pi[j, k], SYMBOLS[l])
                     for i, (j, k) in zip(NAMES, (("y", "z"), ("z", "x"), ("x", "y")))
                     for l in NAMES)
    return sympy.expand(jacobiator) == 0


def report_jacobi(entries) -> bool:
    """The axiom report's Jacobi verdict on the table."""
    table = {pair: parse_poly(RING, text) for pair, text in zip(PAIRS, entries)}
    rep = poisson_axiom_report(make_poisson(RING, table, validate=False))
    return {r.law: r.passed for r in rep.results}[JACOBI]


def sweep(tables):
    """The tables whose verdicts differ, and how many pass Jacobi."""
    mismatches, passed = [], 0
    for entries in tables:
        verdict = sympy_jacobi(entries)
        passed += verdict
        if report_jacobi(entries) != verdict:
            mismatches.append(entries)
    return mismatches, passed


def sympy_coisotropes(entries) -> tuple:
    """Whether each ideal of IDEALS is a coisotrope of the table, decided
    by sympy's sparse polynomials from the table alone."""
    xs, pi = SRING.gens, {}
    for (a, b), text in zip(PAIRS, entries):
        i, j = NAMES.index(a), NAMES.index(b)
        pi[i, j], pi[j, i] = SPOLY[text], -SPOLY[text]
    brackets: dict = {}  # (F, G) -> {F, G}, shared by the ideals

    def bracket(f, g):
        if (f, g) not in brackets:
            brackets[f, g] = sum((f.diff(xs[i]) * g.diff(xs[j]) * c for (i, j), c in pi.items()),
                                 SRING.zero)
        return brackets[f, g]

    verdicts = []
    for ideal in IDEALS:
        ms = [SPOLY[m] for m in ideal]
        exps = [m.monoms()[0] for m in ms]
        cases = [(ma, mb) for ma in ms for mb in ms]
        cases += [(x * ma, mb) for x in xs for ma in ms for mb in ms]
        verdicts.append(all(any(all(map(int.__ge__, beta, e)) for e in exps)
                            for f, g in cases for beta in bracket(f, g).itermonoms()))
    return tuple(verdicts)


def report_coisotropes(entries) -> tuple:
    """`coisotrope_check`'s verdict on each ideal of IDEALS."""
    table = {pair: parse_poly(RING, text) for pair, text in zip(PAIRS, entries)}
    p = make_poisson(RING, table, validate=False)
    return tuple(coisotrope_check(p, ideal).ok for ideal in RING_IDEALS)


def coisotrope_sweep(tables):
    """The (table, ideal) pairs whose coisotrope verdicts differ, and how
    many pairs are coisotropes."""
    mismatches, coisotropes = [], 0
    for entries in tables:
        want = sympy_coisotropes(entries)
        coisotropes += sum(want)
        mismatches += [(entries, ideal) for ideal, ours, verdict
                       in zip(IDEALS, report_coisotropes(entries), want) if ours != verdict]
    return mismatches, coisotropes


def test_every_tenth_table_agrees_with_sympy():
    mismatches, passed = sweep(TABLES[::10])
    assert mismatches == []
    assert (len(TABLES[::10]), passed) == (73, 34)


def test_every_tenth_table_s_coisotropes_agree_with_sympy():
    mismatches, coisotropes = coisotrope_sweep(TABLES[::10])
    assert mismatches == []
    assert (len(TABLES[::10]) * len(IDEALS), coisotropes) == (657, 440)


if __name__ == "__main__":
    mismatches, passed = sweep(TABLES)
    print(f"{len(TABLES)} tables, {passed} pass Jacobi, {len(mismatches)} mismatches")
    for entries in mismatches:
        print("  mismatch at", dict(zip(PAIRS, entries)))
    co_mismatches, coisotropes = coisotrope_sweep(TABLES)
    print(f"{len(TABLES) * len(IDEALS)} (table, ideal) pairs, {coisotropes} coisotropes, "
          f"{len(co_mismatches)} mismatches")
    for entries, ideal in co_mismatches:
        print("  mismatch at", dict(zip(PAIRS, entries)), "ideal", ideal)
    sys.exit(1 if mismatches or passed != 281 or co_mismatches or coisotropes != 4375 else 0)
