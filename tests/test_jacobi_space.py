"""The Jacobi verdict on a whole space of tables, against sympy.

The space is every antisymmetric table on three dimensionless generators
x, y, z whose entries {x,y}, {y,z} and {z,x} lie in {0, ±1, ±x, ±y, ±z}:
9³ = 729 tables, 281 of them Poisson.  For each, the axiom report's
`Jacobi on generator triples` verdict must match the Jacobiator that
sympy computes from the table alone, the component form of [π, π] = 0:
the sum over the cyclic orders (i, j, k) of (x, y, z) of
Σ_l π^{il}·∂_l π^{jk}.

Tier-1 runs every tenth table, a slice in which each entry takes all nine
values.  Run as a script, the module sweeps all 729 and exits 1 on a
mismatch or on a pass count other than 281:

    PYTHONPATH=src python tests/test_jacobi_space.py
"""

import itertools
import sys

import pytest

sympy = pytest.importorskip("sympy")

from dimalg import GradedPolyRing, make_poisson, poisson_axiom_report
from dimalg.structure import parse_poly

NAMES = ("x", "y", "z")
PAIRS = (("x", "y"), ("y", "z"), ("z", "x"))  # also the cyclic orders of (x, y, z)
VALUES = ("0", "1", "-1", "x", "-x", "y", "-y", "z", "-z")
TABLES = tuple(itertools.product(VALUES, repeat=len(PAIRS)))
JACOBI = "Jacobi on generator triples"
RING = GradedPolyRing(NAMES, [(0,)] * len(NAMES))
SYMBOLS = dict(zip(NAMES, sympy.symbols(NAMES)))


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


def test_every_tenth_table_agrees_with_sympy():
    mismatches, passed = sweep(TABLES[::10])
    assert mismatches == []
    assert (len(TABLES[::10]), passed) == (73, 34)


if __name__ == "__main__":
    mismatches, passed = sweep(TABLES)
    print(f"{len(TABLES)} tables, {passed} pass Jacobi, {len(mismatches)} mismatches")
    for entries in mismatches:
        print("  mismatch at", dict(zip(PAIRS, entries)))
    sys.exit(1 if mismatches or passed != 281 else 0)
