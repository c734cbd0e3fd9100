"""An independent oracle for `dimalg check`.

`table_verdict` decides a structure document by brute force over its raw
JSON tables, every law on every case, and imports nothing from `dimalg`.
Its verdict must equal `check_structure`'s exit code on every shipped
structure, on a table whose defect lies beyond the first cases of each
law, and on fixed-seed product tables, clean and with one-cell defects.
"""

import copy
import json
import random
from itertools import product
from pathlib import Path

import pytest

from conftest import product_table
from dimalg import check_structure

TESTS = Path(__file__).parent
STRUCTURES = sorted((TESTS.parent / "data" / "structures").glob("*.json")) + [
    TESTS / "data" / name
    for name in ("broken_absorbency.json", "broken_associativity.json", "zero_slice_no_unit.json")
]


def table_verdict(doc: dict) -> int:
    """0 when the tables form a dimensioned ring whose unit candidate, if
    declared, is a unit section; 1 otherwise. The document must be well
    formed: names declared and tables total."""
    dims, e, op = doc["monoid"]["elements"], doc["monoid"]["identity"], doc["monoid"]["op"]
    slices, add, mul, one = doc["slices"], doc["add"], doc["mul"], doc["one"]
    dim = {x: d for d, xs in slices.items() for x in xs}
    elems, zero = list(dim), {}
    for d, xs in slices.items():
        t = add[d]
        if any(dim[t[a][b]] != d for a in xs for b in xs):
            return 1
        zs = [z for z in xs if all(t[z][x] == x == t[x][z] for x in xs)]
        if not zs:
            return 1
        zero[d] = z = zs[0]
        if not (all(z in t[a].values() for a in xs)
                and all(t[a][b] == t[b][a] for a, b in product(xs, repeat=2))
                and all(t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in product(xs, repeat=3))):
            return 1

    def s(a, b):  # a + b, or None when b lies outside a's slice
        return add[dim[a]][a].get(b)

    def m(a, b):
        return mul[a][b]

    laws = [
        all(op[op[x][y]][w] == op[x][op[y][w]] for x, y, w in product(dims, repeat=3)),
        all(op[e][x] == x == op[x][e] for x in dims),
        all(dim[m(a, b)] == op[dim[a]][dim[b]] for a, b in product(elems, repeat=2)),
        all(m(s(a, b), c) == s(m(a, c), m(b, c)) and m(c, s(a, b)) == s(m(c, a), m(c, b))
            for a, b, c in product(elems, repeat=3) if dim[a] == dim[b]),
        all(m(zero[d], a) == zero[op[d][dim[a]]] and m(a, zero[d]) == zero[op[dim[a]][d]]
            for d, a in product(dims, elems)),
        all(m(one, a) == a == m(a, one) for a in elems),
        all(m(m(a, b), c) == m(a, m(b, c)) for a, b, c in product(elems, repeat=3)),
        not doc.get("commutative", True)
        or all(m(a, b) == m(b, a) for a, b in product(elems, repeat=2)),
    ]
    u = doc.get("unit_candidate")
    if u is not None:
        laws.append(all(dim[u[d]] == d and u[d] != zero[d] for d in dims)
                    and all(u[op[d][f]] == m(u[d], u[f]) for d, f in product(dims, repeat=2)))
    return 0 if all(laws) else 1


def one_cell_defect(doc: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a product table with one table cell (or one symmetric pair
    of product cells) changed to another element."""
    out = copy.deepcopy(doc)
    slices = out["slices"]
    dim = {x: d for d, xs in slices.items() for x in xs}
    if kind == "monoid_cell":
        row = out["monoid"]["op"][rng.choice(list(slices))]
        f = rng.choice(list(row))
        row[f] = rng.choice([d for d in slices if d != row[f]])
    elif kind == "add_cell":
        d = rng.choice(list(slices))
        row = out["add"][d][rng.choice(slices[d])]
        b = rng.choice(slices[d])
        row[b] = rng.choice([z for z in slices[d] if z != row[b]])
    else:
        x, y = rng.choice(list(dim)), rng.choice(list(dim))
        true = out["mul"][x][y]
        if kind == "mul_cell_other_slice":
            out["mul"][x][y] = rng.choice([z for z in dim if dim[z] != dim[true]])
        else:
            new = rng.choice([z for z in slices[dim[true]] if z != true])
            out["mul"][x][y] = new
            if kind == "mul_pair":
                out["mul"][y][x] = new
    return out


@pytest.mark.parametrize("path", STRUCTURES, ids=lambda p: p.name)
def test_oracle_agrees_on_every_shipped_structure(path):
    assert table_verdict(json.loads(path.read_text())) == check_structure(path)[0]


def test_oracle_agrees_on_a_defect_beyond_the_first_cases(defect_beyond_caps):
    assert table_verdict(defect_beyond_caps) == check_structure(defect_beyond_caps)[0] == 1


SIZES = ((2, 3), (3, 2), (4, 4), (6, 2), (7, 3))
DEFECTS = ("mul_cell_same_slice", "mul_pair", "add_cell", "monoid_cell", "mul_cell_other_slice")


@pytest.mark.parametrize("n,m", SIZES)
def test_oracle_agrees_on_product_tables(n, m):
    rng = random.Random(1000 * n + m)
    clean = product_table(n, m, rng)
    assert table_verdict(clean) == check_structure(clean)[0] == 0
    for kind in DEFECTS:
        doc = one_cell_defect(clean, kind, rng)
        assert table_verdict(doc) == check_structure(doc)[0], kind
