"""An independent oracle for `dimalg check`.

`table_laws` decides each law of a structure document by brute force over
its raw JSON tables, every law on every case, and imports nothing from
`dimalg`; `table_verdict` folds those verdicts into an exit code. Both
must agree with `check_structure`, the exit code and the law named by
each FAIL line, on every shipped structure, on a table whose defect lies
beyond the first cases of each law, on fixed-seed product tables, clean
and with one-cell defects, shuffled or with each slice's zero listed
first, on a table whose defect is at the ring's 1, on tables that break
associativity or commutativity alone, and on tables that break
distributivity or slice-addition associativity alone, where the first
additive generator of the slice passes, and on twisted products of
Z/3 x Z/3, each distributive, graded and zero-absorbing, that hold or
break associativity, commutativity and unitality.
"""

import copy
import json
import random
from itertools import product
from pathlib import Path

import pytest

from conftest import product_table
from dimalg import check_structure, load_structure
from dimalg.ring import generating_set

TESTS = Path(__file__).parent
STRUCTURES = sorted((TESTS.parent / "data" / "structures").glob("*.json")) + [
    TESTS / "data" / name
    for name in ("broken_absorbency.json", "broken_associativity.json", "zero_slice_no_unit.json")
]


def table_laws(doc: dict) -> dict:
    """Whether the tables hold each law of `dimalg check`, by the name of
    its report line: {law: holds} for the slice-group laws and, when they
    all hold (else the report stops after them), for the ring laws and,
    when a unit candidate is declared, its three laws. As in the report,
    inverses and commutativity are laws of the slices with an identity,
    and associativity of those that are also closed. The document must be
    well formed: names declared and tables total."""
    dims, e, op = doc["monoid"]["elements"], doc["monoid"]["identity"], doc["monoid"]["op"]
    slices, add, mul, one = doc["slices"], doc["add"], doc["mul"], doc["one"]
    dim = {x: d for d, xs in slices.items() for x in xs}
    elems, zero = list(dim), {}
    groups = dict.fromkeys(("slices closed under addition", "additive identities exist",
                            "additive inverses exist", "addition associative",
                            "addition commutative"), True)
    for d, xs in slices.items():
        t = add[d]
        closed = all(dim[t[a][b]] == d for a, b in product(xs, repeat=2))
        zs = [z for z in xs if all(t[z][x] == x == t[x][z] for x in xs)]
        groups["slices closed under addition"] &= closed
        groups["additive identities exist"] &= bool(zs)
        if zs:
            zero[d] = z = zs[0]
            groups["additive inverses exist"] &= all(z in t[a].values() for a in xs)
            groups["addition associative"] &= not closed or all(
                t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in product(xs, repeat=3))
            groups["addition commutative"] &= all(
                t[a][b] == t[b][a] for a, b in product(xs, repeat=2))
    if not all(groups.values()):
        return groups

    def s(a, b):  # a + b, or None when b lies outside a's slice
        return add[dim[a]][a].get(b)

    def m(a, b):
        return mul[a][b]

    laws = {
        **groups,
        "dimension monoid: associativity":
            all(op[op[x][y]][w] == op[x][op[y][w]] for x, y, w in product(dims, repeat=3)),
        "dimension monoid: identity": all(op[e][x] == x == op[x][e] for x in dims),
        "projection is a monoid morphism":
            all(dim[m(a, b)] == op[dim[a]][dim[b]] for a, b in product(elems, repeat=2)),
        "distributivity where defined":
            all(m(s(a, b), c) == s(m(a, c), m(b, c)) and m(c, s(a, b)) == s(m(c, a), m(c, b))
                for a, b, c in product(elems, repeat=3) if dim[a] == dim[b]),
        "zero family is absorbent":
            all(m(zero[d], a) == zero[op[d][dim[a]]] and m(a, zero[d]) == zero[op[dim[a]][d]]
                for d, a in product(dims, elems)),
        "unitality": all(m(one, a) == a == m(a, one) for a in elems),
        "multiplicative associativity":
            all(m(m(a, b), c) == m(a, m(b, c)) for a, b, c in product(elems, repeat=3)),
        "commutativity": not doc.get("commutative", True)
            or all(m(a, b) == m(b, a) for a, b in product(elems, repeat=2)),
    }
    u = doc.get("unit_candidate")
    if u is not None:
        laws["splits the projection"] = all(dim[u[d]] == d for d in dims)
        laws["nowhere zero"] = all(u[d] != zero[dim[u[d]]] for d in dims)
        laws["multiplicative on probed pairs"] = all(
            u[op[d][f]] == m(u[d], u[f]) for d, f in product(dims, repeat=2))
    return laws


def table_verdict(doc: dict) -> int:
    """0 when the tables form a dimensioned ring whose unit candidate, if
    declared, is a unit section; 1 otherwise."""
    return 0 if all(table_laws(doc).values()) else 1


def assert_oracle_agrees(doc) -> int:
    """`check_structure` gives the oracle's verdict, and its FAIL lines
    name exactly the laws the oracle finds broken. Returns the verdict."""
    code, lines = check_structure(doc)
    laws = table_laws(doc)
    assert code == table_verdict(doc)
    fails = [line for line in lines if line.startswith("FAIL  ")]
    named = {n for n in laws if any(f.startswith(f"FAIL  {n}: ") for f in fails)}
    assert named == {n for n, holds in laws.items() if not holds}
    assert len(fails) == len(named), fails
    return code


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
    assert_oracle_agrees(json.loads(path.read_text()))


def test_oracle_agrees_on_a_defect_beyond_the_first_cases(defect_beyond_caps):
    assert assert_oracle_agrees(defect_beyond_caps) == 1


SIZES = ((2, 3), (3, 2), (4, 4), (6, 2), (7, 3))
DEFECTS = ("mul_cell_same_slice", "mul_pair", "add_cell", "monoid_cell", "mul_cell_other_slice")


@pytest.mark.parametrize("n,m", SIZES)
def test_oracle_agrees_on_product_tables(n, m):
    rng = random.Random(1000 * n + m)
    clean = product_table(n, m, rng)
    assert assert_oracle_agrees(clean) == 0
    for kind in DEFECTS:
        assert_oracle_agrees(one_cell_defect(clean, kind, rng))


def f2_algebra(basis, times, order, commutative=True) -> dict:
    """The unital F2-algebra on `basis`, its first element the unit, in one
    dimension: `times(i, j)` is the index of the product of basis elements
    i and j (neither the unit), or None for 0, and the product extends
    bilinearly, so it is distributive. The slice lists the vectors sorted
    by `order`."""

    def name(v):
        return "+".join(x for x, c in zip(basis, v) if c) or "0"

    def mul(x, y):
        out = [0] * len(basis)
        for i, j in product(range(len(basis)), repeat=2):
            k = i + j if 0 in (i, j) else times(i, j)  # the unit's index is 0
            if x[i] and y[j] and k is not None:
                out[k] ^= 1
        return tuple(out)

    vs = sorted(product((0, 1), repeat=len(basis)), key=order)
    return {
        "name": f"F2<{','.join(basis)}>",
        "commutative": commutative,
        "monoid": {"elements": ["d"], "identity": "d", "op": {"d": {"d": "d"}}},
        "slices": {"d": [name(v) for v in vs]},
        "add": {"d": {name(x): {name(y): name(tuple((p + q) % 2 for p, q in zip(x, y)))
                                for y in vs} for x in vs}},
        "mul": {name(x): {name(y): name(mul(x, y)) for y in vs} for x in vs},
        "one": basis[0],
        "unit_candidate": {"d": basis[0]},
    }


def nonassociative_table() -> dict:
    """The commutative F2-algebra on the basis 1, a, b with a·a = b·b = 0
    and a·b = b·a = a: (a·b)·b = a while a·(b·b) = 0. The slice lists 0
    first, and (x·0)·y = x·(0·y) for every x and y, so associativity tried
    on the first element alone would hold."""
    return f2_algebra(("1", "a", "b"), lambda i, j: 1 if {i, j} == {1, 2} else None,
                      order=lambda v: (sum(v), v[::-1]))


def late_nonassociative_table() -> dict:
    """The F2-algebra on the basis 1, b, e1, e2, a whose only nonzero
    product of non-unit basis elements is a·b = a; it is not commutative.
    Its associator vanishes unless a appears in the outermost factor,
    as in (a·b)·b = a, a·(b·b) = 0. The 32 elements are listed with the 16
    free of a first, so Light's test, a outermost, would meet its first
    failing case at number 8 771, beyond a cap of 6 000; the table is
    distributive, so the report decides it on its 5 additive generators."""
    return f2_algebra(("1", "b", "e1", "e2", "a"), lambda i, j: 4 if (i, j) == (4, 1) else None,
                      order=lambda v: v[::-1], commutative=False)


def test_oracle_names_associativity_as_the_only_law_a_table_breaks():
    """Every one-cell product defect above also breaks distributivity; this
    table breaks associativity alone."""
    doc = nonassociative_table()
    assert [n for n, holds in table_laws(doc).items() if not holds] == [
        "multiplicative associativity"]
    assert assert_oracle_agrees(doc) == 1


def test_oracle_finds_an_associativity_defect_beyond_6000_cases():
    """Every law holds but associativity, and Light's test would reach the
    first failing triple only after 6 000 cases."""
    doc = late_nonassociative_table()
    assert [n for n, holds in table_laws(doc).items() if not holds] == [
        "multiplicative associativity"]
    assert assert_oracle_agrees(doc) == 1


def noncommutative_table() -> dict:
    """The upper-triangular F2-algebra on the basis 1, e, n with e·e = e,
    e·n = n and n·e = n·n = 0, declared commutative: e·n = n while
    n·e = 0. It is associative (e, n and 1+e are the matrix units E11,
    E12 and E22) and distributive, so commutativity is the only law it
    breaks. The slice lists 1 first, so the first additive generator
    commutes with every element, and a check on it alone would pass."""
    return f2_algebra(("1", "e", "n"), lambda i, j: {(1, 1): 1, (1, 2): 2}.get((i, j)),
                      order=lambda v: (v != (1, 0, 0), v))


def test_oracle_names_commutativity_as_the_only_law_a_table_breaks():
    """The report decides commutativity on the additive generators of a
    distributive table; this table takes that path and fails there."""
    doc = noncommutative_table()
    assert [n for n, holds in table_laws(doc).items() if not holds] == ["commutativity"]
    assert assert_oracle_agrees(doc) == 1
    _, lines = check_structure(doc)
    assert "FAIL  commutativity: ab != ba at n,e" in lines


def late_nondistributive_table() -> dict:
    """F2[e, x]/(e·e = e, e·x = 0, x³ = 0), 16 elements, its product
    carried across the involution σ that swaps 1+x with 1+e+x+x2 and
    1+e+x with 1+x+x2: a·b becomes σ(σ(a)·σ(b)). σ fixes 0 and 1, so the
    new product is still associative, commutative and unital with 0
    absorbent; σ is not additive, so distributivity fails, and it fails
    alone. σ commutes with adding e, so (a+e)c = ac+ec for every a and c:
    e, listed first, is the first of four additive generators, and a check
    on that generator alone would pass. The subgroup <e, x2>, on which
    every x ↦ x·c is additive, leads the list, so the first failing
    (a, b) pair is (x, 1): the fifth element and the fourth generator."""
    doc = f2_algebra(("1", "e", "x", "x2"), lambda i, j: {(1, 1): 1, (2, 2): 3}.get((i, j)),
                     order=lambda v: (v[0] or v[2], v != (0, 1, 0, 0), v))
    swap = {"1+x": "1+e+x+x2", "1+e+x": "1+x+x2"}
    swap.update({b: a for a, b in swap.items()})

    def s(a):
        return swap.get(a, a)

    mul = doc["mul"]
    doc["mul"] = {a: {b: s(mul[s(a)][s(b)]) for b in row} for a, row in mul.items()}
    return doc


def late_nonassociative_addition_table() -> dict:
    """F2⁴ on the basis 1, e, x, y whose sum of an element of x+<e> and one
    of y+<e> is moved by 1, as (x+y)+y = x while x+(y+y) = x+y+1; every
    other sum is the vector sum. The slice is still closed and
    commutative, with identity 0 and every inverse. The eight elements
    whose x and y coordinates differ, the summands of the moved sums, are
    listed last. Each moved sum keeps its e coordinate's place in the
    vector sum, so e, listed first, passes Light's test, and a test on the
    first additive generator alone would pass."""
    doc = f2_algebra(("1", "e", "x", "y"), lambda i, j: None,
                     order=lambda v: (v[2] != v[3], v != (0, 1, 0, 0), v))
    t = doc["add"]["d"]
    for p, q in product(("x", "e+x"), ("y", "e+y")):
        t[p][q] = t[q][p] = t[t[p][q]]["1"]
    return doc


def test_oracle_finds_distributivity_failing_beyond_the_first_generator():
    doc = late_nondistributive_table()
    assert [n for n, holds in table_laws(doc).items() if not holds] == [
        "distributivity where defined"]
    assert assert_oracle_agrees(doc) == 1
    _, lines = check_structure(doc)
    assert "FAIL  distributivity where defined: (a+b)c != ac+bc at x,1,e" in lines


def test_oracle_finds_slice_addition_failing_beyond_the_first_generator():
    doc = late_nonassociative_addition_table()
    assert [n for n, holds in table_laws(doc).items() if not holds] == ["addition associative"]
    assert assert_oracle_agrees(doc) == 1
    _, lines = check_structure(doc)
    assert "FAIL  addition associative: addition not associative at x+y,y,y" in lines


def zero_first(doc: dict) -> dict:
    """`doc` with every slice's zero, `0@dk`, moved to the front."""
    for xs in doc["slices"].values():
        xs.sort(key=lambda x: not x.startswith("0@"))
    return doc


@pytest.mark.parametrize("n,m,shuffled", [(2, 14, False), (14, 2, False), (3, 5, True),
                                          (6, 3, True)])
def test_oracle_agrees_on_zero_first_tables(n, m, shuffled):
    """Each zero, the one additive idempotent of its slice, is listed
    first, so the slice's generators are taken from the elements after it;
    clean and with each one-cell defect."""
    rng = random.Random(100 * n + m)
    clean = zero_first(product_table(n, m, rng if shuffled else None))
    assert assert_oracle_agrees(clean) == 0
    for kind in DEFECTS:
        assert_oracle_agrees(one_cell_defect(clean, kind, rng))


def test_oracle_finds_a_defect_at_the_rings_one():
    """Z/5 x Z/2 whose one product cell 1@d0·2@d0 is 3@d0, not 2@d0.
    Distributivity fails, so associativity runs Light's test, whose
    generators of the product leave out the idempotent 1@d0; the
    associativity failure is still found."""
    doc = product_table(5, 2)
    doc["mul"]["1@d0"]["2@d0"] = "3@d0"
    broken = [n for n, holds in table_laws(doc).items() if not holds]
    assert "multiplicative associativity" in broken and "unitality" in broken
    ring = load_structure(doc)
    assert ring.one not in generating_set(ring.elements(), ring.mul)
    assert assert_oracle_agrees(doc) == 1


def twisted_table(n: int, m: int, omega: dict, rng=None) -> dict:
    """Z/n x Z/m with its product twisted by omega, which maps each pair
    of dimensions to a unit of Z/n: (r, d)(s, e) = (r·s·omega(d, e), d+e),
    sums within a slice as in Z/n. The product is bilinear and graded, so
    the table is distributive with an absorbent zero family; it is
    associative exactly when omega is a 2-cocycle, omega(d, e)·omega(d+e, f)
    = omega(e, f)·omega(d, e+f), commutative exactly when omega is
    symmetric, and 1@d0 is its unit exactly when omega(0, e) = omega(e, 0)
    = 1. Listed as `product_table` lists Z/n x Z/m."""
    doc = product_table(n, m, rng)
    doc["name"] = f"Z{n}xZ{m} twisted"
    elems = [tuple(map(int, x.split("@d"))) for xs in doc["slices"].values() for x in xs]
    doc["mul"] = {f"{r}@d{d}": {f"{s}@d{e}": f"{r * s * omega[d, e] % n}@d{(d + e) % m}"
                                for s, e in elems} for r, d in elems}
    return doc


def test_oracle_agrees_on_twisted_products():
    """Every normalized twist of Z/3 x Z/3, omega(0, e) = omega(d, 0) = 1
    and either unit of Z/3 at each of the four pairs of nonzero
    dimensions, in listed order; then 64 seeded twists with a unit drawn
    at every pair, shuffled. Among them are tables whose ring laws all
    hold, and tables that break associativity alone, associativity and
    commutativity, or unitality alone. None breaks commutativity alone:
    every 2-cocycle of Z/3 in the units {1, 2} is a coboundary
    f(d)·f(e)/f(d+e), which is symmetric."""
    pairs = list(product(range(3), repeat=2))
    normalized = [{p: 1 for p in pairs} | dict(zip(product((1, 2), repeat=2), units))
                  for units in product((1, 2), repeat=4)]
    rng = random.Random(20240901)
    seeded = [({p: rng.choice((1, 2)) for p in pairs}, rng) for _ in range(64)]
    unit_laws = {"splits the projection", "nowhere zero", "multiplicative on probed pairs"}
    broken = set()
    for omega, order in [(omega, None) for omega in normalized] + seeded:
        doc = twisted_table(3, 3, omega, order)
        assert_oracle_agrees(doc)
        broken.add(frozenset(n for n, holds in table_laws(doc).items() if not holds) - unit_laws)
    associative, commutative = "multiplicative associativity", "commutativity"
    assert {frozenset(), frozenset({associative}), frozenset({associative, commutative}),
            frozenset({"unitality"})} <= broken
