"""The README's "A quick taste" block runs and prints what its `# ->`
comments say, and each case count it states is a run's."""

import re
from pathlib import Path

from test_ring import CRITERION_2_PRODUCTS

from dimalg import (EndoRing, ProductDimRing, endo_distributivity_report, load_structure,
                    ring_axiom_report)
from dimalg.carriers import Rationals
from dimalg.monoid import DimMonoid

README = Path(__file__).parent.parent / "README.md"
GOLDEN = README.parent / "data" / "structures" / "product_ring_mod5_z2.json"


def test_quick_taste_prints_its_comments(capsys):
    text = README.read_text()
    (block,) = re.findall(r"A quick taste:\n\n```python\n(.*?)```", text, re.S)
    # a comment's first field is the output; a remark after two spaces is not
    expected = [line[len("# -> "):].split("  ")[0] for line in block.splitlines()
                if line.startswith("# -> ")]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected == ["2*q", "['1']"]


def test_stated_case_counts_match_a_run(qp_report):
    """Every case count the README states is read off a run's report:
    the golden structure's (which docs/schemas.md states too), the
    criterion-2 product rings' (their Light's-test counts too),
    Endo(Q×Z/3)'s and `Q[q,p]`'s."""
    text = " ".join(README.read_text().split())

    def num(n):
        return f"{n:,}".replace(",", " ")

    def cases(rep):
        assert rep.ok
        return {r.law: r.cases for r in rep.results}

    def stated(*fragments):
        for fragment in fragments:
            assert fragment in text, fragment

    golden = cases(ring_axiom_report(load_structure(GOLDEN)))
    assert golden["zero family is absorbent"] == 0
    stated(
        f"runs {golden['distributivity where defined']} distributivity cases, "
        f"{golden['projection is a monoid morphism']} projection pairs, no absorbency case, "
        f"{golden['multiplicative associativity']} associativity triples, "
        f"{golden['commutativity']} commutativity pairs, "
        f"{golden['addition associative']} slice-addition associativity cases, "
        f"{golden['addition commutative']} slice-addition commutativity pairs and "
        f"{golden['dimension monoid: associativity']} monoid associativity triples")
    order = [golden[law] for law in (
        "distributivity where defined", "projection is a monoid morphism",
        "zero family is absorbent", "multiplicative associativity", "commutativity",
        "addition associative", "addition commutative", "dimension monoid: associativity")]
    schemas = " ".join((README.parent / "docs" / "schemas.md").read_text().split())
    assert (f"runs these on {', '.join(map(str, order[:-1]))} and {order[-1]} cases, "
            "in the order listed") in schemas

    light = {}
    for ring, name in zip(CRITERION_2_PRODUCTS, ("`QxZ`", "`QxZ/2`", "the power ring of two lines")):
        c = cases(ring_axiom_report(ring))
        assert c["commutativity"] == c["projection is a monoid morphism"]
        assert c["multiplicative associativity"] == c["distributivity where defined"]
        counts = [num(c[law]) for law in (
            "projection is a monoid morphism", "distributivity where defined",
            "zero family is absorbent", "unitality", "slices are abelian groups",
            "addition is undefined across slices")]
        stated(f"* {name} (D = {len(ring.probe_dims())}): {', '.join(counts[:-1])} "
               f"and {counts[-1]} cases")
        light[name] = num(c["dimension monoid: associativity"])
    stated(f"({light['`QxZ`']} for `QxZ`, {light['the power ring of two lines']} for the "
           "power ring of two lines")

    endo = EndoRing(ProductDimRing(Rationals(), DimMonoid.cyclic(3)))
    c = cases(ring_axiom_report(endo))
    assert c["multiplicative associativity"] == c["distributivity where defined"]
    for label, law, tail in (
            ("projection is a monoid morphism", "projection is a monoid morphism", " cases;"),
            ("distributivity where defined and multiplicative associativity",
             "distributivity where defined", " cases each"),
            ("zero family is absorbent", "zero family is absorbent", " cases;"),
            ("unitality", "unitality", " cases;"),
            ("slices are abelian groups", "slices are abelian groups", " cases;"),
            ("addition is undefined across slices", "addition is undefined across slices",
             " cases.")):
        assert re.search(rf"\* {re.escape(label)}: [^=*]*= {num(c[law])}{tail}", text), label
    stated(f"= {num(c['dimension monoid: associativity'])} cases for Endo(Q×Z/3)")
    sides = cases(endo_distributivity_report(endo))
    assert list(sides.values()) == [c["distributivity where defined"]] * 2
    stated(f"= {num(sum(sides.values()))} cases for D of 3 points")

    c = cases(qp_report.report)
    stated(f"(|E| = {len(qp_report.ring.probe_elements())}, |D| = {len(qp_report.ring.probe_dims())}) "
           f"that is {num(c['multiplicative associativity'])} associativity triples and "
           f"{num(c['distributivity where defined'])} distributivity cases")
