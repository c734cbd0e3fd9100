import itertools
from pathlib import Path

from dimalg import load_structure, ring
from dimalg.report import CheckReport, LawResult

GOLDEN = Path(__file__).parent.parent / "data" / "structures" / "product_ring_mod5_z2.json"


def test_empty_cases_pass():
    rep = CheckReport("s")
    rep.law("vacuous", [], lambda n: "never called")
    assert rep.results == [LawResult("vacuous", True, "", 0)]
    assert rep.lines() == ["== s", "PASS  vacuous"]


def test_first_witness_wins():
    rep = CheckReport("s")
    rep.law("odd", zip([2, 3, 4, 5]), lambda n: n % 2 == 0 and f"{n} is even")
    assert rep.results == [LawResult("odd", False, "2 is even", 1)]
    assert rep.lines() == ["== s", "FAIL  odd: 2 is even"]


def test_each_case_is_unpacked_into_the_check():
    rep = CheckReport("s")
    rep.law("a < b", [(1, 2), (3, 4), (6, 5), (8, 7)], lambda a, b: a >= b and f"{a} >= {b}")
    assert rep.results == [LawResult("a < b", False, "6 >= 5", 3)]


def test_walk_stops_at_the_first_witness():
    called, consumed = [], []

    def cases():
        for n in itertools.count():
            consumed.append(n)
            yield (n,)

    def check(n):
        called.append(n)
        return n == 3 and "three"

    rep = CheckReport("s")
    rep.law("below three", cases(), check)
    assert called == [0, 1, 2, 3]
    assert consumed == [0, 1, 2, 3]
    assert rep.failures == [LawResult("below three", False, "three", 4)]


def test_passing_law_records_an_empty_witness():
    rep = CheckReport("s")
    rep.law("small", zip(range(5)), lambda n: None if n < 10 else "big")
    rep.law("sums", itertools.product(range(3), repeat=2), lambda a, b: a + b > 4 and "big")
    assert rep.results == [LawResult("small", True, "", 5), LawResult("sums", True, "", 9)]
    assert rep.ok and rep.lines() == ["== s", "PASS  small", "PASS  sums"]


def test_one_result_per_law():
    rep = CheckReport("s")
    rep.law("a", zip(range(100)), lambda n: f"bad {n}" if n > 50 else "")
    rep.law("b", zip(range(100)), lambda n: "")
    assert [(r.law, r.passed, r.witness) for r in rep.results] == [
        ("a", False, "bad 51"), ("b", True, "")
    ]


def test_passed_needs_every_law_named_to_have_run_and_passed():
    rep = CheckReport("s")
    rep.law("holds", zip(range(3)), lambda n: "")
    rep.law("fails", zip(range(3)), lambda n: n == 1 and "one")
    assert rep.passed() and rep.passed("holds")
    assert not rep.passed("fails") and not rep.passed("holds", "fails")
    assert not rep.passed("never run") and not rep.passed("holds", "never run")


def _premised():
    """A report in which "holds" has passed and "fails" has failed."""
    rep = CheckReport("s")
    rep.law("holds", zip(range(3)), lambda n: "")
    rep.law("fails", zip(range(3)), lambda n: n == 1 and "one")
    return rep


def test_with_no_rows_the_cases_run():
    rep = _premised()
    rep.law("every", zip(range(7)), lambda n: "")
    assert rep.results[-1] == LawResult("every", True, "", 7)


def test_the_first_row_whose_premises_all_passed_supplies_the_cases():
    rep, built = _premised(), []

    def build(label, n):
        return lambda: built.append(label) or zip(range(n))

    rep.law("cut", zip(range(9)), lambda n: "",
            (("holds",), build("first", 2)), ((), build("second", 4)))
    assert built == ["first"]
    assert rep.results[-1] == LawResult("cut", True, "", 2)


def test_a_row_on_a_failed_or_unrun_premise_is_skipped_unbuilt():
    rep = _premised()

    def unbuilt():
        raise AssertionError("a skipped row's cases were built")

    rep.law("cut", zip(range(9)), lambda n: "",
            (("fails",), unbuilt), (("holds", "never run"), unbuilt))
    assert rep.results[-1] == LawResult("cut", True, "", 9)
    rep.law("later", zip(range(9)), lambda n: n == 2 and "two",
            (("never run",), unbuilt), (("holds",), lambda: zip(range(5))))
    assert rep.results[-1] == LawResult("later", False, "two", 3)


def test_an_empty_premise_always_applies():
    rep = CheckReport("s")
    rep.law("cut", zip(range(9)), lambda n: "", ((), lambda: zip(range(1))))
    assert rep.results == [LawResult("cut", True, "", 1)]


def test_every_premise_of_the_ring_suite_is_decided_before_the_law_it_cuts(monkeypatch):
    """On the golden structure each row that `CheckReport.law` is given
    names as premises only laws that this report has already decided: a
    misspelt premise would never pass, and its law would silently run on
    every case."""
    undecided, run = {}, CheckReport.law

    def audited(rep, name, cases, check, *rows):
        if rows:
            decided = {r.law for r in rep.results}
            undecided[name] = [p for premises, _ in rows for p in premises if p not in decided]
        run(rep, name, cases, check, *rows)

    monkeypatch.setattr(CheckReport, "law", audited)
    assert ring.ring_axiom_report(load_structure(GOLDEN)).ok
    assert undecided == {law: [] for law in (
        "addition commutative", "projection is a monoid morphism", "zero family is absorbent",
        "multiplicative associativity", "commutativity")}
