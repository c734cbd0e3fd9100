import itertools

from dimalg.report import CheckReport, LawResult


def test_empty_cases_pass():
    rep = CheckReport("s")
    rep.law("vacuous", [], lambda n: "never called")
    assert rep.results == [LawResult("vacuous", True, "")]
    assert rep.lines() == ["== s", "PASS  vacuous"]


def test_first_witness_wins():
    rep = CheckReport("s")
    rep.law("odd", zip([2, 3, 4, 5]), lambda n: n % 2 == 0 and f"{n} is even")
    assert rep.results == [LawResult("odd", False, "2 is even")]
    assert rep.lines() == ["== s", "FAIL  odd: 2 is even"]


def test_each_case_is_unpacked_into_the_check():
    rep = CheckReport("s")
    rep.law("a < b", [(1, 2), (3, 4), (6, 5), (8, 7)], lambda a, b: a >= b and f"{a} >= {b}")
    assert rep.results == [LawResult("a < b", False, "6 >= 5")]


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
    assert rep.failures == [LawResult("below three", False, "three")]


def test_passing_law_records_an_empty_witness():
    rep = CheckReport("s")
    rep.law("small", zip(range(5)), lambda n: None if n < 10 else "big")
    rep.law("sums", itertools.product(range(3), repeat=2), lambda a, b: a + b > 4 and "big")
    assert rep.results == [LawResult("small", True, ""), LawResult("sums", True, "")]
    assert rep.ok and rep.lines() == ["== s", "PASS  small", "PASS  sums"]


def test_one_result_per_law():
    rep = CheckReport("s")
    rep.law("a", zip(range(100)), lambda n: f"bad {n}" if n > 50 else "")
    rep.law("b", zip(range(100)), lambda n: "")
    assert [(r.law, r.passed, r.witness) for r in rep.results] == [
        ("a", False, "bad 51"), ("b", True, "")
    ]
