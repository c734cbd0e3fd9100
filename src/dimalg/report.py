"""Pass/fail reports produced by the axiom and property suites.

Failures are data, not exceptions: every law yields a LawResult with an
optional witness and the number of cases it ran, so callers (tests, the
CLI `check` command) can render one line per law and pick an exit code.
"""

from typing import NamedTuple


class LawResult(NamedTuple):
    law: str
    passed: bool
    witness: str = ""
    cases: int = 0  # cases `CheckReport.law` ran, up to the first witness

    def line(self) -> str:
        if self.passed:
            return f"PASS  {self.law}"
        return f"FAIL  {self.law}: {self.witness}"


class CheckReport:
    def __init__(self, subject: str, results: list | None = None):
        self.subject = subject
        self.results = [] if results is None else results

    def check(self, law: str, condition: bool, witness: str = "", cases: int = 0) -> None:
        """Record a verdict decided elsewhere: `cases` is what `law` ran,
        and a direct call runs none."""
        self.results.append(LawResult(law, bool(condition), "" if condition else witness, cases))

    def law(self, name: str, cases, check) -> None:
        """Decide law `name`: `check(*case)` returns a falsy value where the
        law holds and the witness text where it fails.  Each case is a tuple
        of arguments (`zip(values)` for single values); `cases` is walked
        lazily up to the first witness, and an empty `cases` passes; the
        result counts the cases walked, the witness's included."""
        n, witness = 0, ""
        for n, case in enumerate(cases, 1):
            if witness := check(*case):
                break
        self.check(name, not witness, witness, n)

    def passed(self, *laws: str) -> bool:
        """Whether each law named has a PASS in this report: one that only
        FAILed, or has not run, has not passed."""
        return {r.law for r in self.results if r.passed}.issuperset(laws)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.passed]

    def lines(self) -> list:
        return [f"== {self.subject}"] + [r.line() for r in self.results]

    def merged(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.subject, self.results + other.results)


class Checked(NamedTuple):
    """A checked construction: `value` is the construction when every law
    of `report` passes, and None otherwise."""

    value: object
    report: CheckReport

    @property
    def ok(self) -> bool:
        return self.report.ok
