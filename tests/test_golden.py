"""Golden outputs: the report lines and exit codes of the checkers.

`dimalg check` runs on every structure document, `dimalg poisson check`
and `poisson reduce --cutoff 6` on every Poisson document, `poisson
reduce` at the higher cutoffs of `DEEP_REDUCTIONS`, and
`ring_axiom_report` on one seeded broken ring of each kind.

`tests/golden.json` holds, for every case below, the exit code and
the full output lines.  Regenerate it with

    PYTHONPATH=src python tests/test_golden.py --write

only when an output is meant to change, and review the diff.

The broken rings each fail several laws, and which probe element shows a
failure first depends on the order of the ring's probe set, so a change
to a probe set shows here as a changed witness.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from dimalg import (
    EndoRing,
    GradedPolyRing,
    Line,
    PowerRing,
    ProductDimRing,
    ring_axiom_report,
)
from dimalg.carriers import Rationals
from dimalg.cli import main
from dimalg.group import DimElement
from dimalg.monoid import DimMonoid

TESTS = Path(__file__).parent
REPO = TESTS.parent
GOLDEN = TESTS / "golden.json"
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

STRUCTURES = sorted(REPO.glob("data/structures/*.json")) + sorted(
    p for p in (TESTS / "data").glob("*.json")
    if p.name != "poisson_broken_antisymmetry.json"
)
POISSON = sorted(REPO.glob("data/poisson/*.json")) + [
    TESTS / "data" / "poisson_broken_antisymmetry.json"
]
# reductions whose bases reach well past cutoff 6: degree 10 on four
# generators, degree 8 on two
DEEP_REDUCTIONS = {
    REPO / "data" / "poisson" / "canonical_4gen.json": 10,
    REPO / "data" / "poisson" / "canonical_qp.json": 8,
}


class AbsProduct(ProductDimRing):
    """Q x Z whose product drops the sign of its right factor."""

    def mul(self, a, b):
        return super().mul(a, DimElement(abs(b.value), b.dim))


class FloorPower(PowerRing):
    """(length, time)^power whose negative sums round down to integers."""

    def add(self, a, b):
        s = super().add(a, b)
        return DimElement(Fraction(math.floor(s.value)), s.dim) if s.value < 0 else s


class ConstantlessPoly(GradedPolyRing):
    """Q[q, p] whose product drops its constant term."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return DimElement(tuple(t for t in out.value if any(t[0])), out.dim)


class LeftHeavyEndo(EndoRing):
    """Endo(Q x Z/2) whose sum counts the left summand's first coefficient twice."""

    def add(self, a, b):
        c = super().add(a, b).value
        return DimElement((c[0] + a.value[0],) + c[1:], a.dim)


def broken_rings():
    q = Rationals()
    return {
        "product": AbsProduct(q, DimMonoid.free_abelian(1), label="QxZ"),
        "power": FloorPower((Line("length"), Line("time"))),
        "polynomial": ConstantlessPoly(["q", "p"], [(1,), (-1,)]),
        "endomorphism": LeftHeavyEndo(ProductDimRing(q, DimMonoid.cyclic(2))),
    }


def _rel(path: Path) -> str:
    return path.relative_to(REPO).as_posix()


def outputs() -> dict:
    """Every golden case: its id mapped to [exit code, output lines]."""
    runner = CliRunner()

    def cli(*args):
        r = runner.invoke(main, list(args))
        return [r.exit_code, r.stdout.splitlines() + r.stderr.splitlines()]

    out = {f"check {_rel(p)}": cli("check", str(p)) for p in STRUCTURES}
    for path in POISSON:
        out[f"poisson check {_rel(path)}"] = cli("poisson", "check", str(path))
        out[f"poisson reduce --cutoff 6 {_rel(path)}"] = cli(
            "poisson", "reduce", str(path), "--cutoff", "6")
    for path, cutoff in DEEP_REDUCTIONS.items():
        out[f"poisson reduce --cutoff {cutoff} {_rel(path)}"] = cli(
            "poisson", "reduce", str(path), "--cutoff", str(cutoff))
    for kind, ring in broken_rings().items():
        rep = ring_axiom_report(ring, random.Random(11), budget=12)
        out[f"ring_axiom_report {kind}"] = [int(not rep.ok), rep.lines()]
    return out


@pytest.fixture(scope="module")
def current():
    return outputs()


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_output_matches_golden(current, case):
    assert current[case] == EXPECTED[case]


def test_golden_covers_every_case(current):
    assert sorted(current) == sorted(EXPECTED)


def test_every_broken_ring_fails_more_than_one_law(current):
    for kind in broken_rings():
        code, lines = current[f"ring_axiom_report {kind}"]
        assert code == 1 and sum(line.startswith("FAIL") for line in lines) > 1, kind


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(outputs(), indent=1, ensure_ascii=False) + "\n")
