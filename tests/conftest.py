import importlib.util
import io
import random
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from dimalg import (
    GradedPolyRing,
    ProductDimRing,
    make_poisson,
    registry_load,
    ring_axiom_report,
)
from dimalg.carriers import Rationals
from dimalg.cli import main
from dimalg.monoid import DimMonoid

# Every property test draws the same examples on every run.
settings.register_profile("dimalg", derandomize=True)
settings.load_profile("dimalg")

DATA = Path(__file__).parent / "data"
REPO_DATA = Path(__file__).parent.parent / "data"
HOSTSPEED = Path(__file__).resolve().parent.parent / "perfbench" / "hostspeed.py"


def _hostspeed():
    """perfbench/hostspeed.py, loaded read-only from its path (it imports
    only the standard library) without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_hostspeed", HOSTSPEED)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _kernel_ms(hostspeed) -> float:
    """The median of five timings of the host-speed kernel, in ms."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        hostspeed.kernel()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def pytest_sessionstart(session):
    session.config.hostspeed = _hostspeed()
    session.config.kernel_ms_at_start = _kernel_ms(session.config.hostspeed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line beside the suite's own time: how fast the host ran it."""
    hostspeed = config.hostspeed
    terminalreporter.write_line(
        f"host speed: hostspeed.kernel() took {config.kernel_ms_at_start:.1f} ms at the start "
        f"and {_kernel_ms(hostspeed):.1f} ms at the end (median of 5; reference "
        f"{1000 * hostspeed.REFERENCE_S:.1f} ms)")


def run_cli(args):
    """Run `dimalg` on `args` in process. The result has the exit code,
    stdout, stderr, `output` (stdout then stderr), and the exception that
    ended the run with its `exc_info`: a SystemExit of a nonzero code, an
    escaped error (exit code 1), or None."""
    out, err = io.StringIO(), io.StringIO()
    code, exception, exc_info = 0, None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args=list(args), prog_name="dimalg")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            exception, exc_info = (exc, sys.exc_info()) if code else (None, None)
        except Exception as exc:
            code, exception, exc_info = 1, exc, sys.exc_info()
    stdout, stderr = out.getvalue(), err.getvalue()
    return SimpleNamespace(exit_code=code, stdout=stdout, stderr=stderr, output=stdout + stderr,
                           exception=exception, exc_info=exc_info)


def product_table(n: int, m: int, rng=None) -> dict:
    """The product ring Z/n x Z/m as a structure document, `r@dk` being r
    over dimension k. Its slices and their elements are listed in order,
    or in an order shuffled by `rng`."""

    def order(xs):
        xs = list(xs)
        if rng is not None:
            rng.shuffle(xs)
        return xs

    def el(r, d):
        return f"{r}@d{d}"

    dims = order(range(m))
    elems = [(r, d) for d in dims for r in order(range(n))]
    return {
        "name": f"Z{n}xZ{m}",
        "monoid": {
            "elements": [f"d{d}" for d in dims],
            "identity": "d0",
            "op": {f"d{d}": {f"d{e}": f"d{(d + e) % m}" for e in dims} for d in dims},
        },
        "slices": {f"d{d}": [el(r, e) for r, e in elems if e == d] for d in dims},
        "add": {f"d{d}": {el(r, d): {el(s, d): el((r + s) % n, d) for s in range(n)}
                          for r in range(n)} for d in dims},
        "mul": {el(r, d): {el(s, e): el(r * s % n, (d + e) % m) for s, e in elems}
                for r, d in elems},
        "one": el(1 % n, 0),
        "unit_candidate": {f"d{d}": el(1 % n, d) for d in dims},
    }


@pytest.fixture
def defect_beyond_caps() -> dict:
    """Z/32 x Z/2 with one symmetric pair of product cells, 3@d1·5@d1 and
    its mirror, moved to another element of their slice. Listed in order,
    the defect lies beyond the first 6 000 distributivity cases and the
    first 6 000 element triples, in lexicographic order."""
    doc = product_table(32, 2)
    doc["mul"]["3@d1"]["5@d1"] = doc["mul"]["5@d1"]["3@d1"] = "16@d0"
    return doc


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def q_x_z():
    """The product ring of exact rationals with the integers."""
    return ProductDimRing(Rationals(), DimMonoid.free_abelian(1), label="QxZ")


@pytest.fixture
def q_x_z2():
    return ProductDimRing(Rationals(), DimMonoid.cyclic(2), label="QxZ/2")


@pytest.fixture
def canonical_ring():
    """Q[q, p] with dimensions +1 and -1 in Z."""
    return GradedPolyRing(["q", "p"], [(1,), (-1,)])


# The seed `ring_axiom_report` draws its probes from when it is given none.
@pytest.fixture(scope="session")
def qp_report():
    """`ring_axiom_report` on Q[q, p], on its probe set: 16³
    associativity triples, one run for every test that reads it."""
    ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
    return SimpleNamespace(ring=ring, report=ring_axiom_report(ring))


@pytest.fixture
def canonical_poisson(canonical_ring):
    """The canonical bracket {q, p} = 1 with both dimensions zero."""
    return make_poisson(canonical_ring, {("q", "p"): canonical_ring.one})


@pytest.fixture
def si_registry():
    return registry_load(REPO_DATA / "registries" / "si_demo.json")
