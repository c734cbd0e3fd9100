"""The probed suites decide on built probe sets: no suite takes an `rng`,
and each one's report is the same whatever `PYTHONHASHSEED` is."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import dimalg

# the only `rng`, `budget` or `probes` parameters left outside the tests'
# `sample*` input API: unread, and kept while the benchmark's workloads
# pass them (ROADMAP items 1 and 4)
UNREAD = {
    ("ring.ring_axiom_report", "rng"),
    ("ring.ring_axiom_report", "budget"),
    ("poisson.poisson_axiom_report", "rng"),
    ("poisson.coisotrope_check", "rng"),
    ("poisson.poisson_reduce", "rng"),
    ("poisson.ReducedPoisson.axiom_report", "rng"),
}


def _public_callables():
    """(module.qualified name, callable) for every public function and class
    a dimalg module defines, and every function of such a class, inherited
    ones too, but no `sample*` method; `dimalg.sampling`, the tests' input
    API, is left out."""
    for info in pkgutil.iter_modules(dimalg.__path__):
        if info.name == "sampling":
            continue
        module = importlib.import_module(f"dimalg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{info.name}.{name}", obj
                for attr, fn in inspect.getmembers(obj, inspect.isfunction):
                    if not attr.startswith("sample") and fn.__module__.startswith("dimalg."):
                        yield f"{info.name}.{name}.{attr}", fn


def test_no_suite_takes_an_rng_a_budget_or_a_probe_count():
    found, walked = set(), []
    for name, obj in _public_callables():
        walked.append(obj)
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a class with no Python signature
            continue
        found |= {(name, p) for p in params if p in ("rng", "budget", "probes")}
    assert found == UNREAD
    assert all(any(getattr(dimalg, name) is obj for obj in walked) for name in dimalg.__all__)


def test_elements_have_one_equality():
    """Elements are canonical and compared with `==`: no public class has an
    `eq` hook beside it, only `DimDerivation.eq`, which compares derivations."""
    from dimalg.algebra import ProbeSpace

    hooks = [name for name, obj in _public_callables() if inspect.isclass(obj) and hasattr(obj, "eq")]
    assert hooks == ["algebra.DimDerivation"]
    assert "eq" not in ProbeSpace._fields


SUITES = '''
from dimalg import (FreeDimModule, GradedPolyRing, GSet, bilinear_check, bilinear_factorization,
                    module_axiom_report, property_check, quotient_ring, ring_axiom_report,
                    ring_probe_space)


def dims(d, e):
    return tuple(x + y for x, y in zip(d, e))


def show(rep):
    print(*rep.lines(), *(f"  {r.cases} cases" for r in rep.results), sep="\\n")


ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
quot = quotient_ring(ring, ring.monomial_ideal(["q"]))
m = FreeDimModule(ring, GSet(ring.dims, ("i", "j")), [("e", ((0,), "i")), ("f", ((1,), "j"))], "A")
one = FreeDimModule(ring, GSet(ring.dims, ("i",)), [("e", ((0,), "i"))], "B")
space = ring_probe_space(ring)


def product(x, y):
    d = (dims(x.dim[0], y.dim[0]), "i")
    if not (x.value and y.value):
        return one.zero(d)
    return one.element(d, {"e": ring.mul(x.value[0][1], y.value[0][1])})


for subject in (ring, quot, m):
    print(*map(repr, subject.probe_elements()), sep="\\n")
show(ring_axiom_report(ring))
show(ring_axiom_report(quot))
show(module_axiom_report(m))
show(bilinear_check(space, ring.mul, dims))
show(property_check(space, ring.mul, dims, "associative"))
show(property_check(space, lambda a, b: ring.mul(ring.mul(a, a), b), dims, "symmetric"))
show(bilinear_factorization(one, one, one, product).report)
show(bilinear_factorization(one, one, one, lambda x, y: one.add(x, x) if x.dim == y.dim else x).report)
'''


def test_each_probed_suite_reports_alike_under_any_hash_seed():
    """The Q[q,p] ring report, a quotient ring's, a module's over Q[q,p],
    `bilinear_check`, `property_check` (one PASS, one FAIL) and
    `bilinear_factorization` (one PASS, one FAIL), with the probe sets
    they run on, in two processes with different hash seeds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", SUITES], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(proc.stdout.splitlines())
    assert outputs[0] == outputs[1]
    lines = outputs[0]
    assert sum(line.startswith("==") for line in lines) == 8
    assert sum(line.startswith("FAIL") for line in lines) == 2
