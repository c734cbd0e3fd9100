"""The four workloads: their inputs, set-up, and operations.

Each workload builds a list of operations.  An operation's `call` does
the library work (the only part that is timed) and its `check` compares
the result, or the exception, with the reference answer from
`inputs.py`.  Every operation builds what it needs from its input
document, so one verdict never warms a cache for the next.  A workload
is `in_process` when its operations run in the benchmark's own process,
so the host's speed can be read in the middle of one (hostspeed.py).
"""

import importlib
import json
import os
import random
import subprocess
import sys

import inputs as I

SRC = I.ROOT / "src"


class Op:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call      # () -> result; may raise
        self.check = check    # (result, exception) -> bool


def import_dimalg():
    """Import the package afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == "dimalg" or m.startswith("dimalg.")]:
        del sys.modules[name]
    importlib.import_module("dimalg")
    return {
        name: importlib.import_module(f"dimalg.{name}")
        for name in ("errors", "registry", "ring", "lines", "monoid", "endo",
                     "structure", "poisson", "poly")
    }


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _registries(rng, work):
    tables = {"si": I.si_demo_table(), "seeded": I.seeded_table(rng)}
    paths = {"si": str(I.SI_DEMO),
             "seeded": _write(work / "registry.json", tables["seeded"].doc())}
    return tables, paths


def _expect_ok(rep_laws=None):
    def check(rep, exc):
        if exc is not None or not rep.ok:
            return False
        return rep_laws is None or len(rep.results) == rep_laws
    return check


# ---------------------------------------------------------------------------
# quantity: the in-process calculator path
# ---------------------------------------------------------------------------


class Quantity:
    in_process = True
    name = "quantity"
    nominal_round_s = 1.3
    warmup_passes = 20

    def generate(self, rng, tiny, work):
        tables, paths = _registries(rng, work)
        return {"paths": paths, "cases": I.quantity_cases(rng, tables, 2 if tiny else 200),
                "warmup": I.quantity_cases(random.Random(rng.random()), tables, 2)}

    def setup(self, inputs):
        mods = import_dimalg()
        regs = {k: mods["registry"].registry_load(p) for k, p in inputs["paths"].items()}
        return mods, regs

    def ops(self, state, inputs, cases_key="cases", tracer=None):
        mods, regs = state
        registry = mods["registry"]
        mismatch = mods["errors"].DimensionMismatch

        def op(case):
            reg = regs[case.registry]

            def call():
                q = registry.evaluate(case.text, reg)
                if case.target is not None:
                    q = registry.convert(q, case.target, reg)
                return registry.format_quantity(q, reg)

            def check(out, exc):
                if case.expected is None:
                    return isinstance(exc, mismatch) and str(exc) == case.error
                return exc is None and out == case.expected

            return Op(case.kind, call, check)

        return [op(c) for c in inputs[cases_key]]

    def warmup_ops(self, state, inputs):
        return self.ops(state, inputs, cases_key="warmup")


# ---------------------------------------------------------------------------
# cli: one subprocess per operation
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv):
    """(exit code, stdout, stderr) of one process, waited for."""
    proc = subprocess.run(argv, cwd=I.ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class Cli:
    in_process = False
    name = "cli"
    nominal_round_s = 16.0
    warmup_passes = 1

    def generate(self, rng, tiny, work):
        """Every command of a round is distinct: seeded questions, seeded
        brackets, and the fixed golden-document commands."""
        tables, paths = _registries(rng, work)
        pool = I.quantity_cases(rng, tables, 40)

        def pick(reg, kind, count):
            return [c for c in pool if c.registry == reg and _cli_kind(c) == kind][:count]

        # a fixed registry mix: loading the seeded registry dominates a command
        n_eval, n_convert, n_mismatch, n_syntax = (1, 1, 1, 1) if tiny else (16, 9, 2, 3)
        plain = pick("si", "eval", n_eval + n_syntax)
        evals = plain[:n_eval] + pick("seeded", "eval", 1 if tiny else 3)
        converts = pick("si", "convert", n_convert) + pick("seeded", "convert", 0 if tiny else 1)
        cmds = [("mismatch", ["eval", "1 m + 1 s", "--registry", paths["si"]],
                 (1, "", "error: cannot add: undefined across dimensions 'length' and 'time'\n"))]
        for c in evals:
            cmds.append(("eval", ["eval", c.text, "--registry", paths[c.registry]],
                         (0, c.expected + "\n", "")))
        for i, c in enumerate(converts):
            argv = ["eval", c.text, "--to", c.target] if i % 2 else ["convert", c.text, c.target]
            cmds.append(("convert", argv + ["--registry", paths[c.registry]],
                         (0, c.expected + "\n", "")))
        for c in pick("si", "mismatch", n_mismatch):
            cmds.append(("mismatch", ["eval", c.text, "--registry", paths["si"]],
                         (1, "", f"error: {c.error}\n")))
        for i, c in enumerate(plain[n_eval:]):
            broken = (c.text + " *", "* " + c.text, "(" + c.text)[i % 3]
            cmds.append(("syntax_error", ["eval", broken, "--registry", paths["si"]], (2, "", None)))
        qp = json.loads(I.CANONICAL_QP.read_text())
        names, dims = I.gen_names(qp), I.gen_dims(qp)
        # both arguments lead with a positive coefficient: a leading unary
        # minus on a dimensioned polynomial makes the command exit 2 (a
        # library defect kept as a strict expected failure in
        # test_perfbench.py), and a benchmark operation must not fail
        for _ in range(2 if tiny else 5):
            f = I.with_leading_sign(I.homogeneous_poly(rng, dims, integer=True), 1)
            g = I.with_leading_sign(I.homogeneous_poly(rng, dims, integer=True), 1)
            cmds.append(("poisson_bracket",
                         ["poisson", "bracket", str(I.CANONICAL_QP), "--",
                          I.poly_text(f, names), I.poly_text(g, names)],
                         (0, ("poly", names, I.canonical_bracket(f, g, len(names))), "")))
        cmds += [
            ("check", ["check", str(I.GOLDEN_STRUCTURE)], (0, "all-pass", "")),
            ("poisson_check", ["poisson", "check", str(I.CANONICAL_QP)], (0, "all-pass", "")),
        ]
        if not tiny:
            cmds += [
                ("poisson_check", ["poisson", "check", str(I.CANONICAL_4GEN)], (0, "all-pass", "")),
                ("poisson_reduce", ["poisson", "reduce", str(I.CANONICAL_4GEN), "--cutoff", "6"],
                 (0, ("reduce", json.loads(I.CANONICAL_4GEN.read_text()), 6), "")),
            ]
        return {"cmds": cmds}

    def setup(self, inputs):
        """A fresh interpreter importing the command line: the start-up
        that every command pays."""
        code, _, err = run_child([sys.executable, "-c", "import dimalg.cli"])
        if code != 0:
            raise RuntimeError(f"cannot import dimalg.cli: {err.strip()[-300:]}")

    def ops(self, state, inputs, tracer=None):
        def op(name, argv, expected):
            if tracer is None:
                full = [sys.executable, "-m", "dimalg.cli"] + argv
            else:
                full = tracer.child_argv(argv)

            def call():
                out = run_child(full)
                if tracer is not None:
                    tracer.absorb_child()
                return out

            return Op(name, call, lambda out, exc: exc is None and cli_output_ok(out, expected))

        return [op(*c) for c in inputs["cmds"]]

    def warmup_ops(self, state, inputs):
        return self.ops(state, inputs)[:2]


def _cli_kind(case):
    if case.expected is None:
        return "mismatch"
    return "convert" if case.target is not None else "eval"


def cli_output_ok(out, expected) -> bool:
    code, stdout, stderr = out
    want_code, want_out, want_err = expected
    if code != want_code:
        return False
    if want_err is None:
        # an input error: one line on stderr, no traceback, nothing on stdout
        return stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1
    if stderr != want_err:
        return False
    if want_out == "all-pass":
        return _all_pass(stdout.splitlines())
    try:
        if isinstance(want_out, tuple) and want_out[0] == "poly":
            return I.parse_shown_poly(stdout, want_out[1]) == want_out[2]
        if isinstance(want_out, tuple) and want_out[0] == "reduce":
            return _reduce_output_ok(stdout.splitlines(), want_out[1], want_out[2])
    except ValueError:  # output that does not even parse as a polynomial
        return False
    return stdout == want_out


def _all_pass(lines) -> bool:
    laws = [l for l in lines if not l.startswith("== ")]
    return bool(laws) and all(l.startswith("PASS  ") for l in laws)


def _reduce_output_ok(lines, doc, cutoff) -> bool:
    names = I.gen_names(doc)
    want = I.reduced_basis(doc, cutoff)
    n = I.reduced_basis_size(len(names), cutoff)
    if len(want) != n or not lines:
        return False
    if lines[0] != f"reduced basis up to degree {cutoff} ({n} classes):":
        return False
    got = set()
    for line in lines[1:1 + n]:
        poly, _, _ = line.strip().partition(" @ ")
        terms = I.parse_shown_poly(poly, names)
        if len(terms) != 1 or next(iter(terms.values())) != 1:
            return False
        got.add(next(iter(terms)))
    return got == want and _all_pass(lines[1 + n:])


# ---------------------------------------------------------------------------
# finite_check: verdicts of the finite-carrier law suites
# ---------------------------------------------------------------------------


TABLE_PASSES = 2


class FiniteCheck:
    in_process = True
    name = "finite_check"
    nominal_round_s = 10.5
    warmup_passes = 1

    def generate(self, rng, tiny, work):
        sizes = I.TINY_TABLE_SIZES if tiny else I.TABLE_SIZES
        tables = [(str(I.GOLDEN_STRUCTURE), 0)]
        for i, (doc, code) in enumerate(I.structure_cases(rng, sizes)):
            tables.append((_write(work / f"table{i}.json", doc), code))
        warm = I.structure_cases(random.Random(rng.random()), I.TINY_TABLE_SIZES[:1])
        warm = [(_write(work / f"warm{i}.json", d), c) for i, (d, c) in enumerate(warm)]
        return {"tables": tables, "warm": warm, "tiny": tiny,
                "ring_seeds": [rng.randrange(2**31) for _ in range(4)]}

    def setup(self, inputs):
        return import_dimalg()

    def ops(self, mods, inputs, tracer=None, warm=False):
        structure, ring, lines, monoid, endo = (
            mods["structure"], mods["ring"], mods["lines"], mods["monoid"], mods["endo"])
        tiny = inputs["tiny"] or warm
        tables = [Op("check_structure", lambda p=path: structure.check_structure(p),
                     lambda res, exc, c=code: exc is None and res[0] == c)
                  for path, code in inputs["warm" if warm else "tables"]]
        # the sweep over Endo(Q x Z/3) takes 6 s, more than every other
        # verdict of a round together, so a run holds two rounds; every
        # table is checked twice a round so that its median latency is
        # over four checks, not two
        out = tables * TABLE_PASSES

        budget = 6 if tiny else 30
        endo_order = 2 if tiny else 3
        scalars = ring.RationalScalars
        subjects = (
            ("QxZ", lambda: ring.ProductDimRing(scalars(), monoid.DimMonoid.free_abelian(1), "QxZ")),
            ("QxZ/2", lambda: ring.ProductDimRing(scalars(), monoid.DimMonoid.cyclic(2), "QxZ/2")),
            ("power", lambda: lines.PowerRing((lines.Line("length"), lines.Line("time")))),
            ("endo", lambda: endo.EndoRing(
                ring.ProductDimRing(scalars(), monoid.DimMonoid.cyclic(endo_order)))),
        )
        for (label, build), seed in zip(subjects, inputs["ring_seeds"]):
            out.append(Op(
                f"ring_axiom_report:{label}",
                lambda b=build, s=seed: ring.ring_axiom_report(b(), random.Random(s), budget),
                _expect_ok(),
            ))
        out.append(Op(
            "endo_distributivity_report",
            lambda: endo.endo_distributivity_report(subjects[3][1]()),
            _expect_ok(2),
        ))
        return out

    def warmup_ops(self, mods, inputs):
        return self.ops(mods, inputs, warm=True)


# ---------------------------------------------------------------------------
# poisson: the polynomial carrier
# ---------------------------------------------------------------------------

# two seeded algebras of each shape: their dimension vectors set the cost
# of validation and probing, and the tail ranks the heaviest of them
SEEDED_ALGEBRAS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)) * 2
TINY_ALGEBRAS = ((1, 1), (2, 1))


class Poisson:
    in_process = True
    name = "poisson"
    nominal_round_s = 10.0
    warmup_passes = 1

    def generate(self, rng, tiny, work):
        docs = [(str(I.CANONICAL_QP), json.loads(I.CANONICAL_QP.read_text()))]
        if not tiny:
            docs.append((str(I.CANONICAL_4GEN), json.loads(I.CANONICAL_4GEN.read_text())))
        for k, (n, rank) in enumerate(TINY_ALGEBRAS if tiny else SEEDED_ALGEBRAS):
            doc = I.canonical_doc(n, rank, rng)
            docs.append((_write(work / f"canonical{k}_{n}_{rank}.json", doc), doc))
        canonical = []
        for path, doc in docs:
            nvars = len(doc["generators"])
            dims = I.gen_dims(doc)
            pairs = []
            for _ in range(8 if tiny else 25):
                f = I.homogeneous_poly(rng, dims)
                g = I.homogeneous_poly(rng, dims)
                want_dim = tuple(x + y for x, y in zip(I.poly_dim(f, dims), I.poly_dim(g, dims)))
                pairs.append((f, g, I.canonical_bracket(f, g, nvars), want_dim))
            cutoffs = (4,) if tiny else ((4, 6, 8) if nvars <= 4 else (4, 6))
            canonical.append((path, doc, cutoffs, pairs))
        scaled = [(_write(work / f"scaled_{i}.json", d), d)
                  for i, d in enumerate(I.SCALED_PAIR[: 1 if tiny else 2])]
        warm_doc = I.canonical_doc(1, 1, random.Random(rng.random()))
        warm = (_write(work / "warm.json", warm_doc), warm_doc, (4,), [])
        return {"canonical": canonical, "scaled": scaled, "warm": warm,
                "seeds": [rng.randrange(2**31) for _ in range(len(canonical) * 6)]}

    def setup(self, inputs):
        return import_dimalg()

    def ops(self, mods, inputs, tracer=None, warm=False):
        structure, poisson = mods["structure"], mods["poisson"]
        seeds = iter(inputs["seeds"])
        canonical = [inputs["warm"]] if warm else inputs["canonical"]
        scaled = [] if warm else inputs["scaled"]
        out = []

        def load(path):
            return structure.load_poisson(path, validate=False)[0]

        def load_validated(path, names, ideal):
            def check(res, exc):
                return exc is None and list(res[0].ring.gen_names) == names and res[1] == ideal
            return Op("load_poisson", lambda: structure.load_poisson(path, validate=True), check)

        for path, doc, cutoffs, pairs in canonical:
            ideal = doc["ideal"]
            out.append(load_validated(path, I.gen_names(doc), ideal))
            s = next(seeds)
            out.append(Op("poisson_axiom_report",
                          lambda p=path, s=s: poisson.poisson_axiom_report(load(p), random.Random(s)),
                          _expect_ok(8)))
            s = next(seeds)
            out.append(Op("coisotrope_check",
                          lambda p=path, i=ideal, s=s: poisson.coisotrope_check(load(p), i, random.Random(s)),
                          _expect_ok(3)))
            for c in cutoffs:
                out.append(self._reduce_op(poisson, load, path, doc, c, next(seeds)))
            if pairs:
                out.append(self._bracket_op(load, path, pairs))
        for path, doc in scaled:
            out.append(load_validated(path, I.gen_names(doc), []))
            s = next(seeds)
            out.append(Op("poisson_axiom_report",
                          lambda p=path, s=s: poisson.poisson_axiom_report(load(p), random.Random(s)),
                          _expect_ok(8)))
        return out

    @staticmethod
    def _reduce_op(poisson, load, path, doc, cutoff, seed):
        want = I.reduced_basis(doc, cutoff)

        def call():
            reduced = poisson.poisson_reduce(load(path), doc["ideal"], cutoff, random.Random(seed))
            return reduced, reduced.axiom_report(random.Random(seed + 1))

        def check(res, exc):
            if exc is not None:
                return False
            reduced, rep = res
            got = [b.value for b in reduced.basis]
            return (rep.ok and len(got) == len(want)
                    and all(len(v) == 1 and v[0][1] == 1 for v in got)
                    and {v[0][0] for v in got} == want)

        return Op(f"poisson_reduce:{cutoff}", call, check)

    @staticmethod
    def _bracket_op(load, path, pairs):
        def call():
            p = load(path)
            ring = p.ring
            return [p.bracket(ring.poly(f), ring.poly(g)) for f, g, _, _ in pairs]

        def check(res, exc):
            return exc is None and all(
                dict(out.value) == want and out.dim == want_dim
                for out, (_, _, want, want_dim) in zip(res, pairs)
            )

        return Op("bracket_block", call, check)

    def warmup_ops(self, mods, inputs):
        return self.ops(mods, inputs, warm=True)


WORKLOADS = {w.name: w for w in (Quantity(), Cli(), FiniteCheck(), Poisson())}
