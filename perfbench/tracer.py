"""Per-layer tracing of dimalg from outside the library.

`Tracer.install` wraps the public functions listed in TARGETS, at module
or class level, and rebinds every `from x import name` copy of them in
the loaded dimalg modules (otherwise `nullspace` as seen by
`dimalg.poisson`, or `eval_tree` as seen by `dimalg.registry`, would
count zero).  Each call appends one span (name, parent, start, end) to
flat arrays kept in memory; the spans are written to disk at the end of
the run, and per-layer metrics are computed from them: a span's self
time is its duration minus the time its child spans cover.

Run as a script, this file is the traced stand-in for
`python -m dimalg.cli` that the `cli` workload uses in its traced run:

    python perfbench/tracer.py SPANS_FILE -- eval "1 m" --registry R
"""

import functools
import importlib
import json
import re
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
SRC = ROOT / "src"

W_Q, W_CLI, W_FIN, W_POI = "quantity", "cli", "finite_check", "poisson"

# (metric prefix, dimalg module, class or None, attribute, extra stats,
#  workloads on which the call count must be nonzero)
TARGETS = (
    ("exprparse.tokenize", "exprparse", None, "tokenize", (), (W_Q,)),
    ("exprparse.parse_quantity_expr", "exprparse", None, "parse_quantity_expr", (), (W_Q,)),
    ("exprparse.eval_tree", "exprparse", None, "eval_tree", (), (W_Q,)),
    ("registry.registry_load", "registry", None, "registry_load", (), (W_CLI,)),
    ("registry.eval_expr", "registry", None, "eval_expr", ("raised",), (W_Q, W_CLI)),
    ("registry.convert", "registry", None, "convert", (), (W_Q, W_CLI)),
    ("registry.format_quantity", "registry", None, "format_quantity", (), (W_Q, W_CLI)),
    ("numfmt.format_rational", "numfmt", None, "format_rational", (), (W_Q,)),
    ("lines.add", "lines", "PowerRing", "add", (), (W_Q,)),
    ("lines.mul", "lines", "PowerRing", "mul", (), (W_Q,)),
    ("lines.reciprocal", "lines", "PowerRing", "reciprocal", (), (W_Q,)),
    # DimRing.pow as inherited by PowerRing; polynomial powers stay out
    ("lines.pow", "lines", "PowerRing", "pow", (), (W_Q,)),
    ("monoid.combine", "monoid", "DimMonoid", "combine", (), (W_FIN, W_Q)),
    ("monoid.contains", "monoid", "DimMonoid", "contains", (), (W_FIN, W_Q)),
    ("monoid.inverse", "monoid", "DimMonoid", "inverse", (), (W_Q,)),
    ("ring.ring_axiom_report", "ring", None, "ring_axiom_report", ("total",), (W_FIN,)),
    ("ring.add", "ring", "ProductDimRing", "add", (), (W_FIN,)),
    ("ring.mul", "ring", "ProductDimRing", "mul", (), (W_FIN,)),
    ("endo.add", "endo", "EndoRing", "add", (), (W_FIN,)),
    ("endo.mul", "endo", "EndoRing", "mul", (), (W_FIN,)),
    ("endo.endo_distributivity_report", "endo", None, "endo_distributivity_report",
     ("total",), (W_FIN,)),
    ("structure.load_structure", "structure", None, "load_structure", (), (W_FIN,)),
    ("structure.slice_group_report", "structure", None, "slice_group_report",
     ("total",), (W_FIN,)),
    ("structure.structure_axiom_report", "structure", None, "structure_axiom_report",
     ("total",), (W_FIN,)),
    ("structure.load_poisson", "structure", None, "load_poisson", ("total",), (W_POI,)),
    ("structure.parse_poly", "structure", None, "parse_poly", (), (W_POI,)),
    ("report.check", "report", "CheckReport", "check", (), (W_FIN, W_POI)),
    ("poly.poly", "poly", "GradedPolyRing", "poly", (), (W_POI,)),
    ("poly.add", "poly", "GradedPolyRing", "add", (), (W_POI,)),
    ("poly.mul", "poly", "GradedPolyRing", "mul", (), (W_POI,)),
    ("poly.partial", "poly", "GradedPolyRing", "partial", (), (W_POI,)),
    ("poly.monomial_dim", "poly", "GradedPolyRing", "monomial_dim", (), (W_POI,)),
    ("poly.monomials_of_dim", "poly", "GradedPolyRing", "monomials_of_dim", (), (W_POI,)),
    ("poly.sample", "poly", "GradedPolyRing", "sample", (), (W_POI,)),
    ("poisson.bracket", "poisson", "DimPoisson", "bracket", (), (W_POI,)),
    ("poisson.make_poisson", "poisson", None, "make_poisson", ("total",), (W_POI,)),
    ("poisson.poisson_axiom_report", "poisson", None, "poisson_axiom_report",
     ("total",), (W_POI,)),
    ("poisson.coisotrope_check", "poisson", None, "coisotrope_check", ("total",), (W_POI,)),
    ("poisson.poisson_reduce", "poisson", None, "poisson_reduce", ("total",), (W_POI,)),
    ("poisson.axiom_report", "poisson", "ReducedPoisson", "axiom_report", ("total",), (W_POI,)),
    ("linalg.nullspace", "linalg", None, "nullspace", (), (W_POI,)),
    ("linalg.rref", "linalg", None, "rref", (), (W_POI,)),
)

# Ratios and sums measured where the work happens, with the workload on
# which each must be nonzero.
DERIVED = (
    ("lines.pow.exp_abs_sum", "count", "lower", (W_Q,)),
    ("monoid.contains_per_combine", "ratio", "lower", (W_FIN, W_Q)),
    ("poly.monomials_of_dim.yield_ratio", "ratio", "higher", (W_POI,)),
    ("poly.poly_per_bracket", "ratio", "lower", (W_POI,)),
)

IMPORT_MODULES = (
    "dimalg", "dimalg.errors", "dimalg.monoid", "dimalg.sampling", "dimalg.group",
    "dimalg.carriers", "dimalg.report", "dimalg.ring", "dimalg.endo", "dimalg.lines",
    "dimalg.modules", "dimalg.poly", "dimalg.algebra", "dimalg.linalg", "dimalg.poisson",
    "dimalg.exprparse", "dimalg.numfmt", "dimalg.registry", "dimalg.structure", "dimalg.cli",
    "click",
)

OVERHEAD = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_specs():
    """[(name, unit, better, workloads where nonzero)] of every per-layer metric."""
    specs = []
    for prefix, _, _, _, extra, wls in TARGETS:
        specs.append((f"{prefix}.calls", "count", "lower", wls))
        specs.append((f"{prefix}.self_s", "s", "lower", wls))
        if "total" in extra:
            specs.append((f"{prefix}.total_s", "s", "lower", wls))
        if "raised" in extra:
            specs.append((f"{prefix}.raised", "count", "lower", (W_Q, W_CLI)))
    specs += list(DERIVED)
    specs.append(("cli.import.total_ms", "ms", "lower", (W_CLI,)))
    for mod in IMPORT_MODULES:
        specs.append((f"cli.import.{mod}.self_ms", "ms", "lower", (W_CLI,)))
    specs += [(name, unit, "lower", ()) for name, unit in OVERHEAD]
    return specs


# Metrics that must repeat exactly between two traced runs of one seed.
def is_count(name: str) -> bool:
    return name.endswith((".calls", ".raised", ".exp_abs_sum")) or name in (
        "monoid.contains_per_combine", "poly.monomials_of_dim.yield_ratio",
        "poly.poly_per_bracket")


class Tracer:
    def __init__(self, work: Path):
        self.child_file = work / "child-spans.bin"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.raised = [0] * len(TARGETS)
        self.exp_abs_sum = 0
        self.mono_returned = 0
        self.mono_enumerated = 0

    # -- recording ----------------------------------------------------------
    def _wrap(self, nid, fn, post=None):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        raised = self.raised
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result, parent)
            return result

        return traced

    def _pow_post(self, nid):
        names = self.span_name

        def post(args, kwargs, result, parent):
            # a negative power recurses once: count |n| at the outer call only
            if parent < 0 or names[parent] != nid:
                self.exp_abs_sum += abs(args[2])
        return post

    def _monomials_post(self, args, kwargs, result, parent):
        ring = args[0]
        max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
        self.mono_returned += len(result)
        self.mono_enumerated += (max_degree + 1) ** ring.nvars

    def install(self):
        """Wrap every target; call after the last import of dimalg."""
        for nid, (prefix, mod, cls, attr, _, _) in enumerate(TARGETS):
            module = importlib.import_module(f"dimalg.{mod}")
            owner = getattr(module, cls) if cls else module
            original = getattr(owner, attr)
            post = None
            if prefix == "lines.pow":
                post = self._pow_post(nid)
            elif prefix == "poly.monomials_of_dim":
                post = self._monomials_post
            wrapped = self._wrap(nid, original, post)
            setattr(owner, attr, wrapped)
            if cls:
                for key, value in list(vars(owner).items()):
                    if value is original:  # class-level aliases such as PowerRing.odot
                        setattr(owner, key, wrapped)
            for name, loaded in list(sys.modules.items()):
                if name == "dimalg" or name.startswith("dimalg."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)

    # -- traced child processes --------------------------------------------
    def child_argv(self, cli_args):
        return [sys.executable, str(HERE), str(self.child_file), "--"] + list(cli_args)

    def absorb_child(self):
        """Append the spans a traced child wrote; its roots stay roots."""
        with open(self.child_file, "rb") as fh:
            header = json.loads(fh.readline())
            child = []
            for _, code, _ in header["arrays"]:
                arr = array(code)
                arr.fromfile(fh, header["count"])
                child.append(arr)
        self.child_file.unlink()
        name, parent, start, end = child
        offset = len(self.span_start)
        self.span_name.extend(name)
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.span_start.extend(start)
        self.span_end.extend(end)
        for k, count in enumerate(header["raised"]):
            self.raised[k] += count
        self.exp_abs_sum += header["exp_abs_sum"]
        self.mono_returned += header["mono"][0]
        self.mono_enumerated += header["mono"][1]

    # -- output ---------------------------------------------------------------
    def write_spans(self, path: Path):
        """One JSON header line, then the four span arrays as raw bytes."""
        header = {
            "names": [t[0] for t in TARGETS],
            "count": len(self.span_start),
            "arrays": [["name", "i", self.span_name.itemsize],
                       ["parent", "i", self.span_parent.itemsize],
                       ["start_ns", "q", self.span_start.itemsize],
                       ["end_ns", "q", self.span_end.itemsize]],
            "raised": self.raised,
            "exp_abs_sum": self.exp_abs_sum,
            "mono": [self.mono_returned, self.mono_enumerated],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    def layer_metrics(self) -> dict:
        n_targets = len(TARGETS)
        calls = [0] * n_targets
        self_ns = [0] * n_targets
        total_ns = [0] * n_targets
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_ns = array("q", bytes(8 * len(starts)))
        # children start after their parent, so a reverse sweep sees every
        # child before the parent it reports its duration to
        for i in range(len(starts) - 1, -1, -1):
            d = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += d - child_ns[i]
            total_ns[nid] += d
            p = parents[i]
            if p >= 0:
                child_ns[p] += d
        out = {}
        index = {t[0]: k for k, t in enumerate(TARGETS)}
        for k, (prefix, _, _, _, extra, _) in enumerate(TARGETS):
            out[f"{prefix}.calls"] = (calls[k], "count")
            out[f"{prefix}.self_s"] = (self_ns[k] / 1e9, "s")
            if "total" in extra:
                out[f"{prefix}.total_s"] = (total_ns[k] / 1e9, "s")
            if "raised" in extra:
                out[f"{prefix}.raised"] = (self.raised[k], "count")

        def ratio(a, b):
            return a / b if b else 0.0

        out["lines.pow.exp_abs_sum"] = (self.exp_abs_sum, "count")
        out["monoid.contains_per_combine"] = (
            ratio(calls[index["monoid.contains"]], calls[index["monoid.combine"]]), "ratio")
        out["poly.monomials_of_dim.yield_ratio"] = (
            ratio(self.mono_returned, self.mono_enumerated), "ratio")
        out["poly.poly_per_bracket"] = (
            ratio(calls[index["poly.poly"]], calls[index["poisson.bracket"]]), "ratio")
        return out


# ---------------------------------------------------------------------------
# Import time of the command line, from `python -X importtime`
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4)))
    top = min(indent for _, _, indent, _ in rows)
    out = {"cli.import.total_ms": sum(
        cum for _, cum, indent, name in rows
        if indent == top and (name == "dimalg" or name.startswith("dimalg."))) / 1000}
    for mod in IMPORT_MODULES:
        self_us = sum(s for s, _, _, name in rows
                      if name == mod or (mod == "click" and name.startswith("click.")))
        out[f"cli.import.{mod}.self_ms"] = self_us / 1000
    return out


def import_profile(env, repeats: int = 5) -> dict:
    """Median over `repeats` fresh interpreters of each import figure."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dimalg.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import of dimalg.cli failed: {proc.stderr.strip()[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: (statistics.median(s[k] for s in samples), "ms") for k in samples[0]}


def _child_main(argv):
    spans_file, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- CLI-ARGS...")
    sys.path.insert(0, str(SRC))
    import dimalg.cli

    tracer = Tracer(Path(spans_file).parent)
    tracer.install()
    try:
        dimalg.cli.main(args=cli_args, prog_name="dimalg")
    finally:
        tracer.write_spans(Path(spans_file))


if __name__ == "__main__":
    _child_main(sys.argv[1:])
