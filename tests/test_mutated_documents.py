"""Every mutated document ends in exit 0, 1 or 2, never a traceback.

Each case takes one of the shipped documents (the SI registry, the
golden structure, the canonical Poisson algebra), applies one mutation
(drop a key or list item, change a value's JSON type, lengthen or
shorten a list, rename a string or key to another name from the same
document, or set a table cell to another name its table holds), and
runs the CLI on it in process.  An input error (exit 2)
is at most one line on stderr.  A structure that is checked (exit 0 or
1) gets the verdict of the independent table oracle.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import run_cli
from test_table_oracle import table_verdict

REPO = Path(__file__).parent.parent / "data"
DOCUMENTS = {
    "registry": (
        REPO / "registries" / "si_demo.json",
        [["eval", "300 cm^3 / (2.2 L/min)", "--to", "s", "--registry", "{}"]],
    ),
    "structure": (REPO / "structures" / "product_ring_mod5_z2.json", [["check", "{}"]]),
    "poisson": (
        REPO / "poisson" / "canonical_qp.json",
        [["poisson", "check", "{}"], ["poisson", "reduce", "{}", "--cutoff", "3"]],
    ),
}
RETYPED = [None, True, 7, 2.5, "x", [], {}]


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, path + (key,))


def _names(doc) -> list:
    """Every string and object key in a document, sorted, plus a fresh name."""
    out = []
    for _, value in _nodes(doc):
        if isinstance(value, str):
            out.append(value)
        elif isinstance(value, dict):
            out.extend(value)
    return sorted(set(out)) + ["zz"]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _cells(doc) -> list:
    """Table cells, the strings two dict levels below a top-level key
    (`mul[a][b]`, `add[d][a][b]`, `monoid.op[d][e]`), each with the other
    names that the cells of its table hold: a cell set to one of them
    keeps the document's shape, so it is checked."""
    cells = [(p, v) for p, v in _nodes(doc) if isinstance(v, str) and len(p) >= 3
             and isinstance(_at(doc, p[:-1]), dict) and isinstance(_at(doc, p[:-2]), dict)]
    held: dict = {}
    for path, value in cells:
        held.setdefault(path[0], set()).add(value)
    return [(path, sorted(held[path[0]] - {value})) for path, value in cells
            if len(held[path[0]]) > 1]


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    cells = _cells(doc)
    # a document with tables gets as many cell changes as other mutations
    kinds = ["drop", "retype", "lengthen", "shorten", "rename"]
    kind = draw(st.sampled_from(kinds + ["recell"] * len(kinds) * bool(cells)))
    if kind in ("drop", "retype"):
        path, value = draw(st.sampled_from(nodes[1:]))
        parent = _at(doc, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(
                [v for v in RETYPED if type(v) is not type(value)]
            ))
    elif kind in ("lengthen", "shorten"):
        lists = [v for _, v in nodes if isinstance(v, list) and (v or kind == "lengthen")]
        target = draw(st.sampled_from(lists))
        if kind == "shorten":
            target.pop()
        else:
            target.append(copy.deepcopy(target[-1]) if target else "x")
    elif kind == "recell":
        path, names = draw(st.sampled_from(cells))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(names))
    else:
        names = _names(doc)
        spots = [(p, None) for p, v in nodes if isinstance(v, str)]
        spots += [(p, k) for p, v in nodes if isinstance(v, dict) for k in v]
        path, key = draw(st.sampled_from(spots))
        new = draw(st.sampled_from(names))
        if key is None:
            _at(doc, path[:-1])[path[-1]] = new
        else:
            obj = _at(doc, path)
            obj[new] = obj.pop(key)
    return kind, doc


def _run(kind, doc):
    _, commands = DOCUMENTS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            args = [str(path) if a == "{}" else a for a in command]
            r = run_cli(args)
            assert r.exit_code in (0, 1, 2), (args, r.output)
            assert r.exception is None or isinstance(r.exception, SystemExit), (
                args, r.exc_info,
            )
            if r.exit_code == 2:
                assert len(r.stderr.splitlines()) <= 1, (args, r.stderr)
            elif kind == "structure":
                assert r.exit_code == table_verdict(doc), (args, r.output)


def _fuzz(kind):
    source = json.loads(DOCUMENTS[kind][0].read_text())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(source))
    def test(case):
        _run(kind, case[1])

    return test


test_mutated_registry_exits_cleanly = _fuzz("registry")
test_mutated_structure_exits_cleanly = _fuzz("structure")
test_mutated_poisson_exits_cleanly = _fuzz("poisson")
