"""Every name the benchmark's traced run wraps still exists.

`perfbench/tracer.py` wraps each TARGETS entry by `getattr` on its dimalg
module or class, so deleting a traced name would break
`python perfbench/run.py --trace 1` while every other test stays green.
The tracer is loaded read-only from its path (it imports only the
standard library at module level) and writes no bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = _tracer_targets()
    assert targets
    for prefix, mod, cls, attr, _, _ in targets:
        module = importlib.import_module(f"dimalg.{mod}")
        owner = getattr(module, cls) if cls else module
        where = cls or f"dimalg.{mod}"
        assert callable(getattr(owner, attr, None)), f"{prefix}: {where} has no {attr!r}"
