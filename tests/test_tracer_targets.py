"""The benchmark's span tracer (perfbench/spans.py) wraps singinv
functions that it looks up by module and name when it installs itself,
so a rename in `src/` would break `perfbench/run.py --trace 1`.  This
test reads the tracer's TARGETS with `ast`, without importing the
benchmark, and checks that every one resolves."""

import ast
import importlib
import json
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS.name}")


def test_every_tracer_target_resolves_in_singinv():
    targets = _targets()
    assert targets
    for name, (module, attr) in targets.items():
        assert module == "singinv" or module.startswith("singinv."), name
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    # the tracer also swaps the json module the CLI serialises through
    assert importlib.import_module("singinv.cli").json is json
