"""The value records: immutable, equal and hashed by their fields, with a
Name(field=value, ...) repr and fixed constructor signatures; and a CLI
start-up that does not pay for `dataclasses`, `inspect` or the graph
families that only `enumerate` builds."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singinv.cli import parse_input
from singinv.continuant import pullback_end_bound
from singinv.graph import intersection_matrix
from singinv.invariants import analyze
from singinv.report import build_report

ROOT = Path(__file__).resolve().parent.parent

# parameter names and defaults, in order, of every public record type
SIGNATURES = {
    "Vertex": "id weight genus=0",
    "Edge": "a b multiplicity=1",
    "IntersectionMatrix": "entries",
    "BoundaryComponent": "name coeff meets",
    "BoundaryData": "components=()",
    "GraphShape": "kind length=None ends=None",
    "Classification": "kind shape log_terminal log_canonical",
    "DeltaPrime": "kind value=None epsilon=None",
    "HypothesisCheck": "m2 min_mc delta delta_prime m2_exceeds_delta mc_meets_delta_prime scaled",
    "Analysis": "cycles classification delta_y delta_by delta_min mu delta",
    "NefData": "m2 min_mc",
    "EndBound": "holds first last",
    "DualGraph": "vertices edges",
    "CycleSet": "z s k q det dq yk yq ye",
    "DeltaMinResult": "value active_set x_num x_den",
    "ExcDivisor": "coeffs",
    "SingularityReport": (
        "cycles classification delta_y delta_by delta_min mu delta graph boundary "
        "nef epsilon delta_min_oracle delta_prime theorem"
    ),
    "ScaledVariant": "basis m2_threshold mc_threshold m2_ok mc_ok",
    "ScaledCheck": "mu delta_y_variant delta_variant",
    "ParsedInput": "graph boundary nef",
}

# log-terminal, with a boundary and nef data, so the report reaches every record
DOC = json.dumps(
    {
        "vertices": [
            {"id": "E1", "weight": 2},
            {"id": "E2", "weight": 5},
            {"id": "E3", "weight": 2},
        ],
        "edges": [["E1", "E2"], ["E2", "E3"]],
        "boundary": [{"name": "C1", "coeff": "1/2", "meets": {"E2": 1}}],
        "nef": {"M2": "2", "minMC": "1"},
    }
)


def _records() -> dict:
    """One record of each type, by type name, built afresh on every call."""
    parsed = parse_input(DOC)
    report = build_report(parsed.graph, parsed.boundary, parsed.nef, verify_delta_min=True)
    found: dict = {}

    def walk(value):
        if hasattr(value, "_fields"):
            found.setdefault(type(value).__name__, value)
            for name in value._fields:
                walk(getattr(value, name))
        elif isinstance(value, tuple):
            for item in value:
                walk(item)

    for root in (
        parsed,
        report,
        analyze(parsed.graph, parsed.boundary),
        report.cycles.fundamental,
        intersection_matrix(parsed.graph),
        pullback_end_bound((2, 5, 2), (0, 1, 0)),
    ):
        walk(root)
    return found


def _fields(record) -> list:
    return [getattr(record, name) for name in record._fields]


def test_every_record_type_is_reached_and_keeps_its_signature():
    records = _records()
    assert sorted(records) == sorted(SIGNATURES)
    for name, record in records.items():
        params = inspect.signature(type(record)).parameters.values()
        assert " ".join(
            p.name + (f"={p.default!r}" if p.default is not p.empty else "") for p in params
        ) == SIGNATURES[name]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_records_with_equal_fields_are_equal_and_hash_alike():
    first, second = _records(), _records()
    for name, a in first.items():
        b = second[name]
        assert a == b and hash(a) == hash(b), name
        cls = type(a)
        rebuilt = [cls(*_fields(a)), cls(**dict(zip(a._fields, _fields(a))))]
        assert all(r == a and hash(r) == hash(a) for r in rebuilt), name
    assert first["DualGraph"] is not second["DualGraph"]


def test_records_are_immutable():
    for name, record in _records().items():
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        # nor can a cached view be overwritten or an attribute added
        with pytest.raises(AttributeError):
            record.extra = None


def test_record_repr_names_the_type_and_its_fields():
    for name, record in _records().items():
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(record._fields, _fields(record)))
        assert repr(record) == f"{name}({fields})"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import singinv.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "singinv.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "singinv.families"}
