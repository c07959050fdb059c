import gc
import hashlib
import itertools
import json
import re
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import dense_form, matvec, star_with_tail
from singinv.cli import (
    MAX_COMPONENTS,
    MAX_EDGES,
    MAX_INTEGER,
    MAX_VERTICES,
    InputError,
    main,
    parse_input,
    parse_rational,
)
from singinv.families import chain_family_size, fork_graph, iter_chain_weights
from singinv.graph import build_graph, intersection_matrix, validate
from singinv.invariants import delta_min
from singinv.linalg import Factor
from singinv.report import NefData

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLES = REPO_ROOT / "samples"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational():
    assert parse_rational(3, "x") == 3
    assert parse_rational("3/4", "x") == Fraction(3, 4)
    assert parse_rational("-2", "x") == -2
    for bad in (0.5, "0.5", "1/0", True, None, "3 / 4"):
        with pytest.raises(InputError, match="non-rational"):
            parse_rational(bad, "x")


def test_parse_input_minimal():
    parsed = parse_input('{"vertices": [{"id": "E1", "weight": 2}]}')
    assert parsed.graph.n == 1
    assert parsed.graph.vertices[0].weight == 2
    assert parsed.boundary.is_empty()
    assert parsed.nef is None
    null = parse_input('{"vertices": [{"id": "E1", "weight": 2}], "boundary": null}')
    assert null.boundary.is_empty()


def test_parse_input_boundary_coefficient_is_exact():
    parsed = parse_input(
        '{"vertices": [{"id": "E1", "weight": 3}],'
        ' "boundary": [{"name": "C", "coeff": "3/4", "meets": {"E1": 1}}]}'
    )
    comp = parsed.boundary.components[0]
    assert comp.coeff == Fraction(3, 4)
    assert comp.meets == (1,)


def test_parse_input_nef():
    parsed = parse_input(
        '{"vertices": [{"id": "E1", "weight": 2}], "nef": {"M2": "7/5", "minMC": 1}}'
    )
    assert parsed.nef == NefData(m2=Fraction(7, 5), min_mc=Fraction(1))


@pytest.mark.parametrize(
    "text,message",
    [
        ("{", "syntax error"),
        ("[]", "top level"),
        ('{"vertices": []}', "nonempty"),
        ('{"vertices": [{"id": "E1", "weight": 2}], "extra": 1}', "unknown top-level"),
        (
            '{"vertices": [{"id": "E1", "weight": 2}],'
            ' "boundary": [{"name": "C", "coeff": "5/4", "meets": {}}]}',
            r"out of \[0, 1\]",
        ),
        (
            '{"vertices": [{"id": "E1", "weight": 2}],'
            ' "boundary": [{"name": "C", "coeff": 0.5, "meets": {}}]}',
            "non-rational",
        ),
        (
            '{"vertices": [{"id": "E1", "weight": 2}],'
            ' "boundary": [{"name": "C", "coeff": "1/2", "meets": {"E9": 1}}]}',
            "unknown vertex reference",
        ),
        ('{"vertices": [{"id": "E1", "weight": 2}], "edges": [["E1"]]}', "expected"),
        (
            '{"vertices": [{"id": "E1", "weight": 2}], "nef": {"M2": 1}}',
            "required",
        ),
        ('{"vertices": [{"id": "E1", "weight": 2}], "boundary": {}}', "must be a list"),
        ('{"vertices": [{"id": "E1", "weight": 2}], "boundary": false}', "must be a list"),
        ('{"vertices": [{"id": "E1", "weight": 2}], "boundary": 0}', "must be a list"),
        ('{"vertices": [{"id": "E1", "weight": 2}], "boundary": ""}', "must be a list"),
    ],
)
def test_parse_input_errors(text, message):
    with pytest.raises(InputError, match=message):
        parse_input(text)


_V = [{"id": "E1", "weight": 2}, {"id": "E'2", "weight": 3}]
_E = [["E1", "E'2"]]


def _bad_meets(count):
    return {"vertices": _V, "edges": _E,
            "boundary": [{"name": "C", "coeff": "1/2", "meets": {"E1": 1, "E'2": count}}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": [_V[0], {"id": "", "weight": 2}]},
         "vertices[1].id: expected a nonempty string, got ''"),
        ({"vertices": [_V[0], {"id": 7, "weight": 2}]},
         "vertices[1].id: expected a nonempty string, got 7"),
        ({"vertices": [_V[0], {"id": "E2", "weight": "2"}]},
         "vertices[1].weight: expected an integer, got '2'"),
        ({"vertices": [_V[0], {"id": "E2", "weight": True}]},
         "vertices[1].weight: expected an integer, got True"),
        ({"vertices": [_V[0], {"id": "E2"}]},
         "vertices[1].weight: expected an integer, got None"),
        ({"vertices": [_V[0], {"id": "E2", "weight": 0}]},
         "vertices[1].weight: must be >= 1, got 0"),
        ({"vertices": [_V[0], {"id": "E2", "weight": 2, "genus": -1}]},
         "vertices[1].genus: must be >= 0, got -1"),
        ({"vertices": [_V[0], {"id": "E2", "weight": 2, "genus": 1.5}]},
         "vertices[1].genus: expected an integer, got 1.5"),
        ({"vertices": _V, "edges": [_E[0], ["", "E1"]]},
         "edges[1][0]: expected a nonempty string, got ''"),
        ({"vertices": _V, "edges": [_E[0], ["E1", None]]},
         "edges[1][1]: expected a nonempty string, got None"),
        ({"vertices": _V, "edges": [_E[0], ["E1", "E'2", 0]]},
         "edges[1][2]: must be >= 1, got 0"),
        ({"vertices": _V, "edges": [_E[0], ["E1", "E'2", "1"]]},
         "edges[1][2]: expected an integer, got '1'"),
        ({"vertices": _V, "edges": _E,
          "boundary": [{"name": "C", "coeff": "1/2"}, {"name": ""}]},
         "boundary[1].name: expected a nonempty string, got ''"),
        ({"vertices": _V, "edges": _E,
          "boundary": [{"name": "C", "coeff": "1/2"}, {"name": "D", "coeff": "0.5"}]},
         "boundary[1].coeff: non-rational literal '0.5' (use an integer or a 'p/q' string)"),
        ({"vertices": _V, "edges": _E,
          "boundary": [{"name": "C", "coeff": "1/2"}, {"name": "D"}]},
         "boundary[1].coeff: non-rational literal None (use an integer or a 'p/q' string)"),
        ({"vertices": _V, "edges": _E,
          "boundary": [{"name": "C", "coeff": "1/2"}, {"name": "D", "coeff": "3/2"}]},
         "boundary[1].coeff: coefficient 3/2 out of [0, 1]"),
        (_bad_meets(-1), "boundary[0].meets[\"E'2\"]: must be >= 0, got -1"),
        (_bad_meets("1"), "boundary[0].meets[\"E'2\"]: expected an integer, got '1'"),
        (_bad_meets(-1000001), "boundary[0].meets[\"E'2\"]: integer exceeds the size cap 1000000"),
        ({"vertices": _V, "edges": _E,
          "boundary": [{"name": "C", "coeff": "1/2", "meets": {"E2": 1}}]},
         "boundary[0].meets: unknown vertex reference 'E2'"),
        ({"vertices": _V, "edges": _E, "nef": {"M2": 0.5, "minMC": 1}},
         "nef.M2: non-rational literal 0.5 (use an integer or a 'p/q' string)"),
        ({"vertices": _V, "edges": _E, "nef": {"M2": "1/1000001", "minMC": 1}},
         "nef.M2: integer exceeds the size cap 1000000"),
        ({"vertices": _V, "edges": _E, "nef": {"M2": 1, "minMC": "1/0"}},
         "nef.minMC: non-rational literal '1/0' (use an integer or a 'p/q' string)"),
        ({"vertices": _V, "edges": _E, "nef": {"M2": 1, "minMC": False}},
         "nef.minMC: non-rational literal False"),
        ({"vertices": [_V[0], {"id": "E2", "weight": 1000001}]},
         "vertices[1].weight: integer exceeds the size cap 1000000"),
    ],
)
def test_parse_input_error_messages_are_pinned(doc, message):
    # one bad document per field kind, with the message of each raising
    # branch exactly as it reads; each field's location is built only there
    with pytest.raises(InputError) as info:
        parse_input(json.dumps(doc))
    assert str(info.value) == message


def test_parse_input_eliminates_nothing(monkeypatch):
    # on the 100-vertex complete graph, a document that parses, one with a
    # boundary coefficient of 3/2 and one with half its nef data build and
    # border no Factor: a refused boundary or nef block costs no
    # elimination of N.  Validation eliminates N once, all 100 rows
    appended = []
    real_border, real_prefix = Factor.border, Factor.prefix

    def border(factor, rows):
        rows = list(rows)
        appended.append(len(rows))
        return real_border(factor, rows)

    def prefix(factor, p):
        appended.append(("prefix", p))
        return real_prefix(factor, p)

    monkeypatch.setattr(Factor, "border", border)
    monkeypatch.setattr(Factor, "prefix", prefix)
    ids = [f"E{k}" for k in range(100)]
    doc = {
        "vertices": [{"id": v, "weight": 100} for v in ids],
        "edges": [[a, b] for k, a in enumerate(ids) for b in ids[k + 1:]],
        "boundary": [{"name": "C1", "coeff": "1/2", "meets": {"E0": 1}}],
        "nef": {"M2": 2, "minMC": 1},
    }
    parsed = parse_input(json.dumps(doc))
    for bad, message in (
        ({"boundary": [{"name": "C1", "coeff": "3/2"}]}, "out of"),
        ({"nef": {"M2": 2}}, "both 'M2' and 'minMC'"),
    ):
        with pytest.raises(InputError, match=message):
            parse_input(json.dumps({**doc, **bad}))
    assert appended == []
    validate(parsed.graph)
    assert appended == [100]


def test_an_unwritable_stdout_is_an_io_error(monkeypatch, tmp_path, capsys):
    # io.UnsupportedOperation is both an OSError and a ValueError: output
    # that cannot be written exits with the I/O code 3, not the input code 1
    unwritable = tmp_path / "out"
    unwritable.write_text("")
    with unwritable.open() as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        code = main(["analyze", str(SAMPLES / "a1.json")])
    monkeypatch.undo()
    assert code == 3
    assert capsys.readouterr().err.startswith("error: not writable")


def test_the_readme_library_block_runs(capsys):
    # the python block under README "Library" runs as written: its asserts
    # (delta_min 81/80 and mu 1/10 on chain(2, 5, 2)) hold, and its
    # reweighted loop prints delta_min of chain(2, w, 2) as a fresh build
    # of each chain gives it
    readme = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    assert "== Fraction(81, 80)" in block and "== Fraction(1, 10)" in block
    exec(compile(block, "README.md", "exec"), {})
    expected = []
    for w in range(2, 7):
        g = build_graph([("E1", 2), ("E2", w), ("E3", 2)], [("E1", "E2"), ("E2", "E3")])
        expected.append(f"{w} {delta_min(g).value}")
    assert capsys.readouterr().out.splitlines() == expected


def _chain_doc(n, weight=3, **extra):
    ids = [f"E{k + 1}" for k in range(n)]
    doc = {
        "vertices": [{"id": v, "weight": weight} for v in ids],
        "edges": [[a, b] for a, b in zip(ids, ids[1:])],
    }
    return json.dumps(doc | extra)


def test_vertex_and_component_caps():
    assert parse_input(_chain_doc(MAX_VERTICES)).graph.n == MAX_VERTICES == 100
    with pytest.raises(InputError, match="'vertices' has 101 entries, more than the cap of 100"):
        parse_input(_chain_doc(MAX_VERTICES + 1))
    comps = [
        {"name": f"C{k}", "coeff": "1/2", "meets": {"E1": 1}}
        for k in range(MAX_COMPONENTS + 1)
    ]
    capped = parse_input(_chain_doc(2, boundary=comps[:-1]))
    assert len(capped.boundary.components) == MAX_COMPONENTS == 32
    with pytest.raises(InputError, match="'boundary' has 33 entries, more than the cap of 32"):
        parse_input(_chain_doc(2, boundary=comps))


def test_edge_cap():
    # one entry per vertex pair at 100 vertices; parallel edges between
    # two vertices count one entry each
    doc = json.loads(_chain_doc(2))
    doc["edges"] = [["E1", "E2"]] * MAX_EDGES
    graph = parse_input(json.dumps(doc)).graph
    assert intersection_matrix(graph).entries[0][1] == MAX_EDGES == 4950
    doc["edges"].append(["E1", "E2"])
    with pytest.raises(InputError, match="'edges' has 4951 entries, more than the cap of 4950"):
        parse_input(json.dumps(doc))


_INTEGER_FIELDS = {
    # field -> document with the integer literal X in that field
    "vertices[0].weight": '{"vertices": [{"id": "E1", "weight": X}]}',
    "vertices[0].genus": '{"vertices": [{"id": "E1", "weight": 2, "genus": X}]}',
    "edges[0][2]": (
        '{"vertices": [{"id": "E1", "weight": 2}, {"id": "E2", "weight": 2}],'
        ' "edges": [["E1", "E2", X]]}'
    ),
    "boundary[0].meets['E1']": (
        '{"vertices": [{"id": "E1", "weight": 2}],'
        ' "boundary": [{"name": "C", "coeff": "1/2", "meets": {"E1": X}}]}'
    ),
    "boundary[0].coeff": (
        '{"vertices": [{"id": "E1", "weight": 2}],'
        ' "boundary": [{"name": "C", "coeff": "1/X", "meets": {"E1": 1}}]}'
    ),
    "nef.M2": '{"vertices": [{"id": "E1", "weight": 2}], "nef": {"M2": X, "minMC": 0}}',
    "nef.minMC": (
        '{"vertices": [{"id": "E1", "weight": 2}], "nef": {"M2": 1, "minMC": "1/X"}}'
    ),
}


@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_integer_cap(field):
    template = _INTEGER_FIELDS[field]
    parse_input(template.replace("X", str(MAX_INTEGER)))
    message = rf"^{re.escape(field)}: integer exceeds the size cap 1000000$"
    for too_big in (MAX_INTEGER + 1, 10**7, "9" * 5000):
        with pytest.raises(InputError, match=message):
            parse_input(template.replace("X", str(too_big)))


def test_integer_cap_on_negative_and_rational_parts():
    assert parse_rational("-1000000/1000000", "x") == -1
    assert parse_rational("0001/2", "x") == Fraction(1, 2)
    for bad in ("-1000001", "1000001/2", "1/1000001", -(10**6) - 1, "-" + "9" * 5000):
        with pytest.raises(InputError, match="^x: integer exceeds the size cap"):
            parse_rational(bad, "x")
    with pytest.raises(InputError, match=r"vertices\[0\].weight: integer exceeds"):
        parse_input('{"vertices": [{"id": "E1", "weight": -' + "9" * 5000 + "}]}")


def test_oversized_literal_names_the_field(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(_chain_doc(2, weight=0).replace('"weight": 0', '"weight": ' + "9" * 5000, 1))
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: vertices[0].weight: integer exceeds the size cap 1000000\n"
    # faults after an oversized literal are still reported as such
    big = "9" * 5000
    with pytest.raises(InputError, match="syntax error"):
        parse_input('{"vertices": [{"id": "E1", "weight": ' + big + "}] oops")
    with pytest.raises(InputError, match="nested too deeply"):
        parse_input('{"weight": ' + big + ', "x": ' + "[" * 200_000 + "]" * 200_000 + "}")


def test_deeply_nested_json_is_validation_error(tmp_path, capsys):
    depth = 200_000
    with pytest.raises(InputError, match="nested too deeply"):
        parse_input("[" * depth + "]" * depth)
    deep = tmp_path / "deep.json"
    deep.write_text('{"vertices": ' + "[" * depth + "]" * depth + "}")
    code, out, err = _run(capsys, ["analyze", str(deep)])
    assert code == 1
    assert out == ""
    assert err == "error: document is nested too deeply\n"


def test_analyze_samples_exit_zero(capsys):
    for name in ("smooth", "a1", "chain_2_3", "chain_2_5_2_boundary"):
        code, out, err = _run(capsys, ["analyze", str(SAMPLES / f"{name}.json")])
        assert code == 0, err
        assert "delta_y" in out


def test_analyze_is_deterministic(capsys):
    path = str(SAMPLES / "chain_2_5_2_boundary.json")
    code1, out1, _ = _run(capsys, ["analyze", path, "--json"])
    code2, out2, _ = _run(capsys, ["analyze", path, "--json"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_json_rationals_reparse(capsys):
    code, out, _ = _run(
        capsys, ["analyze", str(SAMPLES / "chain_2_5_2_boundary.json"), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_min"]["value"] == "81/80"
    assert Fraction(doc["delta_min"]["value"]) == Fraction(81, 80)
    assert Fraction(doc["mu"]) == Fraction(1, 10)
    for key in ("fundamental_cycle", "canonical_cycle", "boundary_canonical_cycle"):
        for entry in doc[key]:
            Fraction(entry)  # must re-parse losslessly


def test_analyze_echo_round_trips(capsys):
    path = SAMPLES / "chain_2_5_2_boundary.json"
    code, out, _ = _run(capsys, ["analyze", str(path), "--json"])
    assert code == 0
    echo = json.loads(out)["input"]
    reparsed = parse_input(json.dumps(echo))
    original = parse_input(path.read_text())
    assert reparsed == original


def test_analyze_oracle_flag(capsys):
    code, out, _ = _run(
        capsys,
        ["analyze", str(SAMPLES / "chain_2_5_2_boundary.json"), "--json", "--oracle"],
    )
    assert code == 0
    oracle = json.loads(out)["delta_min"]["oracle"]
    assert oracle == {"value": "81/80", "matches": True}


def test_an_oracle_with_another_minimizer_is_a_mismatch(monkeypatch, capsys):
    # the oracle's value equals the LCP's but its x0 does not: the report
    # says so and analyze exits 2
    import singinv.report as report_module

    real = report_module.delta_min_exhaustive

    def moved(graph, boundary):
        result = real(graph, boundary)
        return result._replace(x_num=(result.x_num[0] + 1,) + result.x_num[1:])

    monkeypatch.setattr(report_module, "delta_min_exhaustive", moved)
    path = str(SAMPLES / "chain_2_5_2_boundary.json")
    error = "error: delta_min oracle disagrees with the LCP solution\n"
    code, out, err = _run(capsys, ["analyze", path, "--oracle", "--json"])
    assert (code, err) == (2, error)
    assert json.loads(out)["delta_min"]["oracle"] == {"value": "81/80", "matches": False}
    code, out, err = _run(capsys, ["analyze", path, "--oracle"])
    assert (code, err) == (2, error)
    assert "delta_min oracle: 81/80  (matches: no)" in out


def test_analyze_missing_file_is_io_error(capsys):
    code, _, err = _run(capsys, ["analyze", "no-such-file.json"])
    assert code == 3
    assert "error" in err


def test_analyze_invalid_graph_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "disconnected.json"
    bad.write_text(
        '{"vertices": [{"id": "a", "weight": 2}, {"id": "b", "weight": 2}]}'
    )
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 1
    assert "not connected" in err


def test_laufer_step_cap_is_validation_error(tmp_path, capsys, monkeypatch):
    # a valid 100-vertex graph whose fundamental cycle takes 21 rounds (a
    # weight-2 center, 16 leaves of weight 10^6 joined by edges of
    # multiplicity 251, and a tail of 83), with the round cap at 0 so
    # that it is refused
    import singinv.cycles as cycles_module

    monkeypatch.setattr(cycles_module, "_ROUND_CAP", 0)
    vertices, edges = star_with_tail(2, [(MAX_INTEGER, 251)] * 16, 83)
    path = tmp_path / "heavy.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [{"id": v, "weight": w} for v, w in vertices],
                "edges": [list(e) for e in edges],
            }
        )
    )
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap of 0 rounds of its least-element solver" in err
    assert "Traceback" not in err


def test_analyze_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 1
    assert "syntax error" in err


def test_analyze_and_check_build_only_the_printed_form(monkeypatch, capsys):
    import singinv.cli as cli_module

    def unused(report):
        raise AssertionError("built a form that is not printed")

    sample = str(SAMPLES / "chain_2_3.json")
    for command in ("analyze", "check"):
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "render_text", unused)
            code, out, _ = _run(capsys, [command, sample, "--json"])
            assert code == 0 and json.loads(out)["input"]["nef"] == {"M2": "2", "minMC": "1"}
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "report_to_dict", unused)
            code, out, _ = _run(capsys, [command, sample])
            assert code == 0 and out.startswith("configuration: 2 vertices")


def test_check_requires_nef(capsys):
    code, _, err = _run(capsys, ["check", str(SAMPLES / "a1.json")])
    assert code == 1
    assert "nef" in err


def test_check_verdicts(tmp_path, capsys):
    code, out, _ = _run(capsys, ["check", str(SAMPLES / "chain_2_3.json")])
    assert code == 0
    assert "satisfied: yes" in out
    borderline = tmp_path / "borderline.json"
    doc = json.loads((SAMPLES / "chain_2_3.json").read_text())
    doc["nef"] = {"M2": "7/5", "minMC": "1"}
    borderline.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["check", str(borderline), "--json"])
    assert code == 0
    theorem = json.loads(out)["theorem"]
    assert theorem["m2_exceeds_delta"] is False
    assert theorem["hypotheses_satisfied"] is False


def test_check_non_log_terminal_passes_trivially(tmp_path, capsys):
    path = tmp_path / "cusp.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "a", "weight": 3},
                    {"id": "b", "weight": 3},
                    {"id": "c", "weight": 3},
                ],
                "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
                "nef": {"M2": "1/100", "minMC": 0},
            }
        )
    )
    code, out, _ = _run(capsys, ["check", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["log_terminal"] is False
    assert doc["theorem"]["hypotheses_satisfied"] is True
    assert doc["delta"] == "0"


def _d4_doc(nef=None):
    doc = {
        "vertices": [
            {"id": "c", "weight": 2},
            {"id": "a1", "weight": 2},
            {"id": "a2", "weight": 2},
            {"id": "a3", "weight": 2},
        ],
        "edges": [["c", "a1"], ["c", "a2"], ["c", "a3"]],
    }
    if nef:
        doc["nef"] = nef
    return doc


def test_analyze_epsilon_flag_reaches_dihedral_delta_prime(tmp_path, capsys):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(_d4_doc()))
    code, out, _ = _run(capsys, ["analyze", str(path), "--json", "--epsilon", "1/7"])
    assert code == 0
    dp = json.loads(out)["delta_prime"]
    assert dp == {"kind": "any_positive", "value": None, "epsilon": "1/7"}
    code, _, err = _run(capsys, ["analyze", str(path), "--epsilon", "0"])
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_rejected_epsilon_names_the_problem(capsys, command):
    sample = str(SAMPLES / "chain_2_3.json")
    for value, message in (
        ("1/10000000", f"'1/10000000': integer exceeds the size cap {MAX_INTEGER}"),
        ("0", "must be positive, got 0"),
        ("-1/2", "must be positive, got -1/2"),
        ("x", "'x': non-rational literal 'x'"),
    ):
        code, out, err = _run(capsys, [command, sample, f"--epsilon={value}"])
        assert code == 1
        assert out == ""
        assert f"argument --epsilon: {message}" in err
        assert "_epsilon_arg" not in err and "invalid" not in err


def test_check_dihedral_needs_positive_mc(tmp_path, capsys):
    zero_mc = tmp_path / "d4_zero.json"
    zero_mc.write_text(json.dumps(_d4_doc({"M2": "3", "minMC": 0})))
    code, out, _ = _run(capsys, ["check", str(zero_mc), "--json"])
    assert code == 0
    assert json.loads(out)["theorem"]["hypotheses_satisfied"] is False
    tiny_mc = tmp_path / "d4_tiny.json"
    tiny_mc.write_text(json.dumps(_d4_doc({"M2": "3", "minMC": "1/1000000"})))
    code, out, _ = _run(capsys, ["check", str(tiny_mc), "--json"])
    assert code == 0
    assert json.loads(out)["theorem"]["hypotheses_satisfied"] is True


def _as_json_dumps_writes_it(out):
    # the rows are written by hand, one at a time; the whole document must
    # be what json.dumps(..., indent=2) writes for the value it parses to
    return out == json.dumps(json.loads(out), indent=2) + "\n"


def test_enumerate_tiny_families(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "1", "--max-weight", "2", "--json"])
    assert code == 0 and _as_json_dumps_writes_it(out)
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["rows"][0]["delta_y"] == "2"
    assert doc["rows"][0]["kind"] == "rdp"
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "2", "--max-weight", "3", "--json"])
    assert code == 0 and _as_json_dumps_writes_it(out)
    rows = {row["label"]: row for row in json.loads(out)["rows"]}
    assert rows["chain(2,3)"]["delta_y"] == "7/5"
    assert all(Fraction(row["delta_y"]) <= 4 for row in rows.values())
    # no rows at all: the empty list spliced into the tail
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "0", "--json"])
    assert code == 0 and _as_json_dumps_writes_it(out)
    assert json.loads(out) == {"rows": [], "count": 0, "failures": []}
    # the forks alone, no chains: their labels, shapes and kinds
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "0", "--forks", "--json"])
    assert code == 0 and _as_json_dumps_writes_it(out)
    doc = json.loads(out)
    assert [row["label"] for row in doc["rows"]] == [
        "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8", "smooth"
    ]
    assert [row["shape"] for row in doc["rows"]] == ["fork_d"] * 5 + ["fork_e"] * 3 + ["chain"]
    assert [row["kind"] for row in doc["rows"]] == ["rdp"] * 8 + ["smooth"]
    assert (doc["count"], doc["failures"]) == (9, [])


def test_enumerate_long_rdp_chains(capsys):
    # A_31 has far more vertices than a search over active sets can visit
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "31", "--max-weight", "2"])
    assert code == 0
    assert "total: 31 rows, 0 failures" in out


def test_enumerate_row_limit(capsys):
    code, _, err = _run(
        capsys, ["enumerate", "--max-length", "6", "--max-weight", "6", "--limit", "10"]
    )
    assert code == 1
    assert "row limit" in err


def test_enumerate_rejects_negative_caps(capsys):
    for flag in ("--limit", "--max-length"):
        code, out, err = _run(capsys, ["enumerate", flag, "-1"])
        assert (code, out) == (1, "")
        assert err == f"error: {flag} -1 is negative\n"
    # zero is a cap, not an error: no chains, an empty table
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "0"])
    assert code == 0 and out.endswith("\ntotal: 0 rows, 0 failures\n")


def test_enumerate_huge_family_fails_fast(capsys):
    # counting stops once the family passes --limit, so no 5**k with
    # thousands of digits is summed or printed
    for length in ("20000", "200000"):
        started = time.perf_counter()
        code, out, err = _run(capsys, ["enumerate", "--max-length", length])
        assert (code, out) == (1, "")
        assert err == (
            "error: family has more than 100000 rows, the row limit "
            "(raise it with --limit)\n"
        )
        assert time.perf_counter() - started < 2
    # a family within the row limit still may not outgrow the vertex cap
    code, out, err = _run(capsys, ["enumerate", "--max-length", "101", "--max-weight", "2"])
    assert (code, out) == (1, "")
    assert err == "error: --max-length 101 exceeds the vertex cap 100\n"


def test_chain_family_size_counts_the_sweep():
    for length in range(5):
        for weight in range(2, 6):
            size = sum(1 for _ in iter_chain_weights(length, weight))
            assert chain_family_size(length, weight) == size
            for stop in range(size + 2):
                early = chain_family_size(length, weight, stop=stop)
                assert (early > stop) == (size > stop) and early <= size
    assert chain_family_size(10**12, 2, stop=5) == 10**12  # closed form, no loop
    assert chain_family_size(3, 1) == 0


def test_enumerate_detects_violations(monkeypatch, capsys):
    import singinv.cli as cli_module

    real = cli_module.analyze
    monkeypatch.setattr(
        cli_module,
        "analyze",
        lambda graph: real(graph)._replace(delta_y=Fraction(99)),
    )
    code, _, err = _run(capsys, ["enumerate", "--max-length", "1", "--max-weight", "2"])
    assert code == 2
    assert "assertion failed" in err


def test_enumerate_json_detects_violations(monkeypatch, capsys):
    # one bad row among six: the document still parses, carries every row
    # and names the bad one under "failures"
    import singinv.cli as cli_module

    real = cli_module.analyze

    def analyze(graph):
        a = real(graph)
        if [v.weight for v in graph.vertices] == [2, 3]:
            return a._replace(delta_y=Fraction(99))
        return a

    monkeypatch.setattr(cli_module, "analyze", analyze)
    argv = ["enumerate", "--max-length", "2", "--max-weight", "3", "--json"]
    code, out, err = _run(capsys, argv)
    failure = "chain(2,3): log-terminal point must have 0 < delta_y < 2, got 99"
    assert code == 2
    assert err == f"assertion failed: {failure}\n"
    assert _as_json_dumps_writes_it(out)
    doc = json.loads(out)
    assert doc["failures"] == [failure] and doc["count"] == 6
    labels = [row["label"] for row in doc["rows"]]
    assert labels == [f"chain({w})" for w in ("2", "3", "2,2", "2,3", "3,2", "3,3")]
    assert doc["rows"][3]["delta_y"] == "99"


def test_enumerate_checks_the_log_terminal_band_exactly(monkeypatch, capsys):
    # the row check 0 < delta_y < 2, taken in integers, reports a
    # log-terminal row at either bound, below 0 or just above 2, and
    # passes one just inside either bound
    import singinv.cli as cli_module

    real = cli_module.analyze
    argv = ["enumerate", "--max-length", "1", "--max-weight", "3", "--json"]
    for text, reported in (("0", True), ("2", True), ("-1/3", True), ("201/100", True),
                           ("1/1000", False), ("199/100", False)):
        value = Fraction(text)

        def analyze(graph):
            a = real(graph)
            if [v.weight for v in graph.vertices] == [3]:
                assert a.classification.log_terminal
                return a._replace(delta_y=value)
            return a

        monkeypatch.setattr(cli_module, "analyze", analyze)
        code, out, err = _run(capsys, argv)
        doc = json.loads(out)
        assert doc["rows"][1]["delta_y"] == text
        failure = f"chain(3): log-terminal point must have 0 < delta_y < 2, got {text}"
        if reported:
            assert (code, doc["failures"], err) == (2, [failure], f"assertion failed: {failure}\n")
        else:
            assert (code, doc["failures"], err) == (0, [], "")


def test_enumerate_bad_max_weight_prints_nothing(capsys):
    # the weight check runs when the first chain is drawn; rows are
    # written as they come, so it must still come before any output
    for argv in (["--max-weight", "1"], ["--max-weight", "0", "--max-length", "0"]):
        for mode in ([], ["--json"], ["--forks"]):
            code, out, err = _run(capsys, ["enumerate", *argv, *mode])
            assert (code, out) == (1, "")
            assert err == "error: max_weight must be at least 2\n"


class _Sink:
    """A stdout that counts the bytes written and keeps none of them;
    past `cap` bytes it fails like a pipe whose reader has gone."""

    def __init__(self, cap=None):
        self.size, self.cap = 0, cap

    def write(self, text):
        if self.cap is not None and self.size + len(text) > self.cap:
            raise BrokenPipeError(32, "Broken pipe")
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def test_enumerate_memory_is_flat_in_the_family_size(monkeypatch):
    # 155 rows and 3,905 rows: each row is written as soon as it is
    # checked and then dropped, so the rows' graphs and cycle sets alive
    # when the next row starts are as few at either size, and none
    # outlives the run.  They are counted by finalizers, not by traced
    # bytes, which also count blocks the interpreter keeps for reuse; a
    # cycle set is a tuple, which takes no weak reference, so every one
    # built is counted from its construction to its __del__
    import singinv.cli as cli_module
    import singinv.cycles as cycles_module

    real = cli_module.analyze
    live = 0
    alive = []  # per row: how many earlier rows' objects are alive

    def gone():
        nonlocal live
        live -= 1

    class CountedCycleSet(cycles_module.CycleSet):
        __slots__ = ()

        def __new__(cls, *fields):
            nonlocal live
            live += 1
            return super().__new__(cls, *fields)

        def __del__(self):
            gone()

    def analyze(graph):
        nonlocal live
        alive.append(live)
        result = real(graph)
        assert type(result.cycles) is CountedCycleSet
        weakref.finalize(graph, gone)
        live += 1
        return result

    monkeypatch.setattr(cycles_module, "CycleSet", CountedCycleSet)
    monkeypatch.setattr(cli_module, "analyze", analyze)
    most = []
    for length, rows in (("3", 155), ("5", 3_905)):
        monkeypatch.setattr(sys, "stdout", _Sink())
        alive.clear()
        assert main(["enumerate", "--json", "--max-length", length]) == 0
        assert sys.stdout.size > 0 and len(alive) == rows
        gc.collect()
        assert live == 0
        most.append(max(alive))
    assert most[0] == most[1] <= 2, most


def test_enumerate_stops_when_the_reader_does(monkeypatch, capsys):
    # a reader that stops early, like `singinv enumerate | head`, stops the
    # sweep at the next write instead of after all 19,530 rows
    import singinv.cli as cli_module

    real, calls = cli_module.analyze, []

    def analyze(graph):
        calls.append(1)
        return real(graph)

    monkeypatch.setattr(cli_module, "analyze", analyze)
    monkeypatch.setattr(sys, "stdout", _Sink(cap=4096))
    code = main(["enumerate"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert len(calls) < 200


def test_continuant_command(capsys):
    code, out, _ = _run(capsys, ["continuant", "2,3"])
    assert code == 0
    assert "continuant: 5" in out
    code, out, _ = _run(capsys, ["continuant", "2,3,5", "--inverse", "1", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["continuant"] == "23"
    assert doc["inverse"] == {"i": 1, "j": 3, "value": "1/23"}
    code, _, err = _run(capsys, ["continuant", "2,x"])
    assert code == 1
    code, _, err = _run(capsys, ["continuant", "1,2"])
    assert code == 1
    assert ">= 2" in err
    code, _, err = _run(capsys, ["continuant", "2,3", "--inverse", "1", "5"])
    assert code == 1
    assert "out of range" in err


def test_continuant_caps(capsys):
    at_cap = ",".join([str(MAX_INTEGER)] * MAX_VERTICES)
    code, out, _ = _run(
        capsys, ["continuant", at_cap, "--inverse", "1", str(MAX_VERTICES), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["weights"]) == MAX_VERTICES
    assert doc["inverse"]["value"] == "1/" + doc["continuant"]  # end entry of a chain
    over = [
        (at_cap + ",2", f"'weights' has {MAX_VERTICES + 1} entries, more than the cap"),
        (f"2,{MAX_INTEGER + 1}", f"weights[1]: integer exceeds the size cap {MAX_INTEGER}"),
        (f"2,-{MAX_INTEGER + 1}", "weights[1]: integer exceeds the size cap"),
        ("9" * 5000, "weights[0]: integer exceeds the size cap"),
        (",".join(["999999"] * 800), "'weights' has 800 entries, more than the cap"),
    ]
    for weights, message in over:
        for extra in ([], ["--inverse", "1", "800"]):
            code, out, err = _run(capsys, ["continuant", weights, *extra])
            assert code == 1
            assert out == ""
            assert f"error: {message}" in err
            assert "Exceeds the limit" not in err


def test_pullback_command(capsys):
    code, out, _ = _run(
        capsys, ["pullback", str(SAMPLES / "chain_2_3.json"), "--meets", "1,0", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exceptional_part"] == ["3/5", "1/5"]
    code, _, err = _run(
        capsys, ["pullback", str(SAMPLES / "chain_2_3.json"), "--meets", "1"]
    )
    assert code == 1
    assert "needs 2 entries" in err


def test_pullback_eliminates_n_once(monkeypatch, capsys):
    from singinv.linalg import Factor

    built = []
    real = Factor.__init__

    def counting(factor, rows):
        built.append([sorted(r) for r in rows])
        real(factor, rows)

    monkeypatch.setattr(Factor, "__init__", counting)
    code, out, _ = _run(
        capsys, ["pullback", str(SAMPLES / "chain_2_3.json"), "--meets", "1,0"]
    )
    assert code == 0 and "3/5" in out
    assert built == [[[(0, 2), (1, -1)], [(0, -1), (1, 3)]]]


def test_usage_errors_exit_one(capsys):
    code, _, _ = _run(capsys, ["analyze"])  # missing file argument
    assert code == 1
    code, _, _ = _run(capsys, ["no-such-command"])
    assert code == 1


def test_default_family_completes(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--forks"])
    assert code == 0
    assert "0 failures" in out
    # every row's bytes, pinned by the hash of the whole table
    expected = (REPO_ROOT / "tests" / "golden" / "enumerate_forks.sha256").read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == expected.strip()


def test_limits_chain_check_is_pinned(capsys):
    # the 32-component chain of README "Limits": a chain of 100 vertices
    # of weight 10**6 with 32 boundary components of coefficient 1/p, p the
    # 32 largest primes below 10**6, each meeting one of the first 32
    # vertices; CI diffs the installed console script against it too
    golden = REPO_ROOT / "tests" / "golden"
    source = golden / "limits_chain32_input.json"
    doc = json.loads(source.read_text())
    ids = [f"E{k + 1}" for k in range(100)]
    below = range(10**6 - 1, 999_000, -1)
    primes = [p for p in below if all(p % f for f in range(2, 1000))]
    assert doc["vertices"] == [{"id": v, "weight": 10**6} for v in ids]
    assert doc["edges"] == [list(pair) for pair in zip(ids, ids[1:])]
    assert doc["boundary"] == [
        {"name": f"C{k + 1}", "coeff": f"1/{p}", "meets": {ids[k]: 1}}
        for k, p in enumerate(primes[:32])
    ]
    code, out, _ = _run(capsys, ["check", str(source), "--json"])
    assert (code, out) == (0, (golden / "limits_chain32_check.json").read_text())


def test_limits_complete_graph_analyze_is_pinned(capsys):
    # the slowest known input of README "Limits" apart from stars: the
    # complete graph on 100 vertices of weight 10**6, every edge of
    # multiplicity 1, with 32 boundary components of coefficient 1/p, p
    # the 32 largest primes below 10**6, component k meeting vertex k
    # once; the input's bytes are rebuilt here from that definition, and
    # CI diffs the installed console script's report against the golden
    golden = REPO_ROOT / "tests" / "golden"
    source = golden / "limits_complete100_input.json"
    ids = [f"E{k + 1}" for k in range(100)]
    below = range(10**6 - 1, 999_000, -1)
    primes = [p for p in below if all(p % f for f in range(2, 1000))]
    blocks = (
        ("vertices", [{"id": v, "weight": 10**6} for v in ids]),
        ("edges", [list(pair) for pair in itertools.combinations(ids, 2)]),
        ("boundary", [{"name": f"C{k + 1}", "coeff": f"1/{p}", "meets": {ids[k]: 1}}
                      for k, p in enumerate(primes[:32])]),
    )
    text = "{\n" + ",\n".join(
        f'  "{key}": [\n' + ",\n".join("    " + json.dumps(x) for x in items) + "\n  ]"
        for key, items in blocks
    ) + "\n}\n"
    assert source.read_text() == text
    code, out, _ = _run(capsys, ["analyze", str(source), "--json"])
    assert (code, out) == (0, (golden / "limits_complete100_analyze.json").read_text())


def test_enumerate_json_is_pinned(capsys):
    # the JSON rows, pinned like the table above, and the two small
    # families that CI also diffs through the installed console script
    golden = REPO_ROOT / "tests" / "golden"
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "4", "--forks", "--json"])
    assert code == 0
    expected = (golden / "enumerate_json.sha256").read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == expected.strip()
    argv = ["enumerate", "--max-length", "2", "--max-weight", "3", "--json"]
    code, out, _ = _run(capsys, argv)
    assert (code, out) == (0, (golden / "enumerate_l2_w3.json").read_text())
    argv = ["enumerate", "--max-length", "0", "--forks", "--json"]
    code, out, _ = _run(capsys, argv)
    assert (code, out) == (0, (golden / "enumerate_forks_l0.json").read_text())


def test_enumerate_computes_each_skeleton_structure_once(monkeypatch, capsys):
    # the default family: 19,530 chains of 6 lengths, so 6 graphs built
    # from their edges, each with one walk over its edge list, one walk
    # for connectedness and one edge-structure pass; each later chain is
    # reweighted from the one before and pays only for its weights: it
    # checks them, and builds its columns, column sums, canonical degrees,
    # factor rows and their forward values, only from its first weight
    # that differs from the chain before it: 24,405 weights checked,
    # 24,405 rows appended and 24,405 carried, where a fresh build per
    # chain does 112,305 of each.  The whole document is pinned, as CI
    # pins it
    from singinv import graph as graph_module
    from singinv.linalg import Factor

    appended = carried = checked = 0
    real_border = Factor.border
    real_carry = graph_module._carry_canonical
    real_check = graph_module._check_weight

    def border(factor, rows):
        nonlocal appended
        rows = list(rows)
        appended += len(rows)
        return real_border(factor, rows)

    def carry(factor, prefix, degrees):
        nonlocal carried
        carried += len(degrees)
        return real_carry(factor, prefix, degrees)

    def check(vid, weight):
        nonlocal checked
        checked += 1
        return real_check(vid, weight)

    monkeypatch.setattr(Factor, "border", border)
    monkeypatch.setattr(graph_module, "_carry_canonical", carry)
    monkeypatch.setattr(graph_module, "_check_weight", check)

    calls = {}
    views = ((graph_module.DualGraph, "__init__"), (graph_module, "_connected"),
             (graph_module, "_branches"))
    for owner, view in views:

        def counting(*args, real=getattr(owner, view), view=view):
            calls[view] = calls.get(view, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, view, counting)
    code, out, _ = _run(capsys, ["enumerate", "--json"])
    assert code == 0
    assert json.loads(out)["count"] == 19_530
    assert calls == {"__init__": 6, "_connected": 6, "_branches": 6}
    assert appended == checked == carried == 24_405
    expected = (REPO_ROOT / "tests" / "golden" / "enumerate_json_default.sha256").read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == expected.strip()


def _one_per_line(g):
    """The input document of `g`, written one vertex and one edge per line."""
    vertices = ",\n    ".join(json.dumps({"id": v.id, "weight": v.weight}) for v in g.vertices)
    edges = ",\n    ".join(
        json.dumps([e.a, e.b] if e.multiplicity == 1 else [e.a, e.b, e.multiplicity])
        for e in g.edges
    )
    return f'{{\n  "vertices": [\n    {vertices}\n  ],\n  "edges": [\n    {edges}\n  ]\n}}\n'


def test_long_arm_fork_analyze_is_pinned(capsys):
    # the slowest graph of the benchmark's hard ladder and the LCP's worst
    # case: center weight 3 with arms of 21 twos, 21 threes and 21 twos,
    # no boundary (10 iterations, the first of 36 rows); the input file is
    # this definition, and CI diffs the installed console script against
    # the report too
    golden = REPO_ROOT / "tests" / "golden"
    source = golden / "long_arm_fork64_input.json"
    assert source.read_text() == _one_per_line(fork_graph(3, [(2,) * 21, (3,) * 21, (2,) * 21]))
    code, out, _ = _run(capsys, ["analyze", str(source), "--json"])
    assert (code, out) == (0, (golden / "long_arm_fork64_analyze.json").read_text())


@pytest.mark.parametrize(
    "name, center, leaves, tail",
    [
        ("star16_tail83", 2, [(MAX_INTEGER, 251)] * 16, 83),
        ("star1_tail92", 3, [(MAX_INTEGER, 1418)], 92),
        ("star64_tail35", 2, [(MAX_INTEGER, 125)] * 64, 35),
        ("star6_rounds1505", 5,
         [(6572, 74), (7301, 78), (2219, 43), (3500, 54), (4916, 64), (10157, 92)], 0),
    ],
)
def test_heavy_star_analyze_is_pinned(capsys, name, center, leaves, tail):
    # valid inputs whose fundamental cycles are far above (1, ..., 1):
    # three at the caps, where sum(Z) - n is 169,260, 464,536 and 144,080,
    # reached in 21, 41 and 8 rounds, and a star near the definiteness
    # bound, 88,234 in 1,505 rounds.  The first three goldens' Z was
    # checked against the step-by-step reference loop when they were
    # written, the last one's against the star formula
    # (tests/test_cycles.py), and CI diffs the installed console script
    # against them too
    golden = REPO_ROOT / "tests" / "golden"
    source = golden / f"{name}_input.json"
    assert source.read_text() == _one_per_line(build_graph(*star_with_tail(center, leaves, tail)))
    code, out, _ = _run(capsys, ["analyze", str(source), "--json"])
    assert (code, out) == (0, (golden / f"{name}_analyze.json").read_text())


def test_long_arm_fork_pullback_is_pinned(capsys):
    # the pullback of curves meeting the three arm tips of the 64-vertex
    # long-arm fork: one solve against N's own factor, whose back
    # substitution reads the lower triangle transposed.  The golden was
    # written before the factor kept only that triangle, and CI diffs the
    # installed console script against it too
    golden = REPO_ROOT / "tests" / "golden"
    source = golden / "long_arm_fork64_input.json"
    meets = ["1" if k in (22, 43, 64) else "0" for k in range(1, 65)]
    argv = ["pullback", str(source), "--meets", ",".join(meets), "--json"]
    code, out, _ = _run(capsys, argv)
    assert (code, out) == (0, (golden / "long_arm_fork64_pullback.json").read_text())
    g = fork_graph(3, [(2,) * 21, (3,) * 21, (2,) * 21])
    x = [Fraction(c) for c in json.loads(out)["exceptional_part"]]
    assert matvec(dense_form(g), x) == [int(m) for m in meets]


@pytest.mark.parametrize("name", ["smooth", "a1", "chain_2_3", "chain_2_5_2_boundary"])
def test_sample_oracle_reports_are_pinned(capsys, name):
    # each sample's report with the exhaustive oracle's value beside the
    # LCP's; CI diffs the installed console script against it too
    argv = ["analyze", str(SAMPLES / f"{name}.json"), "--json", "--oracle"]
    code, out, _ = _run(capsys, argv)
    golden = REPO_ROOT / "tests" / "golden" / f"{name}_oracle.json"
    assert (code, out) == (0, golden.read_text())


def test_continuant_json_is_pinned(capsys):
    # the one subcommand with no analysis pass; CI diffs it too
    code, out, _ = _run(capsys, ["continuant", "2,3,5", "--inverse", "1", "3", "--json"])
    golden = REPO_ROOT / "tests" / "golden" / "continuant_2_3_5_inverse_1_3.json"
    assert (code, out) == (0, golden.read_text())


@pytest.mark.parametrize(
    "argv, name",
    [
        (["analyze", "samples/chain_2_5_2_boundary.json", "--oracle"],
         "chain_2_5_2_boundary_oracle.txt"),
        (["check", "samples/chain_2_3.json"], "chain_2_3_check.txt"),
        # the theorem and mu-scaled blocks, with fractions of ~1,000 digits
        (["check", "tests/golden/limits_chain32_input.json"], "limits_chain32_check.txt"),
        (["pullback", "samples/chain_2_3.json", "--meets", "1,0"], "chain_2_3_pullback_1_0.txt"),
        (["continuant", "2,3,5", "--inverse", "1", "3"], "continuant_2_3_5_inverse_1_3.txt"),
        # the analyze report of each sample: smooth.json's canonical cycle
        # is negative, chain_2_5_2_boundary's vectors are fractions
        (["analyze", "samples/smooth.json"], "smooth.txt"),
        (["analyze", "samples/a1.json"], "a1.txt"),
        (["analyze", "samples/chain_2_3.json"], "chain_2_3.txt"),
        (["analyze", "samples/chain_2_5_2_boundary.json"], "chain_2_5_2_boundary.txt"),
        # a 100-vertex star with vectors of many-digit fractions, and the
        # 64-vertex long-arm fork, whose minimizer x0 is nonzero
        (["analyze", "tests/golden/star64_tail35_input.json"], "star64_tail35_analyze.txt"),
        (["analyze", "tests/golden/long_arm_fork64_input.json"], "long_arm_fork64_analyze.txt"),
    ],
)
def test_text_output_is_pinned(capsys, argv, name):
    # the text renderers of every subcommand but enumerate (pinned by its
    # hash above); CI diffs the installed console script against these too
    argv = [str(REPO_ROOT / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = _run(capsys, argv)
    assert (code, out) == (0, (REPO_ROOT / "tests" / "golden" / name).read_text())


def test_long_arm_fork_oracle_is_pinned(capsys):
    # a fork small enough for exhaustive search on which the LCP still
    # borders: center weight 3 with arms of 4 twos, 4 threes and 4 twos,
    # no boundary; it starts at 5 of the 10 active vertices and borders
    # twice.  The report, with the oracle's minimizer, was written before
    # the LCP started inside its final support, and CI diffs the
    # installed console script's `analyze --json --oracle` against it
    golden = REPO_ROOT / "tests" / "golden"
    source = golden / "long_arm_fork13_input.json"
    assert source.read_text() == _one_per_line(fork_graph(3, [(2,) * 4, (3,) * 4, (2,) * 4]))
    code, out, _ = _run(capsys, ["analyze", str(source), "--json", "--oracle"])
    assert (code, out) == (0, (golden / "long_arm_fork13_analyze.json").read_text())
