import json
from fractions import Fraction
from pathlib import Path

import pytest

from singinv.cli import InputError, main, parse_input, parse_rational
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


def test_analyze_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 1
    assert "syntax error" in err


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


def test_enumerate_tiny_families(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "1", "--max-weight", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["rows"][0]["delta_y"] == "2"
    assert doc["rows"][0]["kind"] == "rdp"
    code, out, _ = _run(capsys, ["enumerate", "--max-length", "2", "--max-weight", "3", "--json"])
    assert code == 0
    rows = {row["label"]: row for row in json.loads(out)["rows"]}
    assert rows["chain(2,3)"]["delta_y"] == "7/5"
    assert all(Fraction(row["delta_y"]) <= 4 for row in rows.values())


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


def test_enumerate_detects_violations(monkeypatch, capsys):
    import dataclasses

    import singinv.cli as cli_module

    real = cli_module.analyze
    monkeypatch.setattr(
        cli_module,
        "analyze",
        lambda graph: dataclasses.replace(real(graph), delta_y=Fraction(99)),
    )
    code, _, err = _run(capsys, ["enumerate", "--max-length", "1", "--max-weight", "2"])
    assert code == 2
    assert "assertion failed" in err


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


def test_usage_errors_exit_one(capsys):
    code, _, _ = _run(capsys, ["analyze"])  # missing file argument
    assert code == 1
    code, _, _ = _run(capsys, ["no-such-command"])
    assert code == 1


def test_default_family_completes(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--forks"])
    assert code == 0
    assert "0 failures" in out
