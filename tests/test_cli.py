import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from singinv.cli import (
    MAX_COMPONENTS,
    MAX_INTEGER,
    MAX_VERTICES,
    InputError,
    main,
    parse_input,
    parse_rational,
)
from singinv.families import chain_family_size, iter_chain_weights
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
        built.append([list(r) for r in rows])
        real(factor, rows)

    monkeypatch.setattr(Factor, "__init__", counting)
    code, out, _ = _run(
        capsys, ["pullback", str(SAMPLES / "chain_2_3.json"), "--meets", "1,0"]
    )
    assert code == 0 and "3/5" in out
    assert built == [[[2, -1], [-1, 3]]]


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
