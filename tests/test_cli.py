"""End-to-end tests for the command-line front end.

Most tests call exacthom.cli.main() in-process with an argv list and inspect
the captured stdout / written JSON files; one subprocess test proves the
``python -m exacthom`` entry point works as installed.
"""

import argparse
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exacthom import assoc_homology
from exacthom.assoc_homology import (algebra_to_json, dual_numbers, field_q,
                                     matrix_algebra, zero_multiplication)
from exacthom.cech_cosheaf import (cover_model_from_cover,
                                   extension_by_zero_model, precosheaf_to_json)
from exacthom.cli import (EXIT_FAIL, EXIT_INVARIANT, EXIT_PARSE, EXIT_PASS,
                          EXIT_RESOURCE, KINDS, build_parser, canonical_json,
                          main, render_table, verdict_ok)
from exacthom.complexes import ChainMap
from exacthom.lie_homology import lie_algebra_to_json, sl2_q


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """Algebra and cover JSON files shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli_fixtures")
    paths = {}
    for name, a in [("field", field_q()), ("dual", dual_numbers()),
                    ("zero", zero_multiplication(1))]:
        p = d / f"{name}.json"
        p.write_text(json.dumps(algebra_to_json(a)))
        paths[name] = str(p)
    u = cover_model_from_cover(6, [[0, 1, 2], [2, 3, 4], [4, 5, 0]])
    p = d / "cover.json"
    p.write_text(json.dumps(precosheaf_to_json(extension_by_zero_model(u))))
    paths["cover"] = str(p)
    p = d / "bad.json"
    p.write_text('{"dim": 2, "mult": [')
    paths["bad"] = str(p)
    p = d / "nonassoc.json"
    p.write_text(json.dumps(
        {"dim": 2, "mult": [[0, 0, 1, 1, 1], [1, 0, 0, 1, 1]], "unit": None}))
    paths["nonassoc"] = str(p)
    return paths


def run_json(argv, tmp_path, name="out.json"):
    """Run main() writing the JSON document to a temp file; return
    (exit_code, document)."""
    out = tmp_path / name
    code = main(argv + ["--json", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


# -- contract examples --------------------------------------------------------


def test_homology_connes_field_example(fixtures, tmp_path):
    code, doc = run_json(["homology", "connes", "--algebra", fixtures["field"],
                          "--max-degree", "4"], tmp_path)
    assert code == EXIT_PASS
    assert doc["report"]["betti"] == [1, 0, 1, 0, 1]
    assert doc["verdict"] == "pass"


def test_homology_ce_gl2_field_example(fixtures, tmp_path):
    code, doc = run_json(["homology", "ce", "--algebra", fixtures["field"],
                          "--gl", "2", "--max-degree", "4"], tmp_path)
    assert code == EXIT_PASS
    assert doc["report"]["betti"] == [1, 1, 0, 1, 1]


def test_verify_xi_example(fixtures, tmp_path):
    code, doc = run_json(["verify", "xi", "--n", "3", "--max-k", "8"],
                         tmp_path)
    assert code == EXIT_PASS
    assert doc["report"]["sequence"] == [0, 1, 2, 3, 4, 3, 4, 3, 4]


def test_verify_hunital_zero_fails_at_degree_one(fixtures, tmp_path):
    code, doc = run_json(["verify", "hunital", "--algebra", fixtures["zero"]],
                         tmp_path)
    assert code == EXIT_FAIL
    assert doc["report"]["first_failure"] == 1
    assert doc["verdict"] == "fail"


def test_verify_hunital_with_no_decided_degree_is_inconclusive(fixtures,
                                                               tmp_path):
    # Degree 1 is the bar complex's top: an upper bound, so nothing is
    # decided and the zero multiplication must not pass.
    code, doc = run_json(["verify", "hunital", "--algebra", fixtures["zero"],
                          "--max-degree", "1"], tmp_path)
    assert code == EXIT_FAIL
    assert doc["report"]["degrees_decided"] == []
    assert doc["report"]["verdict"] == "inconclusive"
    assert doc["verdict"] == "fail"


def test_verify_lqt_dual_example(fixtures, tmp_path):
    code, doc = run_json(["verify", "lqt", "--algebra", fixtures["dual"],
                          "--n", "3", "--max-r", "2"], tmp_path)
    assert code == EXIT_PASS
    assert doc["report"]["lhs_dims"] == doc["report"]["rhs_dims"]


# -- every subcommand kind runs -----------------------------------------------


@pytest.mark.parametrize("kind,expected", [
    ("hochschild", [1, 0, 0]),
    ("bar", [0, 0, 1]),  # acyclic; top degree is a truncation upper bound
    ("connes", [1, 0, 1]),
    ("cyclic-total", [1, 0, 1]),
    ("bB-total", [1, 0, 1]),
])
def test_homology_kinds_on_field(fixtures, tmp_path, kind, expected):
    code, doc = run_json(["homology", kind, "--algebra", fixtures["field"],
                          "--max-degree", "2"], tmp_path)
    assert code == EXIT_PASS
    assert doc["report"]["betti"] == expected


def test_homology_gl_coinvariants(fixtures, tmp_path):
    code, doc = run_json(["homology", "gl", "--algebra", fixtures["field"],
                          "--gl", "2", "--max-degree", "2"], tmp_path)
    assert code == EXIT_PASS
    assert doc["report"]["betti"][0] == 1


@pytest.mark.parametrize("argv", [
    ["verify", "theta", "--algebra", "DUAL", "--max-degree", "2"],
    ["verify", "theta", "--algebra", "DUAL", "--max-degree", "5"],
    ["verify", "phi", "--n", "2", "--k", "2"],
    ["verify", "psi", "--algebra", "FIELD", "--n", "2", "--max-degree", "1"],
    ["verify", "quasi-iso", "--algebra", "FIELD", "--max-degree", "2"],
    ["verify", "kunneth", "--count", "3"],
    ["verify", "spectral", "--count", "2"],
    ["verify", "cech", "--cover", "COVER"],
])
def test_verify_kinds_pass(fixtures, tmp_path, argv):
    argv = [fixtures[a.lower()] if a in ("DUAL", "FIELD", "COVER") else a
            for a in argv]
    code, doc = run_json(argv, tmp_path)
    assert code == EXIT_PASS
    assert doc["verdict"] == "pass"


# -- exit codes ----------------------------------------------------------------


def test_malformed_json_exits_2_with_location(fixtures, capsys):
    code = main(["homology", "hochschild", "--algebra", fixtures["bad"]])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_file_exits_2(tmp_path):
    code = main(["homology", "hochschild", "--algebra",
                 str(tmp_path / "nope.json")])
    assert code == EXIT_PARSE


def test_nonassociative_input_exits_3(fixtures, capsys):
    code = main(["homology", "hochschild", "--algebra",
                 fixtures["nonassoc"]])
    assert code == EXIT_INVARIANT
    assert "associativity" in capsys.readouterr().err


def test_abelian_lie_with_a_zero_entry_has_binomial_betti(tmp_path):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 3, "bracket": [[0, 0, 1, 0, 1]]}))
    code, doc = run_json(["homology", "ce", "--lie", str(path),
                          "--max-degree", "3"], tmp_path)
    assert code == EXIT_PASS
    assert doc["report"]["betti"] == [1, 3, 3, 1]


def _document_and_first_row(flag, fixtures):
    """(argv, document, the document's first entry row, mutable in place)."""
    if flag == "--lie":
        obj = {"dim": 2, "bracket": [[0, 1, 1, 1, 1]]}
        return ["homology", "ce"], obj, obj["bracket"][0]
    if flag == "--algebra":
        obj = algebra_to_json(dual_numbers())
        return ["homology", "hochschild"], obj, obj["mult"][0]
    with open(fixtures["cover"]) as fh:
        obj = json.load(fh)
    items = next(items for _, _, items in obj["precosheaf"]["extensions"]
                 if items)
    return ["verify", "cech"], obj, items[0]


@pytest.mark.parametrize("flag", ["--lie", "--algebra", "--cover"])
def test_zero_denominator_exits_2_naming_the_file(flag, fixtures, tmp_path,
                                                  capsys):
    argv, obj, row = _document_and_first_row(flag, fixtures)
    row[-1] = 0
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(obj))
    assert main(argv + [flag, str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and "zero denominator" in err


def _non_integer_numerator(row):
    row[-2] = 1.5


def _one_field_short(row):
    del row[-1]


def _string_field(row):
    row[0] = "x"


def _boolean_field(row):
    row[0] = True


@pytest.mark.parametrize("flag", ["--lie", "--algebra", "--cover"])
@pytest.mark.parametrize("defect", [_non_integer_numerator, _one_field_short,
                                    _string_field, _boolean_field])
def test_malformed_entry_row_exits_2_naming_the_file(flag, defect, fixtures,
                                                     tmp_path, capsys):
    argv, obj, row = _document_and_first_row(flag, fixtures)
    defect(row)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert main(argv + [flag, str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and "integers" in err


def _dim(obj, value):
    obj["dim"] = value


def _points(obj, value):
    obj["points"] = value


def _open_point(obj, value):
    next(op for op in obj["opens"] if op)[0] = value


def _cover_index(obj, value):
    obj["cover"][0] = value


def _dims_value(obj, value):
    obj["precosheaf"]["dims"]["0"] = value


def _dims_key(obj, value):
    dims = obj["precosheaf"]["dims"]
    dims[str(value)] = dims.pop("0")


def _extension_index(obj, value):
    obj["precosheaf"]["extensions"][0][0] = value


@pytest.mark.parametrize("flag, defect", [
    ("--lie", _dim), ("--algebra", _dim), ("--cover", _points),
    ("--cover", _open_point), ("--cover", _cover_index),
    ("--cover", _dims_value), ("--cover", _dims_key),
    ("--cover", _extension_index)])
@pytest.mark.parametrize("value", [2.7, "x", True])
def test_non_integer_size_or_index_exits_2_naming_the_file(
        flag, defect, value, fixtures, tmp_path, capsys):
    argv, obj, _ = _document_and_first_row(flag, fixtures)
    defect(obj, value)
    path = tmp_path / "non_integer.json"
    path.write_text(json.dumps(obj))
    assert main(argv + [flag, str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and "must be a JSON integer" in err


@pytest.mark.parametrize("defect", [_dims_key, _extension_index])
def test_cover_index_past_the_opens_exits_2(defect, fixtures, tmp_path,
                                            capsys):
    # -1 is out of range too, not read from the end of the opens
    count = len(_document_and_first_row("--cover", fixtures)[1]["opens"])
    for index in (count, -1):
        argv, obj, _ = _document_and_first_row("--cover", fixtures)
        defect(obj, index)
        path = tmp_path / "cover_index.json"
        path.write_text(json.dumps(obj))
        assert main(argv + ["--cover", str(path)]) == EXIT_PARSE
        assert str(path) in capsys.readouterr().err


def test_cover_dims_that_is_not_an_object_exits_2(fixtures, tmp_path,
                                                  capsys):
    argv, obj, _ = _document_and_first_row("--cover", fixtures)
    obj["precosheaf"]["dims"] = [1, 2]
    path = tmp_path / "dims_list.json"
    path.write_text(json.dumps(obj))
    assert main(argv + ["--cover", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and "dims must be a JSON object" in err


def _short_extension(obj):
    obj["precosheaf"]["extensions"][0] = [0, 1]


def _extension_object(obj):
    exts = obj["precosheaf"]["extensions"]
    obj["precosheaf"]["extensions"] = {str(i): e for i, e in enumerate(exts)}


@pytest.mark.parametrize("defect", [_short_extension, _extension_object])
def test_malformed_extension_exits_2_naming_the_file(defect, fixtures,
                                                     tmp_path, capsys):
    argv, obj, _ = _document_and_first_row("--cover", fixtures)
    defect(obj)
    path = tmp_path / "extension.json"
    path.write_text(json.dumps(obj))
    assert main(argv + ["--cover", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and "extension" in err


@pytest.mark.parametrize("pair", [[1.5, 1], [1], [1, 1, 1], ["x", 1]])
def test_malformed_unit_pair_exits_2(pair, tmp_path, capsys):
    obj = algebra_to_json(dual_numbers())
    obj["unit"][0] = pair
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(obj))
    assert main(["homology", "hochschild", "--algebra", str(path)]) \
        == EXIT_PARSE
    assert str(path) in capsys.readouterr().err


def _basis_document(flag):
    """(argv, two-dimensional document) for `homology ce` on --lie or on
    gl_1 of an --algebra."""
    if flag == "--lie":
        return ["homology", "ce"], {"dim": 2, "bracket": [[0, 1, 1, 1, 1]]}
    return (["homology", "ce", "--gl", "1"],
            algebra_to_json(dual_numbers()))


@pytest.mark.parametrize("flag", ["--lie", "--algebra"])
@pytest.mark.parametrize("basis", ["xy", [7, None], ["x", 7], {"x": "y"},
                                   None, 2])
def test_basis_not_a_list_of_strings_exits_2_naming_the_file(
        flag, basis, tmp_path, capsys):
    argv, obj = _basis_document(flag)
    obj["basis"] = basis
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(obj))
    assert main(argv + [flag, str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and "list of strings" in err


@pytest.mark.parametrize("flag", ["--lie", "--algebra"])
@pytest.mark.parametrize("basis,code", [
    (["x", "y"], EXIT_PASS), ([], EXIT_PASS), (["x"], EXIT_INVARIANT),
    (["x", "y", "z"], EXIT_INVARIANT)])
def test_basis_list_of_strings_is_checked_against_dim(flag, basis, code,
                                                      tmp_path, capsys):
    argv, obj = _basis_document(flag)
    obj["basis"] = basis
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(obj))
    assert main(argv + [flag, str(path), "--max-degree", "2"]) == code
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--lie", "--algebra", "--cover"])
def test_non_utf8_document_exits_2_naming_the_file(flag, fixtures, tmp_path,
                                                   capsys):
    argv, obj, _ = _document_and_first_row(flag, fixtures)
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(obj).encode() + b" \xff")
    assert main(argv + [flag, str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and "UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["verify", "hunital"],
    ["verify", "lqt", "--n", "2", "--max-r", "1"],
    ["homology", "connes"],
    ["verify", "quasi-iso"],
], ids=["hunital", "lqt", "connes", "quasi-iso"])
def test_unit_coordinate_past_dim_exits_3(argv, tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(
        {"dim": 1, "mult": [[0, 0, 0, 1, 1]], "unit": [[1, 1], [3, 1]]}))
    assert main(argv + ["--algebra", str(path)]) == EXIT_INVARIANT
    assert "unit coordinate 1 out of range" in capsys.readouterr().err


def test_bb_total_without_unit_exits_3(fixtures):
    code = main(["homology", "bB-total", "--algebra", fixtures["zero"]])
    assert code == EXIT_INVARIANT


def test_a_projection_that_is_not_a_chain_map_exits_1(fixtures, monkeypatch,
                                                      capsys):
    real = assoc_homology._column_zero_projection

    def doubled_in_degree_1(tot, conn, quots):
        f = real(tot, conn, quots)
        return ChainMap(f.src, f.tgt, {n: c.scale(2) if n == 1 else c
                                       for n, c in f.components.items()})

    monkeypatch.setattr(assoc_homology, "_column_zero_projection",
                        doubled_in_degree_1)
    assert main(["verify", "quasi-iso", "--algebra", fixtures["dual"],
                 "--max-degree", "2"]) == EXIT_FAIL
    assert "column-0 projection is not a chain map" in capsys.readouterr().err


def test_bad_flag_value_exits_2(fixtures):
    assert main(["verify", "lqt", "--algebra", fixtures["field"],
                 "--n", "0"]) == EXIT_PARSE


def test_psi_with_too_few_rows_for_its_blocks_exits_2(fixtures, capsys):
    # 2 * m <= n is checked before the algebra is read: this file would
    # otherwise fail its associativity check and exit 3
    assert main(["verify", "psi", "--algebra", fixtures["nonassoc"],
                 "--m", "1", "--n", "1"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "--m 1" in err and "--n >= 2" in err


def test_unknown_kind_exits_2(capsys):
    assert main(["homology", "nonsense"]) == 2


def test_missing_required_input_exits_2(capsys):
    assert main(["verify", "lqt"]) == EXIT_PARSE
    assert "--algebra" in capsys.readouterr().err


def test_unwritable_json_path_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    assert main(["verify", "xi", "--n", "2", "--json", str(path)]) \
        == EXIT_PARSE
    captured = capsys.readouterr()
    assert str(path) in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["homology", "hochschild", "--algebra", "DUAL", "--max-degree", "19"],
    ["homology", "ce", "--lie", "ABELIAN40", "--max-degree", "6"],
    # weight-0 part of degree 8: 2,076,788 tuples
    ["verify", "lqt", "--algebra", "FIELD", "--n", "8", "--max-r", "7"],
    ["verify", "lqt", "--algebra", "FIELD", "--n", "32"],
    # building gl_13(Q) would walk C(169, 3) Jacobi triples
    ["verify", "lqt", "--algebra", "FIELD", "--n", "13", "--max-r", "0"],
    # 3! * 50^3 = 750,000 permutation-tensors in degree 3
    ["verify", "theta", "--algebra", "ZERO50", "--max-degree", "3"],
    # building gl_20(Q) would walk C(400, 3) Jacobi triples
    ["homology", "ce", "--algebra", "FIELD", "--gl", "20",
     "--max-degree", "1"],
    ["homology", "gl", "--algebra", "FIELD", "--gl", "20",
     "--max-degree", "1"],
    # loading a 200-dimensional Lie algebra walks C(200, 3) Jacobi triples
    ["homology", "ce", "--lie", "ABELIAN200", "--max-degree", "1"],
    # loading a 1000-dimensional algebra walks 1000^3 associativity triples
    ["homology", "hochschild", "--algebra", "ZERO1000", "--max-degree", "1"],
    # k! * (k! + n^(2k)) conjugations and column reads of phi
    ["verify", "phi", "--n", "1", "--k", "7"],
    ["verify", "phi", "--n", "2", "--k", "6"],
    # wedge power 5 of gl_8(Q): C(64, 5) = 7,624,512 tuples
    ["verify", "psi", "--algebra", "FIELD", "--n", "8", "--m", "1",
     "--max-degree", "5"],
], ids=["hochschild-2^20", "ce-abelian40", "lqt-gl8", "lqt-gl32",
        "lqt-gl13-jacobi", "theta-zero50", "ce-gl20-jacobi",
        "gl-gl20-jacobi", "ce-lie200-jacobi", "hochschild-assoc1000",
        "phi-n1-k7", "phi-n2-k6", "psi-gl8"])
def test_oversized_input_exits_4_within_seconds(argv, fixtures, tmp_path):
    abelian = tmp_path / "abelian40.json"
    abelian.write_text(json.dumps({"dim": 40, "bracket": []}))
    abelian200 = tmp_path / "abelian200.json"
    abelian200.write_text(json.dumps({"dim": 200, "bracket": []}))
    zero50 = tmp_path / "zero50.json"
    zero50.write_text(json.dumps(algebra_to_json(zero_multiplication(50))))
    zero1000 = tmp_path / "zero1000.json"
    zero1000.write_text(json.dumps({"dim": 1000, "mult": []}))
    paths = dict(fixtures, abelian40=str(abelian),
                 abelian200=str(abelian200), zero50=str(zero50),
                 zero1000=str(zero1000))
    argv = [paths[a.lower()] if a.isupper() else a for a in argv]
    # In a subprocess, so that a missing guard fails on the timeout
    # instead of hanging the suite.
    proc = subprocess.run([sys.executable, "-m", "exacthom", *argv],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == EXIT_RESOURCE, proc.stderr
    assert "above the limit" in proc.stderr


def test_homology_flags_mark_the_truncated_top_degree(fixtures, tmp_path):
    _, doc = run_json(["homology", "hochschild", "--algebra",
                       fixtures["dual"], "--max-degree", "3"], tmp_path)
    report = doc["report"]
    assert report["flags"] == ["exact"] * 3 + ["upper_bound"]
    assert len(report["flags"]) == len(report["betti"])


def test_homology_flags_of_a_complete_ce_complex_are_exact(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(lie_algebra_to_json(sl2_q())))
    _, doc = run_json(["homology", "ce", "--lie", str(path),
                       "--max-degree", "3"], tmp_path)
    assert doc["report"]["flags"] == ["exact"] * 4


@pytest.mark.parametrize("kind", ["cyclic-total", "bB-total"])
def test_total_homology_flags_are_exact_in_reported_degrees(kind, fixtures,
                                                            tmp_path):
    _, doc = run_json(["homology", kind, "--algebra", fixtures["dual"],
                       "--max-degree", "3"], tmp_path)
    assert doc["report"]["flags"] == ["exact"] * 4
    assert len(doc["report"]["betti"]) == 4


# -- determinism and serialization ---------------------------------------------


def test_json_byte_identical_across_threads(tmp_path):
    texts = []
    for t in ("1", "4", "8"):
        out = tmp_path / f"k{t}.json"
        code = main(["verify", "kunneth", "--count", "6", "--seed", "3",
                     "--threads", t, "--json", str(out)])
        assert code == EXIT_PASS
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_json_byte_identical_across_runs(fixtures, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["homology", "connes", "--algebra", fixtures["field"],
              "--max-degree", "3", "--json", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_stdout_json_format_matches_file(fixtures, tmp_path, capsys):
    out = tmp_path / "doc.json"
    main(["verify", "xi", "--n", "2", "--max-k", "4", "--format", "json",
          "--json", str(out)])
    assert capsys.readouterr().out == out.read_text()


def test_canonical_json_sorts_keys():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [2, 3], "b": 1}


def test_seed_recorded_in_every_report(fixtures, tmp_path):
    _, doc = run_json(["verify", "xi", "--n", "2", "--max-k", "2",
                       "--seed", "17"], tmp_path)
    assert doc["seed"] == 17


def test_table_output_renders_betti(fixtures, capsys):
    code = main(["homology", "connes", "--algebra", fixtures["field"],
                 "--max-degree", "4"])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    # degree 4 is the truncated top degree, so its number is an upper bound
    assert "betti: 1, 0, 1, 0, ≤1" in out


# -- report aggregation ---------------------------------------------------------


def test_report_aggregates_two_entries(fixtures, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["verify", "xi", "--n", "2", "--max-k", "3", "--json", str(r1)])
    main(["verify", "xi", "--n", "3", "--max-k", "3", "--seed", "9",
          "--json", str(r2)])
    code, doc = run_json(["report", str(r1), str(r2)], tmp_path)
    assert code == EXIT_PASS
    assert doc["summary"] == {"entries": 2, "pass": 2, "fail": 0}
    assert doc["seeds"] == [0, 9]
    assert [e["kind"] for e in doc["entries"]] == ["xi", "xi"]


def test_report_empty_input_is_empty_document(tmp_path):
    code, doc = run_json(["report"], tmp_path)
    assert code == EXIT_PASS
    assert doc["entries"] == [] and doc["verdict"] == "pass"


def test_report_with_failing_entry_exits_1(fixtures, tmp_path):
    r = tmp_path / "fail.json"
    main(["verify", "hunital", "--algebra", fixtures["zero"],
          "--json", str(r)])
    code, doc = run_json(["report", str(r)], tmp_path)
    assert code == EXIT_FAIL
    assert doc["summary"]["fail"] == 1


def test_report_missing_input_exits_2(tmp_path):
    assert main(["report", str(tmp_path / "absent.json")]) == EXIT_PARSE


# -- config and helpers ----------------------------------------------------------


# Lowest allowed value of every bounded option, and a command offering it.
BOUNDS = [("--max-degree", 1, "verify"), ("--n", 1, "verify"),
          ("--gl", 1, "homology"), ("--k", 1, "verify"),
          ("--max-r", 0, "verify"), ("--max-k", 0, "verify"),
          ("--count", 0, "verify"), ("--threads", 1, "verify"),
          ("--threads", 1, "report"), ("--m", 0, "verify")]


def test_each_option_below_its_lowest_value_exits_2(capsys):
    for flag, low, command in BOUNDS:
        kind = {"homology": ["ce"], "verify": ["xi"], "report": []}[command]
        argv = [command, *kind, flag, str(low - 1)]
        assert main(argv) == EXIT_PARSE, argv
        assert flag in capsys.readouterr().err


# The parameters each kind's document records, as before the command table.
RECORDED = {
    "homology": {
        "hochschild": ("algebra", "max_degree"),
        "bar": ("algebra", "max_degree"),
        "connes": ("algebra", "max_degree"),
        "cyclic-total": ("algebra", "max_degree"),
        "bB-total": ("algebra", "max_degree"),
        "ce": ("algebra", "lie", "gl", "max_degree"),
        "gl": ("algebra", "gl", "max_degree"),
    },
    "verify": {
        "lqt": ("algebra", "n", "max_r"),
        "hunital": ("algebra", "max_degree"),
        "theta": ("algebra", "max_degree"),
        "phi": ("n", "k"),
        "psi": ("algebra", "n", "m", "max_degree"),
        "quasi-iso": ("algebra", "max_degree"),
        "kunneth": ("count",),
        "cech": ("cover",),
        "spectral": ("count",),
        "xi": ("n", "max_k"),
    },
}


def test_every_kind_records_its_parameters():
    table = {command: {kind: names for kind, (_, names) in kinds.items()}
             for command, kinds in KINDS.items()}
    assert table == RECORDED
    assert sum(len(kinds) for kinds in table.values()) == 17


COMMON_FLAGS = {"--threads", "--seed", "--json", "--format", "-h", "--help"}


def test_each_command_offers_its_kinds_options():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: {f for a in sub._actions for f in a.option_strings}
             - COMMON_FLAGS for name, sub in subparsers.choices.items()}
    assert flags == {
        "homology": {"--algebra", "--lie", "--gl", "--max-degree"},
        "verify": {"--algebra", "--cover", "--n", "--k", "--m",
                   "--max-degree", "--max-r", "--max-k", "--count"},
        "report": set()}


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    argv = ["verify", "xi", "--n", "2", "--max-k", "2"]
    assert main(argv) == EXIT_PASS
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == EXIT_PASS
    assert built == []


def test_verdict_normalization():
    assert verdict_ok({"verdict": "pass"})
    assert not verdict_ok({"verdict": "fail"})
    assert verdict_ok({"verdict": True})
    assert not verdict_ok({"verdict": False})
    assert not verdict_ok({})


def test_render_table_is_sorted_and_flat():
    text = render_table({"z": [1, 2], "a": {"y": 1, "b": [{"k": 3}]}})
    lines = text.splitlines()
    assert lines[0] == "a:"
    assert lines.index("a:") < lines.index("z: 1, 2")
    assert "      k: 3" in lines


def test_table_marks_upper_bounds_and_json_keeps_numbers(tmp_path, capsys):
    # HH_4(M_2(Q)) = 0 by Morita invariance; the truncated top degree only
    # bounds it by 819
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(algebra_to_json(matrix_algebra(2))))
    out = tmp_path / "out.json"
    assert main(["homology", "hochschild", "--algebra", str(path),
                 "--max-degree", "4", "--json", str(out)]) == EXIT_PASS
    assert "  betti: 1, 0, 0, 0, ≤819" in capsys.readouterr().out.splitlines()
    assert json.loads(out.read_text())["report"]["betti"] == [1, 0, 0, 0, 819]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), max_k=st.integers(0, 14))
def test_xi_cli_matches_direct_computation(n, max_k, tmp_path_factory):
    from exacthom.lqt import xi_sequence
    d = tmp_path_factory.mktemp("xi")
    out = d / "xi.json"
    code = main(["verify", "xi", "--n", str(n), "--max-k", str(max_k),
                 "--json", str(out)])
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["report"]["sequence"] == \
        xi_sequence(n, max_k)


# -- installed entry point --------------------------------------------------------


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    # only a parallel_map fan-out imports concurrent.futures (and logging)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, exacthom.cli; "
         "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_entry_point(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "exacthom", "verify", "xi",
         "--n", "3", "--max-k", "8", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["sequence"] == [0, 1, 2, 3, 4, 3, 4, 3, 4]
