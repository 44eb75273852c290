import json

import pytest

from oddlex.cli import main
from oddlex.serialize import algebra_from_json, tower_from_json
from oddlex import build_plp, make_qj, q_chain, INT_IN_Q


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SPEC_12 = {"ranks": [1, 2], "iota": ["III"]}
SPEC_Z = {"ranks": [1], "iota": []}
SPEC_Z3 = {"ranks": [1, 1, 1], "iota": ["IV", "IV"]}


def test_build_prints_stages_and_writes_a_round_tripping_tower(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_12)
    out = tmp_path / "tower.json"
    assert main(["build", spec, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "stage 1: Z" in text
    assert "PLPI(Z, [*], Z^2)" in text
    assert "discretely embedded group part: True" in text
    doc = json.loads(out.read_text())
    tower = tower_from_json(doc)
    assert tower.stages[0].ambient_kinds == ("Z",)


def test_build_standard_produces_the_dense_companion(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_12)
    assert main(["build", spec, "--standard"]) == 0
    text = capsys.readouterr().out
    assert "stage 1: Q" in text
    assert "PLPI(Q, [1], PLPI(Q, [1], Q))" in text


def test_build_rejects_malformed_iota(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"ranks": [1, 1], "iota": ["V"]})
    assert main(["build", spec]) == 2
    assert "iota" in capsys.readouterr().err


def test_verify_passes_on_a_tower_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z3)
    assert main(["verify", spec, "--suite", "adjoint",
                 "--samples", "400", "--seed", "5"]) == 0
    assert "all properties hold" in capsys.readouterr().out


def test_verify_tau_suite_reports_counts(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z3)
    assert main(["verify", spec, "--suite", "tau",
                 "--samples", "800", "--seed", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    counts = [c["info"] for s in doc["suites"] for c in s["checks"]
              if c["name"].startswith("distinct tau")]
    assert "observed 3, expected 3" in counts  # the three-stage tower


def test_verify_rejects_unknown_suite(tmp_path, capsys):
    import pytest

    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    with pytest.raises(SystemExit) as exc:
        main(["verify", spec, "--suite", "bogus"])
    assert exc.value.code == 2


def test_countermodel_found_with_rendering(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    assert main(["countermodel", spec, "(p*p)->p", "--render-unit",
                 "--budget", "5000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "found"
    assert doc["assignment"] == {"p": "1"}
    rendering = {k: eval_fraction(v) for k, v in doc["rendering"].items()}
    assert rendering["BOT"] == 0 and rendering["TOP"] == 1
    assert all(0 <= v <= 1 for v in rendering.values())


def eval_fraction(text):
    from fractions import Fraction

    return Fraction(text)


def test_countermodel_not_found_exits_one(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    assert main(["countermodel", spec, "p->p", "--budget", "300"]) == 1
    assert json.loads(capsys.readouterr().out)["result"] == "not-found"


def test_countermodel_rejects_bad_formula(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    assert main(["countermodel", spec, "p ->"]) == 2


def test_countermodel_with_theory_file(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    theory = tmp_path / "theory.txt"
    theory.write_text("# premises\n~p\n")
    assert main(["countermodel", spec, "p", "--theory", str(theory),
                 "--budget", "4000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theory"] == ["~p"]


def test_countermodel_is_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_12)
    argv = ["countermodel", spec, "(p*p)->p", "--seed", "9",
            "--budget", "8000", "--render-unit"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_eval_command(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    assert main(["eval", spec, "(p*p)->p", "--assign", "p=1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "-1"
    assert doc["designated"] is False


def test_eval_rejects_non_member_assignment(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    assert main(["eval", spec, "p", "--assign", "p=1/2"]) == 2


def test_iso_check_command(capsys):
    assert main(["iso-check", "--pairs", "1,1;1,2;2,1", "--samples", "150"]) == 0
    out = capsys.readouterr().out
    assert "Z_2" in out and "pass" in out


@pytest.mark.parametrize("argv, named", [
    (["verify", "SPEC", "--samples", "0"], "got 0"),
    (["verify", "SPEC", "--samples", "-5"], "got -5"),
    (["iso-check", "--pairs", "1"], "'1'"),
    (["iso-check", "--pairs", "1,x"], "'1,x'"),
    (["iso-check", "--samples", "0"], "--samples must be a positive integer, got 0"),
    (["iso-check", "--samples", "-3"], "--samples must be a positive integer, got -3"),
], ids=["samples-0", "samples-negative", "pairs-one-value", "pairs-non-integer",
        "iso-samples-0", "iso-samples-negative"])
def test_bad_sample_counts_and_pairs_are_usage_errors(tmp_path, capsys, argv, named):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    assert main([spec if a == "SPEC" else a for a in argv]) == 2
    assert named in capsys.readouterr().err


DEEP_NEGATION = "~" * 3000 + "p"


@pytest.mark.parametrize("argv", [
    ["eval", "SPEC", DEEP_NEGATION, "--assign", "p=1"],
    ["countermodel", "SPEC", DEEP_NEGATION, "--budget", "10"],
    ["iso-check", "--pairs", "400,1", "--samples", "5"],  # a cold Z_401 unit
], ids=["eval", "countermodel", "iso-check"])
def test_too_deeply_nested_input_is_a_usage_error(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    assert main([spec if a == "SPEC" else a for a in argv]) == 2
    assert "input nested too deeply" in capsys.readouterr().err


def test_missing_spec_file_is_a_usage_error(capsys):
    assert main(["build", "/nonexistent/spec.json"]) == 2


def test_algebra_json_round_trip():
    from oddlex.serialize import algebra_to_json

    A = build_plp("I", q_chain(), zdesc=INT_IN_Q, second=make_qj(2))
    assert algebra_from_json(algebra_to_json(A)) == A


def test_verify_surfaces_build_failures(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"ranks": [0, 1], "iota": ["IV"]})
    assert main(["verify", spec, "--suite", "adjoint"]) == 2
    assert "stage 2" in capsys.readouterr().err


def test_verify_is_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_12)
    argv = ["verify", spec, "--suite", "tau", "--samples", "300",
            "--seed", "17", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_countermodel_json_round_trips(tmp_path, capsys):
    from oddlex.logic import Countermodel

    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    out = tmp_path / "cm.json"
    assert main(["countermodel", spec, "(p*p)->p", "--render-unit",
                 "--budget", "5000", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc.pop("result")
    cm = Countermodel.from_json(doc)
    cm.validate()
    assert cm.to_json() == doc
