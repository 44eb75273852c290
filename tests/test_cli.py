import argparse
import json

import pytest

from oddlex.cli import build_parser, main
from oddlex.serialize import algebra_from_json, tower_from_json
from oddlex.verify import SUITE_NAMES, SUITES
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


def test_build_json_stdout_equals_the_written_tower(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_12)
    out = tmp_path / "tower.json"
    assert main(["build", spec, "--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text() + "\n"
    assert len(tower_from_json(json.loads(out.read_text())).stages) == 2


def test_build_standard_json_with_merged_iv_runs_parses(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z3)
    assert main(["build", spec, "--standard", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["spec"]["ranks"] == [1, 2]
    assert "note: consecutive type IV stages merged" in captured.err


def test_build_both_towers_of_a_fractional_integer_descriptor(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json",
                      {"ranks": [2, 1], "iota": ["III"], "zdescs": [["3/2", "*"]]})
    assert main(["build", spec, "--mode", "III-IV"]) == 0
    assert "restricted to [3/2,*,*]" in capsys.readouterr().out
    assert main(["build", spec, "--standard"]) == 0
    assert "restricted to [3,1,*]" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["build", "--json"],
    ["countermodel", "(p*p)->p", "--budget", "5000"],
], ids=["build", "countermodel"])
def test_unwritable_out_path_prints_nothing(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "spec.json", SPEC_Z)
    out = tmp_path / "missing" / "out.json"
    assert main([argv[0], spec, *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


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


@pytest.mark.parametrize("doc", [
    {"ranks": 5},
    {"ranks": [1, 1], "iota": ["III"], "zdescs": [5]},
    {"ranks": [1, 1], "iota": ["III"], "zdescs": [[None]]},
    {"ranks": [True]},
    {"ranks": [1, 1], "iota": ["III"], "zdescs": ["*"]},
    {"ranks": [1, 1], "iota": ["III"], "zdescs": 0},
    {"ranks": [1, 1], "iota": ["III"], "vdescs": False},
], ids=["ranks-not-a-list", "descriptor-not-a-list", "null-descriptor-entry",
        "boolean-rank", "descriptor-as-string", "zero-descriptor-list", "false-descriptor-list"])
def test_malformed_spec_fields_are_validation_errors(tmp_path, capsys, doc):
    from oddlex.errors import ShapeError
    from oddlex.towers import RepresentationSpec

    with pytest.raises(ShapeError):
        RepresentationSpec.from_json(doc)
    spec = write_spec(tmp_path, "spec.json", doc)
    assert main(["build", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


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


def test_suite_names_are_all_iso_and_the_registered_suites():
    assert set(SUITE_NAMES) == {"all", "iso", *SUITES}


@pytest.mark.parametrize("suite", list(SUITES))
def test_structure_suites_run_alone_as_under_all(tmp_path, capsys, suite):
    spec = write_spec(tmp_path, "spec.json", SPEC_12)
    argv = ["verify", spec, "--samples", "40", "--seed", "3", "--json"]
    assert main(argv + ["--suite", suite]) == 0
    alone = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    everything = json.loads(capsys.readouterr().out)
    assert alone["suites"], suite
    assert alone["suites"] == [r for r in everything["suites"] if r["suite"] == suite]
    cap = 40 // SUITES[suite][1]
    assert all(c["samples"] <= cap for r in alone["suites"] for c in r["checks"])


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


def test_a_spec_file_that_is_not_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{ranks: [1]")
    assert main(["build", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


# Each command's positionals; argparse stops at the bad argument before any file is read.
POSITIONALS = {"build": ["s.json"], "verify": ["s.json"], "countermodel": ["s.json", "p"],
               "eval": ["s.json", "p"], "iso-check": []}
USAGE_ARGVS = [[], ["--help"], ["bogus"]]
for _name, _pos in POSITIONALS.items():
    USAGE_ARGVS += [[_name, "-h"], [_name, *_pos, "--bogus"],
                    [_name, *_pos[:-1]] if _pos else [_name, "--samples"]]
USAGE_ARGVS += [["verify", "s.json", "--suite", "bogus"], ["build", "s.json", "--mode", "bogus"]]


def _exit_and_output(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_usage_output_is_that_of_the_full_parser(capsys, argv):
    full = _exit_and_output(lambda a: build_parser().parse_args(a), argv, capsys)
    assert _exit_and_output(main, argv, capsys) == full
    assert full[0] in (0, 2) and full[1] + full[2]


def test_a_named_command_builds_only_its_own_subparser(monkeypatch, capsys):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    with pytest.raises(SystemExit):
        main(["countermodel", "s.json", "p", "--bogus"])
    assert names == ["countermodel"]
    assert capsys.readouterr().err.startswith(
        "usage: oddlex [-h] {build,verify,countermodel,eval,iso-check} ...\n")
