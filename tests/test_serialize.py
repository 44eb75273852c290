"""The stage-by-stage tower writer against the reference encoder."""

import io
import json

import pytest

from oddlex import adjoin_bounds, make_qj, make_zj, q_chain
from oddlex import serialize
from oddlex.serialize import (algebra_from_json, algebra_to_json, tower_to_json,
                              write_tower_json)
from oddlex.towers import (Countertower, MODE_I_II, MODE_III_IV, RepresentationSpec,
                           build_representation, build_standard_target)

README_SPEC = {"ranks": [1, 1, 1], "iota": ["III", "IV"],
               "zdescs": [["*"], ["2", "*"]], "vdescs": [["2"], ["2", "3"]]}

SPECS = {
    "readme": README_SPEC,
    **{f"iii-{n}": {"ranks": [1] * n, "iota": ["III"] * (n - 1)} for n in range(1, 25)},
    "alternating": {"ranks": [1, 2, 1, 1, 3, 1], "iota": ["III", "IV"] * 2 + ["III"]},
    "alternating-iv-first": {"ranks": [2, 1, 1, 1, 1], "iota": ["IV", "III"] * 2},
    "rank-0": {"ranks": [0, 1, 2], "iota": ["III", "IV"]},
    "merged-iv": {"ranks": [2, 1, 1, 3, 1], "iota": ["III", "IV", "IV", "III"]},
}


def tower(doc, mode):
    spec = RepresentationSpec.from_json(doc)
    if mode == "standard":
        target = build_standard_target(spec)
        return Countertower(target.spec, "standard", target.stages)
    return build_representation(spec, mode)


def written(t) -> str:
    buf = io.StringIO()
    write_tower_json(t, buf)
    return buf.getvalue()


@pytest.mark.parametrize("mode", [MODE_I_II, MODE_III_IV, "standard"])
@pytest.mark.parametrize("name", list(SPECS))
def test_writer_text_equals_the_reference_encoder(name, mode):
    t = tower(SPECS[name], mode)
    assert written(t) == json.dumps(tower_to_json(t), indent=2)


def test_every_file_gets_the_same_text():
    t = tower(README_SPEC, "standard")
    files = io.StringIO(), io.StringIO()
    write_tower_json(t, *files)
    assert files[0].getvalue() == files[1].getvalue() == written(t)


def test_merged_iv_runs_shorten_the_standard_tower():
    t = tower(SPECS["merged-iv"], "standard")
    assert len(t.stages) < len(SPECS["merged-iv"]["ranks"])
    assert json.loads(written(t)) == tower_to_json(t)


def test_bounded_and_rational_algebras_serialise_unchanged():
    assert algebra_to_json(q_chain()) == {"base": "Q"}
    q2 = {"plp": "III", "first": {"base": "Q"}, "vdesc": ["1"],
          "second": {"base": "Q"}, "zdesc": ["1"]}
    assert algebra_to_json(make_qj(2)) == q2
    assert algebra_to_json(adjoin_bounds(make_qj(2))) == {"bounded": q2}
    assert algebra_to_json(adjoin_bounds(make_zj(2)), {}) == {"bounded": {
        "plp": "IV", "first": {"base": "Z", "rank": 1}, "vdesc": ["*"],
        "second": {"base": "Z", "rank": 1}}}
    for algebra in (q_chain(), make_qj(3), adjoin_bounds(make_qj(2))):
        doc = algebra_to_json(algebra)
        assert algebra_to_json(algebra_from_json(doc)) == doc


def test_memo_shares_each_stage_as_the_next_stages_first():
    t = tower(SPECS["iii-6"], MODE_III_IV)
    doc = tower_to_json(t)
    for below, stage in zip(doc["stages"], doc["stages"][1:]):
        assert stage["first"] is below


def counting(monkeypatch, name, count_if=lambda *args: True):
    calls = [0]
    original = getattr(serialize, name)

    def counted(*args):
        calls[0] += count_if(*args)
        return original(*args)

    monkeypatch.setattr(serialize, name, counted)
    return calls


@pytest.mark.parametrize("mode", [MODE_III_IV, "standard"])
@pytest.mark.parametrize("n", [16, 32])
def test_document_and_text_builds_grow_linearly_in_stages(monkeypatch, n, mode):
    # Without the memo every stage rebuilds the whole algebra below it:
    # n(n+1)/2 product and base documents, and as many dict texts.
    t = tower({"ranks": [1] * n, "iota": ["III"] * (n - 1)}, mode)
    docs = counting(monkeypatch, "_algebra_doc")
    texts = counting(monkeypatch, "_indented", lambda value, *rest: isinstance(value, dict))
    written(t)
    assert docs[0] <= 2 * n
    assert texts[0] <= 3 * n + 1
    docs[0] = 0
    tower_to_json(t)
    assert docs[0] <= 2 * n
