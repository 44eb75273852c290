import hashlib
import random

import pytest

from oddlex import plp, verify
from oddlex.chains import z_chain
from oddlex.elements import format_elem
from oddlex.sampling import sample_elem
from oddlex.towers import RepresentationSpec
from oddlex.verify import PropertyCheck, involution_suite, _rng


def test_witnesses_are_formatted_only_for_kept_failures(monkeypatch):
    calls = []

    def counting(e):
        calls.append(e)
        return format_elem(e)

    monkeypatch.setattr(verify, "format_elem", counting)
    rec = PropertyCheck("law")
    a, b = (1,), (-2,)
    for _ in range(10):
        rec.tally(True, "a={} b={}", a, b)
    assert calls == []
    for _ in range(7):
        rec.tally(False, "a={} b={}", a, b)
    rec.tally(False, "unit")
    assert (rec.samples, rec.failures) == (18, 8)
    assert rec.witnesses == ["a=1 b=-2"] * 5
    assert len(calls) == 10  # two literals for each of the five kept witnesses


def test_passing_suites_format_nothing(monkeypatch):
    monkeypatch.setattr(verify, "format_elem", lambda e: 1 / 0)
    checks = involution_suite(z_chain(2), _rng(0, "involution"), 50)
    assert all(c.ok and not c.witnesses for c in checks)


def test_iso_suite_builds_each_flattening_once_whatever_the_sample_count(monkeypatch):
    calls = []
    original = plp.build_plp

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(plp, "build_plp", counting)
    monkeypatch.setattr(verify, "build_plp", counting)
    verify.iso_suite(random.Random(0), 1)  # whatever is built once is built here
    counts = []
    for samples in (10, 100):
        calls.clear()
        checks = verify.iso_suite(random.Random(0), samples)
        assert all(c.failures == 0 for c in checks)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_law_rows_fill_witnesses_from_their_draw_positions(monkeypatch):
    drawn = []

    def logged(fn):
        def wrapper(*args):
            drawn.append(fn(*args))
            return drawn[-1]
        return wrapper

    monkeypatch.setattr(verify, "sample_elem", logged(verify.sample_elem))
    monkeypatch.setattr(verify, "sample_group_elem", logged(verify.sample_group_elem))
    third, swapped = verify._laws(z_chain(2), random.Random(0), 7, "eeg",
                                  ("always fails", lambda a, b, g: False, "{2}"),
                                  ("fails too", lambda a, b, g: False, "b={1} a={0}"))
    assert len(drawn) == 21
    rounds = [[format_elem(e) for e in drawn[i:i + 3]] for i in range(0, 21, 3)]
    assert len({r[2] for r in rounds[:5]}) > 1  # distinct draws, so positions show
    assert (third.samples, third.failures) == (swapped.samples, swapped.failures) == (7, 7)
    assert third.witnesses == [g for _, _, g in rounds[:5]]
    assert swapped.witnesses == [f"b={b} a={a}" for a, b, _ in rounds[:5]]


def test_law_rows_count_only_the_draws_a_law_applies_to():
    A = z_chain(1)
    rng = random.Random(1)
    pairs = [(sample_elem(A, rng), sample_elem(A, rng)) for _ in range(200)]
    ordered = sum(A._compare(a, b) <= 0 for a, b in pairs)
    assert 0 < ordered < 200
    partial, total = verify._laws(
        A, random.Random(1), 200, "ee",
        ("fails where it applies", lambda a, b: False if A._compare(a, b) <= 0 else None, "{0}"),
        ("holds everywhere", lambda a, b: True, "{0}"))
    assert (partial.samples, partial.failures) == (ordered, ordered)
    assert (total.samples, total.failures) == (200, 0)


@pytest.mark.parametrize("samples", [0, -3])
def test_sample_counts_below_one_are_refused(samples):
    spec = RepresentationSpec.from_json(README_SPEC)
    with pytest.raises(ValueError, match=f"got {samples}"):
        verify.run_verification(spec, "all", samples, 0)
    with pytest.raises(ValueError, match=f"got {samples}"):
        verify.iso_suite(random.Random(0), samples)


README_SPEC = {"ranks": [1, 1, 1], "iota": ["III", "IV"],
               "zdescs": [["*"], ["2", "*"]], "vdescs": [["2"], ["2", "3"]]}


def _draw_log(monkeypatch, doc: dict) -> list[str]:
    """One literal per sampler call of ``run_verification`` over ``doc``, in
    order: every suite, 25 samples, seed 0, without and with ``standard``."""
    log = []

    def logged(fn, show):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append(show(out))
            return out
        return wrapper

    monkeypatch.setattr(verify, "sample_elem", logged(verify.sample_elem, format_elem))
    monkeypatch.setattr(verify, "sample_group_elem",
                        logged(verify.sample_group_elem, format_elem))
    monkeypatch.setattr(verify, "sample_distinct_pair", logged(
        verify.sample_distinct_pair,
        lambda p: "-" if p is None else " < ".join(map(format_elem, p))))
    spec = RepresentationSpec.from_json(doc)
    for standard in (False, True):
        verify.run_verification(spec, "all", 25, 0, standard=standard)
    return log


def _digest(log: list[str]) -> str:
    return hashlib.sha256("\n".join(log).encode()).hexdigest()


def test_verify_draws_the_same_elements_in_the_same_order(monkeypatch):
    # A passing check records only counts, so the draws themselves are pinned
    # here: one literal per draw, in order, over every suite of both towers.
    # The log spells fiber markers T/B and global bounds TOP/BOT, so it also
    # pins how each prints.
    log = _draw_log(monkeypatch, README_SPEC)
    assert len(log) == 2022
    assert any("TOP" in e for e in log) and any("BOT" in e for e in log)
    assert any(", T)" in e for e in log) and any(", B)" in e for e in log)
    assert _digest(log) \
        == "8a4a54b4f6f824e8c8716515df0adc0b0f2bb72a245d0d466b56ff523b86936e"


def test_verify_draws_the_same_elements_on_a_deep_tower(monkeypatch):
    # The same pin on ten left-nested III/IV/III stages, where every draw
    # recurses through the whole tower.
    doc = {"ranks": [1] * 10, "iota": [("III", "IV", "III")[i % 3] for i in range(9)]}
    log = _draw_log(monkeypatch, doc)
    assert len(log) == 5190
    assert _digest(log) \
        == "6e3cede2e829b639077aa4dde472f102689f612649c894c407c5ac5091bd8492"
