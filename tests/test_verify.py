import random

from oddlex import plp, verify
from oddlex.chains import z_chain
from oddlex.elements import format_elem
from oddlex.verify import _Recorder, involution_suite, _rng


def test_witnesses_are_formatted_only_for_kept_failures(monkeypatch):
    calls = []

    def counting(e):
        calls.append(e)
        return format_elem(e)

    monkeypatch.setattr(verify, "format_elem", counting)
    rec = _Recorder("law")
    a, b = (1,), (-2,)
    for _ in range(10):
        rec.tally(True, "a={} b={}", a, b)
    assert calls == []
    for _ in range(7):
        rec.tally(False, "a={} b={}", a, b)
    rec.tally(False, "unit")
    assert (rec.check.samples, rec.check.failures) == (18, 8)
    assert rec.check.witnesses == ["a=1 b=-2"] * 5
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
