"""The random sampler reaches every fiber depth of a deep tower.

``sample_elem`` weighs a product's clauses by idempotent counts: the
``(v, y)`` clause, the only one that lifts the second factor's tau values,
takes their share of all of them.  So every tau value of a left-nested tower
is drawn about evenly, whatever its depth, and the tau suite's count check
sees them all.  Every carrier clause still keeps a positive probability.
"""

import collections
import random

import pytest

from oddlex.chains import BoundedAlgebra, PlpAlgebra, adjoin_bounds
from oddlex.elements import BOT_BOUND, BOT_MARKER, TOP_BOUND, TOP_MARKER, Pair
from oddlex.sampling import sample_elem
from oddlex.towers import MODE_I_II, MODE_III_IV, RepresentationSpec, build_representation
from oddlex.verify import adjointness_suite, monoid_suite, tau_suite


def _top(n, kinds, mode=MODE_I_II):
    spec = RepresentationSpec((1,) * n, tuple(kinds[i % len(kinds)] for i in range(n - 1)))
    return build_representation(spec, mode).top


DEEP = {f"{name}{n}": (n, kinds) for n in (16, 24)
        for name, kinds in (("iii", ("III",)), ("alt", ("III", "IV")))}


@pytest.mark.parametrize("bounded", [False, True], ids=["plain", "bounded"])
@pytest.mark.parametrize("name", list(DEEP))
def test_tau_suite_passes_on_deep_towers(name, bounded):
    A = _top(*DEEP[name])
    if bounded:
        A = adjoin_bounds(A)
    for seed in (1, 2, 3):
        checks = tau_suite(A, random.Random(f"deep-tau:{name}:{seed}"), 1000)
        assert all(c.ok for c in checks), [c.line() for c in checks if not c.ok]


@pytest.mark.parametrize("name, A", [
    ("bounded mixed10", adjoin_bounds(_top(10, ("III", "IV", "III")))),
    ("iii24", _top(24, ("III",))),  # the least even of the deep towers
])
def test_every_tau_value_is_drawn_about_evenly(name, A):
    r = random.Random(f"tau-frequency:{name}")
    draws = 10_000
    seen = collections.Counter(A._tau(sample_elem(A, r)) for _ in range(draws))
    assert len(seen) == A.idempotent_count
    assert min(seen.values()) >= draws / (5 * A.idempotent_count)


def _clause(A, e):
    """The carrier clause of ``A`` that ``e`` falls under."""
    if isinstance(A, BoundedAlgebra):
        return e.value if e in (BOT_BOUND, TOP_BOUND) else "inner"
    x, s = e.first, e.second
    cx = A.first._group_coords(x)
    if A.has_bot_marker:
        if s is not TOP_MARKER and s is not BOT_MARKER:
            return "V x Y"
        if cx is not None and A.zdesc.contains_coords(cx):
            return "Z x T" if s is TOP_MARKER else "Z x B"
        return "(X \\ Z) x B"
    return "X x T" if s is TOP_MARKER else "V x Y"


def _clauses_per_level(A, e, out, level=0):
    out.add((level, _clause(A, e)))
    if isinstance(A, BoundedAlgebra):
        if e not in (BOT_BOUND, TOP_BOUND):
            _clauses_per_level(A.inner, e, out, level + 1)
    elif isinstance(A.first, PlpAlgebra):
        _clauses_per_level(A.first, e.first, out, level + 1)


@pytest.mark.parametrize("kinds", [("III",), ("III", "IV")], ids=["iii", "alt"])
def test_every_carrier_clause_is_drawn_at_every_level(kinds):
    # III-IV mode keeps Z \ V non-empty, so every clause has members.
    A = adjoin_bounds(_top(24, kinds, MODE_III_IV))
    r = random.Random(f"clauses:{kinds}")
    seen = set()
    for _ in range(3000):
        _clauses_per_level(A, sample_elem(A, r), seen)
    expected = {(0, "BOT"), (0, "TOP"), (0, "inner")}
    level, B = 1, A.inner
    while isinstance(B, PlpAlgebra) and isinstance(B.first, PlpAlgebra):
        names = (("V x Y", "Z x T", "Z x B", "(X \\ Z) x B") if B.has_bot_marker
                 else ("V x Y", "X x T"))
        expected |= {(level, n) for n in names}
        level, B = level + 1, B.first
    assert expected <= seen, sorted(expected - seen)


def test_a_multiplication_broken_at_a_deep_stage_is_caught(monkeypatch):
    A = _top(24, ("III", "IV"))
    stage20 = A
    for _ in range(4):
        stage20 = stage20.first
    mult = PlpAlgebra._mult

    def broken(self, a, b):
        p = mult(self, a, b)
        if self is stage20 and {a.second, b.second} == {BOT_MARKER, TOP_MARKER}:
            return Pair(p.first, TOP_MARKER)  # the top marker wins: wrong
        return p

    monkeypatch.setattr(PlpAlgebra, "_mult", broken)
    r = random.Random("deep-mutant")
    checks = adjointness_suite(A, r, 300) + monoid_suite(A, r, 300)
    assert not all(c.ok for c in checks)
