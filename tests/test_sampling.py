"""The systematic window against its plain definition.

``reference_window`` below is the window as first written: enumerate the
whole coordinate box, pair the capped component windows up to the
``3 * cap`` break, sort by ``(size, literal)`` with a ``Fraction`` size that
re-walks every element, truncate.  The keyed, shell-by-shell window in
``oddlex.sampling`` must return exactly the same list.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from oddlex import chains
from oddlex.chains import (BaseAlgebra, BoundedAlgebra, PlpAlgebra, QChain, ZLex, adjoin_bounds,
                           q_chain, trivial_chain, z_chain)
from oddlex.cli import main
from oddlex.elements import BOT_BOUND, TOP_BOUND, Bound, Pair, format_elem
from oddlex.errors import ShapeError
from oddlex.sampling import sample_elem, sample_group_elem, window_elements
from oddlex.towers import (
    MODE_I_II,
    MODE_III_IV,
    RepresentationSpec,
    build_representation,
    build_standard_target,
    make_qj,
    make_zj,
)


def _ref_size(e) -> Fraction:
    if isinstance(e, Bound):
        return Fraction(1, 4)
    if isinstance(e, (Fraction, tuple)):
        return abs(e) if isinstance(e, Fraction) else Fraction(sum(abs(c) for c in e))
    return _ref_size(e.first) + _ref_size(e.second)


def _ref_box(chain, radius):
    if isinstance(chain, ZLex):
        return list(itertools.product(range(-radius, radius + 1), repeat=chain.dim))
    if isinstance(chain, QChain):
        return list({Fraction(p, q) for q in (1, 2, 3)
                     for p in range(-radius * q, radius * q + 1)})
    return [()]


def _ref_all(A, radius, cap):
    if isinstance(A, BaseAlgebra):
        return _ref_box(A, radius)
    if isinstance(A, BoundedAlgebra):
        return [BOT_BOUND, TOP_BOUND] + _ref_all(A.inner, radius, cap)
    second_window = reference_window(A.second, radius, cap)
    out = []
    for x in reference_window(A.first, radius, cap):
        coords = A.first._group_coords(x)
        if A.has_bot_marker:
            out.append(Pair(x, Bound.BOT))
            if coords is not None and A.zdesc.contains_coords(coords):
                out.append(Pair(x, Bound.TOP))
        else:
            out.append(Pair(x, Bound.TOP))
        if coords is not None and A.vdesc.contains_coords(coords):
            out.extend(Pair(x, y) for y in second_window)
        if len(out) > 3 * cap:
            break
    return out


def reference_window(A, radius, cap):
    out = _ref_all(A, radius, cap)
    out.sort(key=lambda e: (_ref_size(e), format_elem(e)))
    return out[:cap]


README_SPEC = {"ranks": [1, 1, 1], "iota": ["III", "IV"],
               "zdescs": [["*"], ["2", "*"]], "vdescs": [["2"], ["2", "3"]]}


def _top(doc, mode=MODE_I_II):
    return build_representation(RepresentationSpec.from_json(doc), mode).top


def _standard_top(doc):
    return build_standard_target(RepresentationSpec.from_json(doc)).top


LEFT_III_IV = {"ranks": [1, 1, 1, 1], "iota": ["III", "IV", "III"]}
LEFT_III = {"ranks": [1, 2, 1], "iota": ["III", "III"]}
RANK0_STAGE = {"ranks": [0, 1, 2], "iota": ["III", "IV"]}

ALGEBRAS = {
    "Z": lambda: z_chain(1),
    "Z^2": lambda: z_chain(2),
    "Z^3": lambda: z_chain(3),
    "Z^4": lambda: z_chain(4),
    "Q": q_chain,
    "1": trivial_chain,
    "Z_3": lambda: make_zj(3),
    "Q_2": lambda: make_qj(2),
    "bounded Z^2": lambda: adjoin_bounds(z_chain(2)),
    "bounded Q_2": lambda: adjoin_bounds(make_qj(2)),
    "bounded README": lambda: adjoin_bounds(_top(README_SPEC)),
    "README I-II": lambda: _top(README_SPEC),
    "left III/IV, I-II": lambda: _top(LEFT_III_IV),
    "left III/IV, III-IV": lambda: _top(LEFT_III_IV, MODE_III_IV),
    "left III": lambda: _top(LEFT_III),
    "standard left III/IV": lambda: adjoin_bounds(_standard_top(LEFT_III_IV)),
    "standard README": lambda: _standard_top(README_SPEC),
    "rank-0 stage": lambda: adjoin_bounds(_top(RANK0_STAGE)),
    "rank-0 stage alone": lambda: _top({"ranks": [0], "iota": []}),
}


def _left_nested(n, kinds):
    return {"ranks": [1] * n, "iota": [kinds[i % len(kinds)] for i in range(n - 1)]}


# The deep towers the countermodel search windows, checked at its radius and
# at two caps: the 12-stage ones are slow under the reference.
DEEP_ALGEBRAS = {
    "bounded iii12": lambda: adjoin_bounds(_top(_left_nested(12, ("III",)))),
    "bounded alt12": lambda: adjoin_bounds(_top(_left_nested(12, ("III", "IV")))),
    "bounded standard alt12": lambda: adjoin_bounds(_standard_top(_left_nested(12, ("III", "IV")))),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + sorted(DEEP_ALGEBRAS))
def test_window_matches_the_reference_definition(name):
    if name in DEEP_ALGEBRAS:
        A, radii, caps = DEEP_ALGEBRAS[name](), (3,), (60, 400)
    else:
        A, radii, caps = ALGEBRAS[name](), (1, 2, 3, 4), (10, 60, 400, 4000)
    for radius in radii:
        for cap in caps:
            assert window_elements(A, radius, cap) == reference_window(A, radius, cap), \
                (name, radius, cap)


def test_the_window_builds_no_row_that_the_cap_drops(monkeypatch):
    # Per product level, a literal is formatted and a Pair built only for the
    # candidates no larger than the cap-th smallest size: the kept rows plus
    # the ties at that cutoff, not the about 3 * cap candidates.
    A, cap = DEEP_ALGEBRAS["bounded iii12"](), 60
    pairs, levels = [], []
    candidates = PlpAlgebra._window_candidates

    def recording(algebra, *args):
        sizes, rows_upto = candidates(algebra, *args)

        def recorded(cutoff):
            before = len(pairs)
            rows = rows_upto(cutoff)
            levels.append((sorted(sizes), cutoff, rows, len(pairs) - before))
            return rows
        return sizes, recorded

    def counting_pair(x, s):
        pairs.append(None)
        return Pair(x, s)

    monkeypatch.setattr(PlpAlgebra, "_window_candidates", recording)
    monkeypatch.setattr(chains, "Pair", counting_pair)
    assert len(window_elements(A, 3, cap)) == cap
    assert len(levels) == 11
    for sizes, cutoff, rows, built in levels:
        kept_and_ties = cap + sizes.count(cutoff)
        literals = {lit for (_, lit), _, _ in rows}
        assert built == len(literals) == len(rows) <= kept_and_ties
    # Every level past the first has about 3 * cap candidates.
    assert all(len(sizes) > 2.5 * cap for sizes, _, _, _ in levels[1:])


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_window_rows_carry_the_group_coordinates(name):
    A = ALGEBRAS[name]()
    for _, e, coords in A._window_rows(3, 400, {}):
        assert coords == A._group_coords(e), format_elem(e)


@pytest.mark.parametrize("A", [z_chain(1), z_chain(3), q_chain(), trivial_chain()],
                         ids=str)
def test_a_smaller_cap_gives_a_prefix_on_base_chains(A):
    for radius in (1, 3):
        full = window_elements(A, radius, 4000)
        for cap in (1, 5, 10, 37, 60):
            assert window_elements(A, radius, cap) == full[:cap]


def test_a_smaller_cap_is_not_a_prefix_on_products():
    # The 3 * cap break and the capped component windows decide membership,
    # so the cap-10 window of the README spec is not a prefix of the cap-4000
    # one: they part at index 9.
    A = _top(README_SPEC)
    small, large = window_elements(A, 3, 10), window_elements(A, 3, 4000)
    assert small[:9] == large[:9]
    assert format_elem(small[9]) == "((-1, 0), T)"
    assert format_elem(large[9]) == "((1, 0), 0)"


def test_zlex_window_is_whole_l1_shells():
    # Shells 0-2 of Z^10 in the box of radius 3 hold 1 + 20 + 200 vectors.
    vectors = ZLex(10).window(3, 60)
    assert len(vectors) == len(set(vectors)) == 221
    assert max(sum(map(abs, v)) for v in vectors) == 2
    for rank in (1, 2, 3):
        for cap in (1, 5, 30):
            got = ZLex(rank).window(2, cap)
            top = max(sum(map(abs, v)) for v in got)
            box = [v for v in itertools.product(range(-2, 3), repeat=rank)
                   if sum(map(abs, v)) <= top]
            assert sorted(got) == sorted(box)
            assert len(got) >= cap or len(got) == 5 ** rank


def test_window_sizes_must_be_whole_twelfths(monkeypatch):
    monkeypatch.setattr(QChain, "window", lambda self, radius, cap: [Fraction(1, 5)])
    with pytest.raises(ShapeError, match="denominator"):
        window_elements(q_chain())


def test_countermodel_on_a_rank_10_stage_stays_within_its_budget(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ranks": [10], "iota": []}))
    assert main(["countermodel", str(spec), "p -> (p * p)", "--budget", "10"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["result"] in ("found", "not-found")


# (3/2)Z meets Z in 3Z, so a Z coordinate under the entry 3/2 takes multiples of 3.
NON_INTEGER_ENTRY_SPEC = {"ranks": [1, 1], "iota": ["III"],
                          "zdescs": [["3/2"]], "vdescs": [["3/2"]]}


@pytest.mark.parametrize("mode", [MODE_I_II, MODE_III_IV])
def test_samplers_draw_members_under_non_integer_entries(mode):
    spec = RepresentationSpec.from_json(NON_INTEGER_ENTRY_SPEC)
    A = build_representation(spec, mode).top
    r = random.Random("sampling:non-integer-entry")
    for _ in range(200):
        assert A.contains(sample_elem(A, r))
        x = sample_group_elem(A.first, A.zdesc, r)
        assert A.zdesc.contains_coords(A.first._group_coords(x))


@pytest.mark.parametrize("standard", [[], ["--standard"]])
def test_verify_runs_under_non_integer_entries(tmp_path, capsys, standard):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(NON_INTEGER_ENTRY_SPEC))
    assert main(["verify", str(spec), "--samples", "200"] + standard) in (0, 1)
    assert "error:" not in capsys.readouterr().err
