"""Validation happens once, where values enter; the raw path trusts it.

The countermodel search and its window run on values validated at the
boundary, so they neither re-validate group values (``ZLex.contains``) nor
re-walk element trees for their group coordinates (``_group_coords``).  Every
boundary must still reject malformed input.
"""

from fractions import Fraction

import pytest

from oddlex.chains import (BaseAlgebra, BoundedAlgebra, PlpAlgebra, QChain, Trivial, ZLex,
                           adjoin_bounds, q_chain, z_chain)
from oddlex.elements import Bound, Pair
from oddlex.errors import LiteralSyntaxError, MembershipError, ShapeError
from oddlex.literals import parse_elem
from oddlex.logic import Countermodel, check_consequence, parse_formula
from oddlex.sampling import window_elements
from oddlex.towers import MODE_III_IV, RepresentationSpec, build_representation


def _left_nested(kinds, n=12):
    spec = {"ranks": [1] * n, "iota": [kinds[i % len(kinds)] for i in range(n - 1)]}
    return adjoin_bounds(build_representation(RepresentationSpec.from_json(spec),
                                              MODE_III_IV).top)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("kinds", [("III",), ("III", "IV")], ids=["iii12", "alt12"])
def test_the_window_never_walks_a_tree_for_group_coordinates(monkeypatch, kinds):
    A = _left_nested(kinds)
    calls = [_count_calls(monkeypatch, cls, "_group_coords")
             for cls in (BaseAlgebra, PlpAlgebra, BoundedAlgebra)]
    for cap in (60, 400):
        assert len(window_elements(A, 3, cap)) == cap
    assert calls == [[], [], []]


def test_the_countermodel_search_never_rechecks_group_values(monkeypatch):
    A = _left_nested(("III", "IV"))
    calls = _count_calls(monkeypatch, ZLex, "contains")
    found = check_consequence(A, [], parse_formula("(p*p)->p"), budget=2000, seed=1)
    missed = check_consequence(A, [parse_formula("p | ~p")],
                               parse_formula("p * q -> q * p"), budget=300, seed=1)
    assert found is not None and missed is None
    assert calls == []
    ZLex(1).mult((1,), (2,))  # the public op still goes through the counted check
    assert len(calls) == 2


@pytest.mark.parametrize("text, error", [
    ("<1,", LiteralSyntaxError),
    ("1/2", MembershipError),
    ("(1, (2, T))", MembershipError),
], ids=["syntax", "rational-in-Z", "marker-too-deep"])
def test_literal_parsing_rejects_non_members(text, error):
    with pytest.raises(error):
        parse_elem(build_representation(RepresentationSpec.from_json(
            {"ranks": [1, 1], "iota": ["III"]})).top, text)


@pytest.mark.parametrize("doc", [
    {"ranks": [-1]},
    {"ranks": [1.5]},
    {"ranks": [1, 1], "iota": ["III"], "vdescs": [["x"]]},
    {"ranks": [1, 1], "iota": ["V"]},
], ids=["negative-rank", "float-rank", "bad-entry", "bad-kind"])
def test_spec_json_rejects_malformed_documents(doc):
    with pytest.raises(ShapeError):
        RepresentationSpec.from_json(doc)


@pytest.mark.parametrize("literal", ["1/2", "<1,2>", "(0, T)"])
def test_countermodel_json_rejects_a_malformed_coordinate(literal):
    A = adjoin_bounds(z_chain(1))
    doc = check_consequence(A, [], parse_formula("(p*p)->p"), budget=2000).to_json()
    Countermodel.from_json(doc).validate()
    doc["assignment"]["p"] = literal
    with pytest.raises(MembershipError):
        Countermodel.from_json(doc)


@pytest.mark.parametrize("op", ["compare", "mult", "residuum"])
@pytest.mark.parametrize("A, bad", [
    (z_chain(2), (1,)),
    (z_chain(1), (Fraction(1, 2),)),
    (q_chain(), (1,)),
    (adjoin_bounds(z_chain(1)), Pair((0,), Bound.TOP)),
], ids=["short-vector", "rational-coordinate", "vector-for-Q", "pair-in-Z"])
def test_public_ops_reject_non_members(A, bad, op):
    unit = A.unit()
    with pytest.raises(MembershipError):
        getattr(A, op)(unit, bad)
    with pytest.raises(MembershipError):
        getattr(A, op)(bad, unit)


@pytest.mark.parametrize("chain, good, bad", [
    (ZLex(2), (1, 2), (1,)),
    (ZLex(2), (1, 2), (1, 2.0)),
    (ZLex(2), (1, 2), [1, 2]),
    (QChain(), Fraction(1, 2), 0.5),
    (Trivial(), (), (0,)),
], ids=["short", "float-coordinate", "list", "float-for-Q", "non-empty-for-1"])
def test_public_group_ops_reject_bad_values(chain, good, bad):
    for op in (chain.compare, chain.mult):
        with pytest.raises(MembershipError):
            op(good, bad)
        with pytest.raises(MembershipError):
            op(bad, good)
    for op in (chain.neg, chain.cover_up, chain.cover_down):
        with pytest.raises(MembershipError):
            op(bad)
