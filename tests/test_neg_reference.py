"""Negation, residuum, group coordinates and membership against a reference.

The reference is the earlier form of ``_neg_coords``/``_group_coords``,
kept here: every product level tests its first component's coordinates
against the full Z/V descriptor and builds the coordinate tuple of a pair as
``cx + cs``.  The library tests only the entries its first factor's group
part does not already imply (``PlpAlgebra._zrel``/``_vrel``), through one
coordinate buffer per operation, so the two must agree element for element.
"""

import pytest

from oddlex import (
    BoundedAlgebra,
    PlpAlgebra,
    RepresentationSpec,
    adjoin_bounds,
    build_representation,
    build_standard_target,
)
from oddlex.chains import BaseAlgebra, PlpKind
from oddlex.elements import BOT_BOUND, BOT_MARKER, TOP_BOUND, TOP_MARKER, Bound, Pair
from oddlex.sampling import sample_elem, window_elements
from oddlex.towers import MODE_I_II, MODE_III_IV
from conftest import rng
from test_order_key import ALGEBRAS, README_SPEC


def ref_neg_coords(A, a, want):
    """``(neg a, group coordinates of a when want else None)``, full descriptors."""
    if isinstance(A, BaseAlgebra):
        return A._invert(a), A.coords(a) if want else None
    if isinstance(A, BoundedAlgebra):
        if isinstance(a, Bound):
            return (TOP_BOUND if a is BOT_BOUND else BOT_BOUND), None
        return ref_neg_coords(A.inner, a, want)
    x, s = a.first, a.second
    if A.kind is PlpKind.III:
        nx, cx = ref_neg_coords(A.first, x, True)
        if cx is None or not A.zdesc.contains_coords(cx):
            return Pair(nx, BOT_MARKER), None
        if isinstance(s, Bound):
            return Pair(nx, TOP_MARKER if s is BOT_MARKER else BOT_MARKER), None
    elif s is TOP_MARKER:
        nx, cx = ref_neg_coords(A.first, x, True)
        return Pair(nx if cx is None else A.first._cover_down(nx), TOP_MARKER), None
    else:
        nx, cx = ref_neg_coords(A.first, x, want)
    ns, cs = ref_neg_coords(A.second, s, want)
    return Pair(nx, ns), (cx + cs if want and cs is not None else None)


def ref_neg(A, a):
    return ref_neg_coords(A, a, False)[0]


def ref_group_coords(A, e):
    if isinstance(A, BaseAlgebra):
        return A.coords(e) if A.contains(e) else None
    if isinstance(A, BoundedAlgebra):
        return None if isinstance(e, Bound) else ref_group_coords(A.inner, e)
    if not isinstance(e, Pair) or isinstance(e.second, Bound):
        return None
    cx = ref_group_coords(A.first, e.first)
    if cx is None or not A.vdesc.contains_coords(cx):
        return None
    cs = ref_group_coords(A.second, e.second)
    return None if cs is None else cx + cs


def ref_contains(A, e):
    if isinstance(A, BaseAlgebra):
        return A.contains(e)
    if isinstance(A, BoundedAlgebra):
        return isinstance(e, Bound) or ref_contains(A.inner, e)
    if not isinstance(e, Pair):
        return False
    x, s = e.first, e.second

    def in_subgroup(desc):
        coords = ref_group_coords(A.first, x)
        return coords is not None and desc.contains_coords(coords)

    if s is BOT_MARKER or (s is TOP_MARKER and A.kind is PlpKind.IV):
        return (s is TOP_MARKER or A.kind is PlpKind.III) and ref_contains(A.first, x)
    if s is TOP_MARKER:
        return in_subgroup(A.zdesc)
    return in_subgroup(A.vdesc) and ref_contains(A.second, s)


SPECS = {
    "readme": README_SPEC,
    "iii12": {"ranks": [1] * 12, "iota": ["III"] * 11},
    "alt12": {"ranks": [1] * 12, "iota": ["III", "IV"] * 5 + ["III"]},
    # '2', '3/2' and '0' entries and a rank-2 stage, which --standard builds
    # over Z_2 because a type IV stage follows it
    "mixed": {"ranks": [1, 1, 2, 1, 1], "iota": ["III", "III", "IV", "III"],
              "zdescs": [["2"], ["4", "3/2"], None, ["8", "0", "2", "*", "2"]],
              "vdescs": [["4"], ["8", "0"], ["8", "0", "2", "*"],
                         ["16", "0", "2", "*", "4"]]},
    "trivial-first": {"ranks": [0, 2, 1], "iota": ["III", "III"], "zdescs": [[], ["2", "*"]]},
}

CASES = dict(ALGEBRAS)
for label, doc in SPECS.items():
    spec = RepresentationSpec.from_json(doc)
    CASES[f"{label} III-IV"] = adjoin_bounds(build_representation(spec, MODE_III_IV).top)
    CASES[f"{label} I-II"] = adjoin_bounds(build_representation(spec, MODE_I_II).top)
    CASES[f"{label} standard"] = adjoin_bounds(build_standard_target(spec).top)


def _members(name, A):
    r = rng(f"neg-reference:{name}")
    elems = window_elements(A, radius=2, cap=120)
    elems += [sample_elem(A, r) for _ in range(200)]
    return list(dict.fromkeys(elems))


def _neighbours(A, e):
    """Candidates beside a member: its first component under each marker and
    under the second factor's unit, most of them outside the carrier."""
    inner = A.inner if isinstance(A, BoundedAlgebra) else A
    if not (isinstance(inner, PlpAlgebra) and isinstance(e, Pair)):
        return []
    return [Pair(e.first, TOP_MARKER), Pair(e.first, BOT_MARKER),
            Pair(e.first, inner.second.unit())]


@pytest.mark.parametrize("name", list(CASES))
def test_neg_residuum_and_group_coords_match_the_full_descriptor_reference(name):
    A = CASES[name]
    elems = _members(name, A)
    assert A.contains(A.unit()) and A._neg(A.unit()) == A.unit()
    for a, b in zip(elems, elems[1:] + elems[:1]):
        assert A._neg(a) == ref_neg(A, a), a
        assert A._residuum(a, b) == ref_neg(A, A._mult(a, ref_neg(A, b))), (a, b)
        assert A._group_coords(a) == ref_group_coords(A, a), a
    candidates = elems + [c for e in elems for c in _neighbours(A, e)]
    # every spec tower has neighbours outside its carrier, so both answers occur
    assert name in ALGEBRAS or not all(A.contains(c) for c in candidates)
    for c in candidates:
        assert A.contains(c) == ref_contains(A, c), c
        if ref_contains(A, c):
            assert A._group_coords(c) == ref_group_coords(A, c), c
