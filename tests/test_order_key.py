"""The flat order key: ``Algebra._compare`` is native comparison of ``_key``.

Each algebra is checked on pairs drawn from its systematic window (which
holds many elements sharing a first component, so the fiber ranks decide)
and from seeded samples, against a structural reference compare written
here: first component, then fiber rank B < value < T, then second
component; the global bounds outermost.
"""

import itertools

import pytest

from oddlex import (
    INT_IN_Q,
    BoundedAlgebra,
    Bound,
    PlpAlgebra,
    RepresentationSpec,
    SubgroupDescriptor,
    adjoin_bounds,
    build_plp,
    build_representation,
    make_qj,
    make_zj,
    q_chain,
    trivial_chain,
    z_chain,
)
from oddlex.elements import BOT_BOUND, TOP_BOUND
from oddlex.sampling import sample_elem, sample_group_elem, window_elements
from oddlex.towers import MODE_III_IV, build_standard_target
from conftest import rng

D_FULL1 = SubgroupDescriptor.full(1)
D_EVEN = SubgroupDescriptor.from_strings(["2"])


def _left_nested(kinds):
    spec = RepresentationSpec((1,) * (len(kinds) + 1), tuple(kinds))
    return build_representation(spec, MODE_III_IV).top


README_SPEC = {"ranks": [1, 1, 1], "iota": ["III", "IV"],
               "zdescs": [["*"], ["2", "*"]], "vdescs": [["2"], ["2", "3"]]}


ALGEBRAS = {
    "Z^3": z_chain(3),
    "Q": q_chain(),
    "trivial": trivial_chain(),
    "Z with a trivial fiber": build_plp("I", z_chain(), zdesc=D_FULL1, second=trivial_chain()),
    "III": build_plp("III", z_chain(), zdesc=D_FULL1, vdesc=D_EVEN, second=z_chain()),
    "IV": build_plp("IV", z_chain(), vdesc=D_EVEN, second=z_chain(2)),
    "I over Q": build_plp("I", q_chain(), zdesc=INT_IN_Q, second=q_chain()),
    "right-nested Z_4": make_zj(4),
    "right-nested Q_3": make_qj(3),
    "left-nested III^5": _left_nested(["III"] * 5),
    "left-nested III/IV^6": _left_nested(["III", "IV"] * 3),
    "bounded left-nested III/IV": adjoin_bounds(_left_nested(["III", "IV", "III"])),
    "bounded README tower": adjoin_bounds(
        build_representation(RepresentationSpec.from_json(README_SPEC), MODE_III_IV).top),
    "bounded Z": adjoin_bounds(z_chain()),
}


def _fiber_rank(s):
    return 0 if s is Bound.BOT else 2 if s is Bound.TOP else 1


def _bound_rank(e):
    return 0 if e is BOT_BOUND else 2 if e is TOP_BOUND else 1


def _sign(x, y):
    return (x > y) - (x < y)


def reference_compare(algebra, a, b):
    if isinstance(algebra, BoundedAlgebra):
        ra, rb = _bound_rank(a), _bound_rank(b)
        if ra != rb or ra != 1:
            return _sign(ra, rb)
        return reference_compare(algebra.inner, a, b)
    if isinstance(algebra, PlpAlgebra):
        c = reference_compare(algebra.first, a.first, b.first)
        if c:
            return c
        ra, rb = _fiber_rank(a.second), _fiber_rank(b.second)
        if ra != rb or ra != 1:
            return _sign(ra, rb)
        return reference_compare(algebra.second, a.second, b.second)
    return _sign(a, b)


def _pool(name, algebra, n_samples=30):
    r = rng(f"order-key:{name}")
    elems = window_elements(algebra, radius=1, cap=30)
    elems += [sample_elem(algebra, r) for _ in range(n_samples)]
    return list(dict.fromkeys(elems))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_key_order_is_the_structural_order(name):
    A = ALGEBRAS[name]
    elems = _pool(name, A)
    keys = {e: A._key(e) for e in elems}
    for a, b in itertools.product(elems, repeat=2):
        assert A._compare(a, b) == reference_compare(A, a, b), (a, b)
        ka, kb = keys[a], keys[b]
        assert (ka == kb) == (a == b), (a, b)
        if len(ka) < len(kb):
            assert kb[:len(ka)] != ka, (a, b)



def _rebuild(algebra, coords):
    """``algebra._build`` fed ``coords`` in order; every coordinate is used."""
    taken = iter(coords)
    e = algebra._build(lambda chain: next(taken))
    assert next(taken, None) is None
    return e


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_build_inverts_the_group_coordinates(name):
    A = ALGEBRAS[name]
    r = rng(f"build:{name}")
    for _ in range(30):
        g = sample_group_elem(A, A.group_part_descriptor, r)
        coords = A._group_coords(g)
        assert coords is not None and A.contains(g)
        assert _rebuild(A, coords) == g


@pytest.mark.parametrize("spec", [README_SPEC, {"ranks": [2, 0, 1], "iota": ["IV", "III"]}])
def test_build_round_trips_through_the_standard_embedding(spec):
    target = build_standard_target(RepresentationSpec.from_json(spec))
    r = rng("build:embed")
    for i, (source, stage) in enumerate(zip(target.source.stages, target.stages), 1):
        for _ in range(20):
            g = sample_group_elem(source, source.group_part_descriptor, r)
            image = target.embed(i, g)
            coords = stage._group_coords(image)
            if 0 not in spec["ranks"]:  # a rank-0 stage gains a zero coordinate
                assert coords == source._group_coords(g)
            assert _rebuild(stage, coords) == image
