"""The base chains through the algebra layer's checked ops, and descriptors.

``z_chain(2)``, ``q_chain()`` and ``trivial_chain()`` are the groups Z^2, Q
and 1 viewed as odd chains: ``compare``, ``mult`` (= +), ``neg`` (= -) and
``cover_up``/``cover_down`` check membership of their operands.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddlex import (
    Algebra,
    MembershipError,
    ShapeError,
    SubgroupDescriptor,
    UndefinedCover,
    ZLex,
    adjoin_bounds,
    q_chain,
    trivial_chain,
    z_chain,
)
from oddlex.serialize import algebra_from_json, algebra_to_json

Z2 = z_chain(2)
Q = q_chain()

vectors2 = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_the_base_chains_are_algebras():
    for A, shown in ((Z2, "Z^2"), (z_chain(), "Z"), (Q, "Q"), (trivial_chain(), "1")):
        assert isinstance(A, Algebra)
        assert str(A) == shown
        assert str(adjoin_bounds(A)) == f"Bounded({shown})"
    assert Z2 == ZLex(2) and hash(Z2) == hash(ZLex(2))
    assert Z2 != z_chain(3) and Q != trivial_chain()
    for A in (z_chain(3), Q, trivial_chain()):
        assert algebra_from_json(algebra_to_json(A)) == A
    assert algebra_to_json(z_chain(3)) == {"base": "Z", "rank": 3}
    assert Z2.rank() == Q.rank() == trivial_chain().rank() == 0  # t = f


def test_lex_compare_examples():
    assert Z2.compare((1, -5), (1, 3)) == -1
    assert Q.compare(Fraction(1, 2), Fraction(1, 2)) == 0
    assert Z2.compare((2, -100), (1, 100)) == 1


def test_group_op_examples():
    assert Q.mult(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Z2.neg((3, -1)) == (-3, 1)
    assert z_chain(3).unit() == (0, 0, 0)


def test_succ_pred_examples():
    assert z_chain(1).cover_down((-3,)) == (-4,)
    assert Z2.cover_up((1, 7)) == (1, 8)
    with pytest.raises(UndefinedCover):
        Q.cover_up(Fraction(1, 2))
    with pytest.raises(UndefinedCover):
        trivial_chain().cover_down(())


def test_shape_errors():
    with pytest.raises(MembershipError):
        Z2.compare((1,), (1, 2))
    with pytest.raises(MembershipError):
        Q.mult(Fraction(1), (1, 2))
    with pytest.raises(ShapeError):
        ZLex(0)


def test_bool_coordinates_are_not_integers():
    # bool subclasses int, but True prints as "True", which no literal parses
    assert not z_chain().contains((True,))
    assert not Z2.contains((1, False))
    with pytest.raises(MembershipError):
        Z2.mult((True, 0), (0, 0))


@given(vectors2, vectors2, vectors2)
def test_lex_order_translation_invariant(a, b, c):
    assert (Z2.compare(a, b) < 0) == (Z2.compare(Z2.mult(a, c), Z2.mult(b, c)) < 0)


@given(vectors2, vectors2)
def test_lex_order_antisymmetric_and_inverse_reverses(a, b):
    assert Z2.compare(a, b) == -Z2.compare(b, a)
    assert (Z2.compare(a, b) < 0) == (Z2.compare(Z2.neg(b), Z2.neg(a)) < 0)


@given(rationals, rationals)
def test_rational_group_laws(a, b):
    assert Q.mult(a, b) == Q.mult(b, a)
    assert Q.mult(a, Q.unit()) == a
    assert Q.mult(a, Q.neg(a)) == Q.unit()


@given(vectors2)
def test_succ_covers(a):
    up = Z2.cover_up(a)
    assert Z2.compare(a, up) < 0
    assert Z2.cover_down(up) == a


def test_succ_is_a_cover_no_window_element_between():
    a = (0, 0)
    up = Z2.cover_up(a)
    window = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    assert not any(Z2.compare(a, w) < 0 and Z2.compare(w, up) < 0 for w in window)


def test_subgroup_membership_examples():
    ints_in_q = SubgroupDescriptor.from_strings(["1"])
    assert ints_in_q.contains_coords((Fraction(7),))
    assert not ints_in_q.contains_coords((Fraction(1, 2),))

    d = SubgroupDescriptor.from_strings(["2", "*"])
    assert d.contains_coords((4, -9))
    assert not d.contains_coords((3, 0))

    d2 = SubgroupDescriptor.from_strings(["0", "3"])
    assert not d2.contains_coords((1, 3))
    assert d2.contains_coords((0, -6))


def _reference_contains(desc, coords):
    """Descriptor membership written with Fraction arithmetic."""
    for e, c in zip(desc.entries, coords):
        if e is None:
            continue
        if e == 0:
            if c != 0:
                return False
        elif Fraction(c) % e != 0:
            return False
    return True


entry_strings = st.one_of(
    st.sampled_from(["*", "0"]),
    st.integers(1, 12).map(str),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"))


@st.composite
def descriptors_with_coords(draw):
    desc = SubgroupDescriptor.from_strings(draw(st.lists(entry_strings, max_size=5)))
    coords = []
    for e in desc.entries:
        # multiples of the entry are members, so they are drawn on purpose
        c = draw(st.one_of(st.integers(-60, 60), rationals,
                           st.integers(-20, 20).map(lambda k, e=e: k * (e or Fraction(1)))))
        if isinstance(c, Fraction) and c.denominator == 1 and draw(st.booleans()):
            c = int(c)
        coords.append(c)
    return desc, tuple(coords)


@given(descriptors_with_coords())
def test_contains_coords_agrees_with_the_fraction_reference(case):
    desc, coords = case
    assert desc.contains_coords(coords) == _reference_contains(desc, coords)


def _reference_refines(mine, theirs):
    """Descriptor refinement written with Fraction arithmetic."""
    if len(mine) != len(theirs):
        return False
    for m, t in zip(mine.entries, theirs.entries):
        if t is None:
            continue
        if m is None:
            return False
        if t == 0:
            if m != 0:
                return False
        elif m % t != 0:
            return False
    return True


@st.composite
def descriptor_pairs(draw):
    theirs = draw(st.lists(entry_strings, max_size=4))
    if draw(st.booleans()):  # unrelated, and often of another length
        mine = draw(st.lists(entry_strings, max_size=4))
    else:  # entrywise multiples, so that refinements occur often
        mine = [draw(entry_strings) if t == "*" else str(draw(st.integers(0, 4)) * Fraction(t))
                for t in theirs]
    return SubgroupDescriptor.from_strings(mine), SubgroupDescriptor.from_strings(theirs)


@given(descriptor_pairs())
def test_refines_agrees_with_the_fraction_reference(case):
    mine, theirs = case
    assert mine.refines(theirs) == _reference_refines(mine, theirs)


def test_subgroup_closure_sampled():
    d = SubgroupDescriptor.from_strings(["2", "3"])
    members = [(2 * i, 3 * j) for i in range(-4, 5) for j in range(-4, 5)]
    for a in members:
        assert d.contains_coords(a)
        assert d.contains_coords(Z2.neg(a))
        for b in members[:9]:
            assert d.contains_coords(Z2.mult(a, b))
    assert d.contains_coords(Z2.unit())


def test_descriptor_refinement():
    full = SubgroupDescriptor.full(2)
    even = SubgroupDescriptor.from_strings(["2", "*"])
    four = SubgroupDescriptor.from_strings(["4", "*"])
    zero = SubgroupDescriptor.from_strings(["0", "*"])
    assert even.refines(full)
    assert four.refines(even)
    assert zero.refines(four)
    assert not even.refines(four)
    assert not full.refines(even)
    half = SubgroupDescriptor.from_strings(["1/2"])
    ints = SubgroupDescriptor.from_strings(["1"])
    assert ints.refines(half)
    assert not half.refines(ints)


def test_descriptor_string_round_trip():
    d = SubgroupDescriptor.from_strings(["*", "0", "2", "1/2"])
    assert SubgroupDescriptor.from_strings(d.to_strings()) == d
    with pytest.raises(ShapeError):
        SubgroupDescriptor.from_strings(["x"])
    with pytest.raises(ShapeError):
        SubgroupDescriptor.from_strings(["-2"])
