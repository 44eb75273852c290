import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from oddlex import (
    BOT_BOUND,
    INT_IN_Q,
    TOP_BOUND,
    Bound,
    MembershipError,
    NotDense,
    Pair,
    PreconditionViolation,
    QChain,
    UndefinedCover,
    adjoin_bounds,
    between,
    build_plp,
    make_zj,
    q_chain,
    qelem,
    z_chain,
    zelem,
)
from oddlex.chains import PlpAlgebra
from oddlex.sampling import sample_elem, window_elements
from oddlex.towers import RepresentationSpec, build_representation
from conftest import rng

Z = z_chain()
Q = q_chain()
Z2 = make_zj(2)
QZQ = build_plp("I", q_chain(), zdesc=INT_IN_Q, second=q_chain())
BZ = adjoin_bounds(z_chain())


def top(e):
    return Pair(e, Bound.TOP)


def bot(e):
    return Pair(e, Bound.BOT)


# -- order -------------------------------------------------------------------

def test_leq_lex_with_marker_fibers():
    assert QZQ.leq(Pair(qelem(0), qelem(7)), bot(qelem(1, 2)))
    assert not QZQ.leq(bot(qelem(1, 2)), Pair(qelem(0), qelem(7)))


def test_leq_reflexive_on_unit(named_algebras):
    for A in named_algebras.values():
        assert A.leq(A.unit(), A.unit())


def test_global_bottom_below_everything():
    assert BZ.leq(BOT_BOUND, zelem(-10 ** 6))
    assert BZ.leq(zelem(10 ** 6), TOP_BOUND)


def test_fiber_markers_bracket_values():
    assert Z2.lt(Pair(zelem(1), zelem(100)), top(zelem(1)))
    assert QZQ.lt(bot(qelem(1)), Pair(qelem(1), qelem(-100)))


# -- multiplication ----------------------------------------------------------

def test_mult_top_marker_annihilates_values():
    assert Z2.mult(top(zelem(1)), Pair(zelem(2), zelem(5))) == top(zelem(3))


def test_mult_bottom_marker_dominates_top():
    assert QZQ.mult(top(qelem(1)), bot(qelem(0))) == bot(qelem(1))


def test_mult_unit_neutral_sampled(named_algebras):
    r = rng("unit-law")
    for A in named_algebras.values():
        t = A.unit()
        for _ in range(300):
            a = sample_elem(A, r)
            assert A.mult(a, t) == a


def test_mult_requires_membership():
    with pytest.raises(MembershipError):
        Z2.mult(top(zelem(1)), zelem(1))
    with pytest.raises(MembershipError):
        QZQ.neg(Pair(qelem(1, 2), qelem(3)))  # non-integer first with a value fiber


def test_membership_messages():
    with pytest.raises(MembershipError, match=r"^1 is not an element of PLPII\(Z, Z\)$"):
        Z2.mult(top(zelem(1)), zelem(1))
    # An int is no group value, so it cannot be printed in the literal grammar.
    with pytest.raises(MembershipError, match=r"^1 is not an element of Q$"):
        q_chain().compare(q_chain().unit(), 1)


def test_the_unit_of_q_is_one_shared_zero():
    # The oddness gate compares t with neg t; with one zero, equal keys match by identity.
    assert Q.unit() is q_chain().unit() is Q._neg(Q.unit())
    assert Q._neg(Fraction(0)) == 0 and Q._neg(qelem(1, 2)) == qelem(-1, 2)
    assert QZQ.unit().first is Q.unit()


def test_messages_print_elements_as_literals(monkeypatch):
    with pytest.raises(MembershipError, match=r"^<1,2> is not an element of Z$"):
        Z.compare(zelem(0), zelem(1, 2))
    with pytest.raises(MembershipError, match=r"^1/2 is not an element of Z$"):
        Z.neg(Fraction(1, 2))
    with pytest.raises(UndefinedCover, match=r"^TOP lies outside the group part of Bounded\(Z\)$"):
        BZ.cover_up(TOP_BOUND)
    # The between witness never fails on a dense order; force the failure to see its text.
    monkeypatch.setattr(QChain, "_between", lambda self, x, y: None)
    with pytest.raises(NotDense, match=r"^no element between -1/2 and 1/2$"):
        between(Q, qelem(-1, 2), qelem(1, 2))


# -- negation ----------------------------------------------------------------

def test_neg_shifts_cover_on_top_marked_group_elements():
    assert Z2.neg(top(zelem(3))) == top(zelem(-4))


def test_neg_componentwise_on_group_pairs():
    assert Z2.neg(Pair(zelem(2), zelem(5))) == Pair(zelem(-2), zelem(-5))


def test_neg_keeps_bottom_fiber_outside_the_subgroup():
    assert QZQ.neg(bot(qelem(1, 2))) == bot(qelem(-1, 2))


def test_neg_is_involutive_and_order_reversing(named_algebras):
    r = rng("involution")
    for A in named_algebras.values():
        for _ in range(400):
            a, b = sample_elem(A, r), sample_elem(A, r)
            assert A.neg(A.neg(a)) == a
            assert A.leq(a, b) == A.leq(A.neg(b), A.neg(a))


def test_oddness(named_algebras):
    for A in named_algebras.values():
        assert A.neg(A.unit()) == A.unit()
        assert A.rank() == 0


# -- residuum ----------------------------------------------------------------

def test_residuum_in_the_integers():
    assert Z.residuum(zelem(2), zelem(1)) == zelem(-1)


def test_residuum_self_is_positive(named_algebras):
    r = rng("tau-positive")
    for A in named_algebras.values():
        for _ in range(200):
            a = sample_elem(A, r)
            assert A.leq(A.unit(), A.residuum(a, a))


def assert_is_residuum(A, a, b, r, window):
    """Independent check: r is the greatest v in the window with a*v <= b."""
    assert A.leq(A.mult(a, r), b)
    for v in window:
        if A.lt(r, v):
            assert not A.leq(A.mult(a, v), b)


def test_residuum_is_greatest_solution_in_window():
    a = b = top(zelem(0))
    r = Z2.residuum(a, b)
    assert r == top(zelem(0))
    assert_is_residuum(Z2, a, b, r, window_elements(Z2))


def test_adjointness_sampled(named_algebras):
    r = rng("adjointness")
    for A in named_algebras.values():
        for _ in range(500):
            a, b, v = (sample_elem(A, r) for _ in range(3))
            assert A.leq(A.mult(a, v), b) == A.leq(v, A.residuum(a, b))


def test_mult_monoid_laws_sampled(named_algebras):
    r = rng("monoid")
    for A in named_algebras.values():
        for _ in range(250):
            a, b, c = (sample_elem(A, r) for _ in range(3))
            assert A.mult(a, b) == A.mult(b, a)
            assert A.mult(a, A.mult(b, c)) == A.mult(A.mult(a, b), c)
            if A.leq(a, b):
                assert A.leq(A.mult(a, c), A.mult(b, c))


# -- tau ---------------------------------------------------------------------

def test_tau_examples():
    assert Q.tau(qelem(5, 7)) == qelem(0)
    assert Z2.tau(top(zelem(3))) == top(zelem(0))
    assert Z2.tau(Pair(zelem(2), zelem(5))) == Z2.unit()


def test_tau_values_are_positive_idempotent_fixpoints(named_algebras):
    r = rng("tau-range")
    for A in named_algebras.values():
        t = A.unit()
        for _ in range(300):
            ta = A.tau(sample_elem(A, r))
            assert A.mult(ta, ta) == ta
            assert A.leq(t, ta)
            assert A.tau(ta) == ta


def test_tau_of_terms_is_max_of_leaf_taus(named_algebras):
    from oddlex.verify import random_term

    r = rng("tau-terms")
    for A in named_algebras.values():
        pool = [sample_elem(A, r) for _ in range(6)]
        for _ in range(150):
            value, used = random_term(A, r, pool, depth=4)
            taus = [A.tau(u) for u in used]
            biggest = taus[0]
            for t in taus[1:]:
                biggest = t if A.lt(biggest, t) else biggest
            assert A.tau(value) == biggest


def test_sampled_positive_idempotents_are_tau_fixed(named_algebras):
    for A in named_algebras.values():
        for p in window_elements(A, radius=2, cap=300):
            if A.mult(p, p) == p and A.leq(A.unit(), p):
                assert A.tau(p) == p


# -- group part --------------------------------------------------------------

def test_group_part_examples():
    assert Z.group_part_contains(zelem(17))
    assert not Z2.group_part_contains(top(zelem(3)))
    assert Z2.group_part_contains(Pair(zelem(2), zelem(5)))


def test_group_part_equation_direct():
    a = top(zelem(3))
    assert Z2.mult(a, Z2.neg(a)) == top(zelem(-1))  # not the unit


# -- covers ------------------------------------------------------------------

def test_cover_examples():
    assert Z.cover_down(zelem(-3)) == zelem(-4)
    assert Z2.cover_down(Pair(zelem(2), zelem(5))) == Pair(zelem(2), zelem(4))
    with pytest.raises(UndefinedCover):
        Q.cover_down(qelem(1, 2))


def test_cover_up_is_adjacent_in_window():
    a = Pair(zelem(0), zelem(0))
    up = Z2.cover_up(a)
    assert up == Pair(zelem(0), zelem(1))
    for w in window_elements(Z2):
        assert not (Z2.lt(a, w) and Z2.lt(w, up))


def test_covers_mutually_inverse_sampled():
    r = rng("covers")
    from oddlex.sampling import sample_group_elem

    for A in (Z, Z2, make_zj(3)):
        for _ in range(200):
            a = sample_group_elem(A, A.group_part_descriptor, r)
            assert A.cover_down(A.cover_up(a)) == a
            assert A.cover_up(A.cover_down(a)) == a


def test_cover_refused_outside_group_part():
    with pytest.raises(UndefinedCover):
        Z2.cover_up(top(zelem(0)))


# -- bound adjunction --------------------------------------------------------

def test_adjoined_bottom_annihilates_top():
    assert BZ.mult(TOP_BOUND, BOT_BOUND) == BOT_BOUND


def test_adjoined_bounds_swap_under_negation():
    assert BZ.neg(TOP_BOUND) == BOT_BOUND
    assert BZ.neg(BOT_BOUND) == TOP_BOUND


def test_residuum_at_the_top_bound():
    assert BZ.residuum(TOP_BOUND, TOP_BOUND) == TOP_BOUND
    assert BZ.residuum(TOP_BOUND, zelem(5)) == BOT_BOUND


def test_double_bound_adjunction_rejected():
    with pytest.raises(PreconditionViolation):
        adjoin_bounds(BZ)


# -- the Pair contract ---------------------------------------------------------

def test_pair_is_immutable_and_has_no_dict():
    p = Pair(zelem(1), Bound.TOP)
    for field in ("first", "second"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, field, zelem(2))
        with pytest.raises(FrozenInstanceError):
            delattr(p, field)
    with pytest.raises(FrozenInstanceError):
        p.third = 3
    assert not hasattr(p, "__dict__")
    assert (p.first, p.second) == (zelem(1), Bound.TOP)


def test_pair_hashes_and_compares_as_its_tuple_but_never_equals_one():
    a, b = Pair(zelem(1), qelem(1, 2)), Pair(zelem(1), qelem(2, 4))
    assert a == b and a is not b and not (a != b)
    assert hash(a) == hash(b) == hash((zelem(1), qelem(1, 2)))
    assert a != Pair(zelem(1), qelem(1, 3)) and a != Pair(zelem(2), qelem(1, 2))
    assert a != (zelem(1), qelem(1, 2)) and (zelem(1), qelem(1, 2)) != a
    assert len({a, b, Pair(a, Bound.BOT), Pair(b, Bound.BOT)}) == 2


def test_pair_repr_is_the_dataclass_repr():
    assert repr(Pair(Pair(zelem(1, -2), qelem(1, 2)), Bound.TOP)) \
        == "Pair(first=Pair(first=(1, -2), second=Fraction(1, 2)), second=<Bound.TOP: 'TOP'>)"
    assert repr(Pair((), BOT_BOUND)) == "Pair(first=(), second=<Bound.BOT: 'BOT'>)"


def test_pair_survives_copy_and_pickle_on_a_300_stage_tower():
    n = 300
    tower = build_representation(
        RepresentationSpec.from_json({"ranks": [1] * n, "iota": ["III"] * (n - 1)}), "III-IV")
    for A in (Z2, tower.stages[-1]):
        for e in (A.unit(), sample_elem(A, rng(0))):
            for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
                assert twin == e and hash(twin) == hash(e) and A.contains(twin)
    depth, e = 0, tower.stages[-1].unit()
    while isinstance(e, Pair):
        depth, e = depth + 1, e.first
    assert depth == n - 1


def test_an_algebra_hashes_its_tower_once(monkeypatch):
    # A memo lookup keyed by a deep tower must not rehash every level below.
    spec = RepresentationSpec.from_json({"ranks": [1] * 12, "iota": ["III", "IV"] * 5 + ["III"]})
    A, B = (adjoin_bounds(build_representation(spec).top) for _ in range(2))
    calls = []
    plp_hash = PlpAlgebra.__hash__

    def counting(self):
        calls.append(self)
        return plp_hash(self)

    monkeypatch.setattr(PlpAlgebra, "__hash__", counting)
    assert A == B and A is not B and hash(A) == hash(B)
    assert len(calls) == 2 * 11
    hash(A), hash(B), {A: 1}[B]
    assert len(calls) == 2 * 11
    # A cached hash is not pickled: it holds only in the process that made it.
    twin = pickle.loads(pickle.dumps(A))
    assert "_hash" not in vars(twin) and twin == A and hash(twin) == hash(A)
