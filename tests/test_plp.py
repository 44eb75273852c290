import pytest

from oddlex import (
    INT_IN_Q,
    Bound,
    Pair,
    PlpAlgebra,
    PlpKind,
    PreconditionViolation,
    ShapeError,
    SubgroupDescriptor,
    ZLex,
    adjoin_bounds,
    build_plp,
    make_qj,
    make_zj,
    q_chain,
    qelem,
    trivial_chain,
    z_chain,
    zelem,
)
from oddlex.sampling import sample_elem, window_elements
from conftest import rng

D_FULL1 = SubgroupDescriptor.full(1)
D_EVEN = SubgroupDescriptor.from_strings(["2"])


# -- carriers, checked against the defining set equations ---------------------

def carrier_type3(xs, in_z, in_v, ys):
    """(V x (Y+{T,B})) | ((Z\\V) x {T,B}) | ((X\\Z) x {B}) built literally."""
    out = set()
    for x in xs:
        if in_v(x):
            out.update({Pair(x, Bound.TOP), Pair(x, Bound.BOT)})
            out.update(Pair(x, y) for y in ys)
        elif in_z(x):
            out.update({Pair(x, Bound.TOP), Pair(x, Bound.BOT)})
        else:
            out.add(Pair(x, Bound.BOT))
    return out


def carrier_type4(xs, in_v, ys):
    """(X x {T}) | (V x Y) built literally."""
    out = {Pair(x, Bound.TOP) for x in xs}
    for x in xs:
        if in_v(x):
            out.update(Pair(x, y) for y in ys)
    return out


def all_candidates(xs, ys):
    cands = set()
    for x in xs:
        cands.add(Pair(x, Bound.TOP))
        cands.add(Pair(x, Bound.BOT))
        cands.update(Pair(x, y) for y in ys)
    return cands


def test_type1_carrier_matches_set_equation():
    A = build_plp("I", q_chain(), zdesc=INT_IN_Q, second=q_chain())
    xs = window_elements(q_chain(), radius=2)
    ys = window_elements(q_chain(), radius=2)
    is_int = lambda e: e.denominator == 1
    expected = carrier_type3(xs, is_int, is_int, ys)
    for cand in all_candidates(xs, ys):
        assert A.contains(cand) == (cand in expected)


def test_type3_carrier_matches_set_equation():
    A = build_plp("III", z_chain(), zdesc=D_FULL1, vdesc=D_EVEN, second=z_chain())
    xs = window_elements(z_chain(), radius=3)
    ys = window_elements(z_chain(), radius=3)
    expected = carrier_type3(xs, lambda e: True, lambda e: e[0] % 2 == 0, ys)
    for cand in all_candidates(xs, ys):
        assert A.contains(cand) == (cand in expected)


def test_type2_carrier_matches_set_equation():
    A = make_zj(2)
    xs = window_elements(z_chain(), radius=3)
    ys = window_elements(z_chain(), radius=3)
    expected = carrier_type4(xs, lambda e: True, ys)
    for cand in all_candidates(xs, ys):
        assert A.contains(cand) == (cand in expected)


def test_type4_carrier_matches_set_equation():
    A = build_plp("IV", z_chain(), vdesc=D_EVEN, second=z_chain())
    xs = window_elements(z_chain(), radius=3)
    ys = window_elements(z_chain(), radius=3)
    expected = carrier_type4(xs, lambda e: e[0] % 2 == 0, ys)
    for cand in all_candidates(xs, ys):
        assert A.contains(cand) == (cand in expected)


def test_carrier_examples():
    QZQ = build_plp("I", q_chain(), zdesc=INT_IN_Q, second=q_chain())
    assert not QZQ.contains(Pair(qelem(1, 2), qelem(3)))
    assert QZQ.contains(Pair(qelem(1, 2), Bound.BOT))
    assert make_zj(2).contains(Pair(zelem(7), Bound.TOP))


# -- construction preconditions -----------------------------------------------

def test_examples_of_successful_builds():
    assert build_plp("II", z_chain(), second=z_chain()) == make_zj(2)
    assert build_plp("I", q_chain(), zdesc=INT_IN_Q, second=make_qj(1)) == make_qj(2)


def test_type2_over_a_dense_base_is_rejected():
    with pytest.raises(PreconditionViolation, match="not discretely embedded"):
        build_plp("II", q_chain(), second=z_chain())
    with pytest.raises(PreconditionViolation, match="not discretely embedded"):
        build_plp("IV", q_chain(), vdesc=INT_IN_Q, second=z_chain())


def test_bounded_operands_are_rejected():
    with pytest.raises(PreconditionViolation, match="bound-adjoined"):
        build_plp("II", adjoin_bounds(z_chain()), second=z_chain())
    with pytest.raises(PreconditionViolation, match="bound-adjoined"):
        build_plp("I", q_chain(), zdesc=INT_IN_Q, second=adjoin_bounds(q_chain()))


class _ShiftedNegation(ZLex):
    """Z with the involution x -> 1 - x, which moves the unit: t != f."""

    def _neg_coords(self, a, out):
        n, in_group = super()._neg_coords(a, out)
        return (n[0] + 1,), in_group


def test_operands_whose_negation_moves_the_unit_are_rejected():
    shifted = _ShiftedNegation(1)
    assert shifted.rank() != 0
    with pytest.raises(PreconditionViolation, match="not odd"):
        build_plp("II", shifted, second=z_chain())
    # one level down, inside a product built without the gate
    nested = PlpAlgebra(PlpKind.III, z_chain(), D_FULL1, D_FULL1, shifted)
    with pytest.raises(PreconditionViolation, match="first operand is not odd"):
        build_plp("I", nested, zdesc=SubgroupDescriptor.full(2), second=z_chain())
    with pytest.raises(PreconditionViolation, match="second operand is not odd"):
        build_plp("I", z_chain(), zdesc=D_FULL1, second=nested)


def test_descriptor_refinement_is_enforced():
    with pytest.raises(PreconditionViolation, match="refinement"):
        build_plp("III", z_chain(), zdesc=D_EVEN, vdesc=D_FULL1, second=z_chain())
    four = SubgroupDescriptor.from_strings(["4"])
    built = build_plp("III", z_chain(), zdesc=D_EVEN, vdesc=four, second=z_chain())
    assert built.display_kind == "III"


def test_descriptor_shape_is_enforced():
    with pytest.raises(ShapeError):
        build_plp("I", make_zj(2), zdesc=D_FULL1, second=z_chain())


def test_trivial_first_component_refuses_type2():
    with pytest.raises(PreconditionViolation, match="not discretely embedded"):
        build_plp("II", trivial_chain(), second=z_chain())
    # ...but a type I extension of the trivial chain is fine
    built = build_plp("I", trivial_chain(), zdesc=SubgroupDescriptor.full(0),
                      second=z_chain())
    assert built.contains(Pair(zelem(), zelem(5)))


# -- discrete embedding of the group part -------------------------------------

def test_discrete_embedding_structural_cases():
    assert z_chain().grpart_discretely_embedded
    assert not q_chain().grpart_discretely_embedded
    assert not trivial_chain().grpart_discretely_embedded
    for j in (1, 2, 3, 4):
        assert make_zj(j).grpart_discretely_embedded
    assert not build_plp("I", q_chain(), zdesc=INT_IN_Q,
                         second=q_chain()).grpart_discretely_embedded


def test_discrete_embedding_matches_sampled_cover_search():
    r = rng("disc-embedding")
    from oddlex.sampling import sample_group_elem

    for A in (make_zj(2), make_zj(3), make_qj(2),
              build_plp("I", q_chain(), zdesc=INT_IN_Q, second=z_chain())):
        structural = A.grpart_discretely_embedded
        g = sample_group_elem(A, A.group_part_descriptor, r)
        window = window_elements(A, radius=2, cap=600)
        above = [w for w in window if A.lt(g, w)]
        if structural:
            up = A.cover_up(g)
            assert A._group_coords(up) is not None
            assert not any(A.lt(g, w) and A.lt(w, up) for w in window)
        else:
            # every strictly greater window element has something between it and g
            for w in above[:10]:
                from oddlex import between

                z = between(A, g, w) if A.is_dense else None
                if z is not None:
                    assert A.lt(g, z) and A.lt(z, w)


# -- subalgebra inclusions ----------------------------------------------------

def test_type3_included_in_type1_with_same_components():
    narrow = build_plp("III", z_chain(), zdesc=D_FULL1, vdesc=D_EVEN, second=z_chain())
    wide = build_plp("I", z_chain(), zdesc=D_FULL1, second=z_chain())
    r = rng("incl-3-1")
    for _ in range(400):
        a, b = sample_elem(narrow, r), sample_elem(narrow, r)
        assert wide.contains(a) and wide.contains(b)
        assert narrow.mult(a, b) == wide.mult(a, b)
        assert narrow.neg(a) == wide.neg(a)
        assert narrow.leq(a, b) == wide.leq(a, b)
        assert narrow.residuum(a, b) == wide.residuum(a, b)


def test_type4_included_in_type2_with_same_components():
    narrow = build_plp("IV", z_chain(), vdesc=D_EVEN, second=z_chain())
    wide = build_plp("II", z_chain(), second=z_chain())
    r = rng("incl-4-2")
    for _ in range(400):
        a, b = sample_elem(narrow, r), sample_elem(narrow, r)
        assert wide.contains(a) and wide.contains(b)
        assert narrow.mult(a, b) == wide.mult(a, b)
        assert narrow.neg(a) == wide.neg(a)
        assert narrow.leq(a, b) == wide.leq(a, b)


def test_products_keep_rank_zero_and_pass_core_laws():
    r = rng("product-laws")
    for A in (build_plp("III", z_chain(), zdesc=D_FULL1, vdesc=D_EVEN, second=z_chain()),
              build_plp("IV", z_chain(), vdesc=D_EVEN, second=q_chain())):
        assert A.rank() == 0
        assert A.neg(A.unit()) == A.unit()
        for _ in range(300):
            a, b, v = (sample_elem(A, r) for _ in range(3))
            assert A.neg(A.neg(a)) == a
            assert A.leq(A.mult(a, v), b) == A.leq(v, A.residuum(a, b))


def test_group_part_structure_of_products():
    """Group parts: type I gives Z x Y_gr pairs, type II the full product."""
    QZQ = build_plp("I", q_chain(), zdesc=INT_IN_Q, second=q_chain())
    r = rng("grpart-structure")
    for _ in range(300):
        e = sample_elem(QZQ, r)
        expected = (isinstance(e.second, type(e.first))
                    and e.first.denominator == 1)
        assert QZQ.group_part_contains(e) == expected
    Z2 = make_zj(2)
    for _ in range(300):
        e = sample_elem(Z2, r)
        assert Z2.group_part_contains(e) == (e.second is not Bound.TOP)
