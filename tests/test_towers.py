from fractions import Fraction

import pytest

from oddlex import (
    BOT_BOUND,
    TOP_BOUND,
    ClosureBudgetExceeded,
    INT_IN_Q,
    Marker,
    NotDense,
    Pair,
    PreconditionViolation,
    RepresentationSpec,
    ShapeError,
    SubgroupDescriptor,
    adjoin_bounds,
    between,
    build_plp,
    build_representation,
    build_standard_target,
    closure_tau_count,
    closure_tau_values,
    fuse_type2_iso,
    make_qj,
    make_zj,
    normalize_spec,
    q_chain,
    qelem,
    trivial_chain,
    z_chain,
    zelem,
    zjk_iso,
    zjk_iso_inverse,
)
from oddlex.sampling import sample_elem, window_elements
from oddlex.towers import MODE_I_II, MODE_III_IV
from conftest import rng


def top(e):
    return Pair(e, Marker.TOP)


# -- tower series --------------------------------------------------------------

def test_tower_base_cases():
    assert make_zj(1) == z_chain()
    assert make_qj(1) == q_chain()


def test_z_tower_group_part_is_iterated_lex():
    z3 = make_zj(3)
    assert z3.ambient_kinds == ("Z", "Z", "Z")
    assert z3.group_part_descriptor == SubgroupDescriptor.full(3)


def test_q_tower_group_part():
    q3 = make_qj(3)
    assert q3.ambient_kinds == ("Q", "Q", "Q")
    assert q3.group_part_descriptor == SubgroupDescriptor(
        (Fraction(1), Fraction(1), None))


def test_z_tower_distinct_tau_values_over_window():
    for j in (1, 2, 3):
        zj = make_zj(j)
        taus = {zj.tau(e) for e in window_elements(zj, radius=2, cap=2000)}
        assert len(taus) == j == zj.idempotent_count


# -- representation builds -------------------------------------------------------

def test_two_stage_type4_build_equals_the_tower():
    spec = RepresentationSpec((1, 1), ("IV",))
    tower = build_representation(spec, MODE_I_II)
    assert tower.stages == (z_chain(), make_zj(2))


def test_two_stage_type3_build_carrier():
    spec = RepresentationSpec((1, 1), ("III",))
    tower = build_representation(spec, MODE_I_II)
    stage2 = tower.top
    assert stage2.contains(Pair(zelem(4), zelem(-2)))
    assert stage2.contains(top(zelem(4)))
    assert stage2.contains(Pair(zelem(4), Marker.BOT))


def test_failed_stage_reports_its_index():
    spec = RepresentationSpec((0, 1), ("IV",))
    with pytest.raises(PreconditionViolation, match="stage 2"):
        build_representation(spec, MODE_I_II)


def test_three_stage_mixed_build_with_descriptors():
    spec = RepresentationSpec(
        (1, 1, 1), ("III", "IV"),
        zdescs=(SubgroupDescriptor.full(1), SubgroupDescriptor.from_strings(["2", "*"])),
        vdescs=(SubgroupDescriptor.from_strings(["2"]),
                SubgroupDescriptor.from_strings(["2", "3"])))
    narrow = build_representation(spec, MODE_III_IV)
    wide = build_representation(spec, MODE_I_II)
    r = rng("stagewise-inclusion")
    for sub, sup in zip(narrow.stages, wide.stages):
        for _ in range(250):
            a, b = sample_elem(sub, r), sample_elem(sub, r)
            assert sup.contains(a)
            assert sub.mult(a, b) == sup.mult(a, b)
            assert sub.neg(a) == sup.neg(a)
            assert sub.leq(a, b) == sup.leq(a, b)


def test_spec_json_round_trip_and_field_errors():
    spec = RepresentationSpec((1, 2), ("III",),
                              zdescs=(SubgroupDescriptor.from_strings(["2"]),))
    assert RepresentationSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ShapeError, match="iota"):
        RepresentationSpec.from_json({"ranks": [1, 1], "iota": ["V"]})
    with pytest.raises(ShapeError, match="ranks"):
        RepresentationSpec.from_json({"iota": []})
    with pytest.raises(ShapeError, match="zdescs"):
        RepresentationSpec.from_json(
            {"ranks": [1, 1], "iota": ["III"], "zdescs": [["bogus"]]})


# -- the dense companion tower ---------------------------------------------------

def test_companion_of_a_type3_spec():
    target = build_standard_target(RepresentationSpec((1, 2), ("III",)))
    assert target.stages[0] == q_chain()
    assert target.stages[1] == build_plp("I", q_chain(), zdesc=INT_IN_Q,
                                         second=make_qj(2))


def test_companion_of_a_type4_spec():
    target = build_standard_target(RepresentationSpec((1, 1), ("IV",)))
    assert target.stages[0] == z_chain()
    assert target.stages[1] == build_plp("II", z_chain(), second=q_chain())


def test_companion_keeps_integer_tower_before_a_type4_stage():
    target = build_standard_target(RepresentationSpec((1, 1, 1), ("III", "IV")))
    stage2 = target.stages[1]
    assert stage2.second == make_zj(1)
    assert target.stages[2].second == make_qj(1)


def test_embedding_of_group_vectors_is_nested_pairs():
    target = build_standard_target(RepresentationSpec((1, 2), ("III",)))
    e = Pair(zelem(0), zelem(2, -1))
    assert target.embed(2, e) == Pair(qelem(0), Pair(qelem(2), qelem(-1)))


def test_embedding_is_a_sampled_homomorphism():
    r = rng("embed-hom")
    for spec in (RepresentationSpec((1, 2), ("III",)),
                 RepresentationSpec((1, 1), ("IV",)),
                 RepresentationSpec((2, 1, 1), ("III", "IV"),
                                    zdescs=(SubgroupDescriptor.from_strings(["*", "2"]),))):
        target = build_standard_target(spec)
        n = len(target.stages)
        src, dst = target.source.stages[n - 1], target.stages[n - 1]
        assert target.embed(n, src.unit()) == dst.unit()
        for _ in range(300):
            a, b = sample_elem(src, r), sample_elem(src, r)
            fa, fb = target.embed(n, a), target.embed(n, b)
            assert target.embed(n, src.mult(a, b)) == dst.mult(fa, fb)
            assert target.embed(n, src.neg(a)) == dst.neg(fa)
            assert src.leq(a, b) == dst.leq(fa, fb)


def test_companion_final_stage_is_dense_and_unbounded():
    for spec in (RepresentationSpec((1, 2), ("III",)),
                 RepresentationSpec((1, 1), ("IV",)),
                 RepresentationSpec((1, 1, 2), ("III", "IV"))):
        target = build_standard_target(spec)
        assert target.top.is_dense
        assert target.top.is_unbounded
        # each source stage adds exactly one positive idempotent
        for i, stage in enumerate(target.source.stages, start=1):
            assert stage.idempotent_count == i


def test_consecutive_type4_stages_merge():
    spec = RepresentationSpec((1, 1, 2, 1), ("IV", "IV", "III"))
    merged = normalize_spec(spec)
    assert merged.ranks == (1, 3, 1)
    assert merged.iota == ("IV", "III")
    target = build_standard_target(spec)
    assert len(target.stages) == 3
    # the merged type IV stage gets a rank-3 integer structure worth of fibers
    assert target.stages[1].second == make_qj(3)


# -- canonical isomorphisms -------------------------------------------------------

def test_fusion_carrier_identification():
    fusion = fuse_type2_iso(z_chain(), z_chain(), z_chain())
    assert fusion.to_right(Pair(top(zelem(1)), Marker.TOP)) == top(zelem(1))
    assert fusion.to_right(Pair(Pair(zelem(0), zelem(2)), zelem(3))) \
        == Pair(zelem(0), Pair(zelem(2), zelem(3)))
    assert fusion.to_right(fusion.left.unit()) == fusion.right.unit()


def test_fusion_round_trip_and_op_agreement():
    fusion = fuse_type2_iso(z_chain(), z_chain(), q_chain())
    r = rng("fusion")
    for _ in range(400):
        a, b = sample_elem(fusion.left, r), sample_elem(fusion.left, r)
        fa, fb = fusion.to_right(a), fusion.to_right(b)
        assert fusion.to_left(fa) == a
        assert fusion.to_right(fusion.left.mult(a, b)) == fusion.right.mult(fa, fb)
        assert fusion.to_right(fusion.left.neg(a)) == fusion.right.neg(fa)
        assert fusion.left.leq(a, b) == fusion.right.leq(fa, fb)


def test_fusion_requires_discrete_embeddings():
    with pytest.raises(PreconditionViolation, match="first"):
        fuse_type2_iso(q_chain(), z_chain(), z_chain())
    with pytest.raises(PreconditionViolation, match="second"):
        fuse_type2_iso(z_chain(), q_chain(), z_chain())


def test_tower_flattening_examples():
    assert zjk_iso(1, 1, top(zelem(3))) == top(zelem(3))
    assert zjk_iso(1, 1, Pair(zelem(3), zelem(5))) == Pair(zelem(3), zelem(5))
    product = build_plp("II", make_zj(1), second=make_zj(1))
    assert zjk_iso(1, 1, product.unit()) == make_zj(2).unit()


def test_tower_flattening_is_an_op_preserving_bijection():
    r = rng("zjk")
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        product = build_plp("II", make_zj(j), second=make_zj(k))
        flat = make_zj(j + k)
        for _ in range(300):
            a, b = sample_elem(product, r), sample_elem(product, r)
            fa, fb = zjk_iso(j, k, a), zjk_iso(j, k, b)
            assert flat.contains(fa)
            assert zjk_iso_inverse(j, k, fa) == a
            assert (a == b) == (fa == fb)
            assert product.leq(a, b) == flat.leq(fa, fb)
            assert zjk_iso(j, k, product.mult(a, b)) == flat.mult(fa, fb)
            assert zjk_iso(j, k, product.neg(a)) == flat.neg(fa)


# -- density ---------------------------------------------------------------------

def test_between_examples():
    q2 = make_qj(2)
    assert between(q2, Pair(qelem(0), qelem(3)), top(qelem(0))) == Pair(qelem(0), qelem(4))
    assert between(q2, Pair(qelem(1, 2), Marker.BOT), Pair(qelem(3, 4), Marker.BOT)) \
        == Pair(qelem(5, 8), Marker.BOT)
    with pytest.raises(NotDense):
        between(z_chain(), zelem(0), zelem(1))


def test_between_requires_strictly_ordered_arguments():
    with pytest.raises(PreconditionViolation):
        between(q_chain(), qelem(1), qelem(1))


def test_between_rejects_discrete_towers():
    with pytest.raises(NotDense):
        between(make_zj(2), make_zj(2).unit(), top(zelem(0)))


def test_between_strict_on_samples():
    r = rng("between")
    from oddlex.sampling import sample_distinct_pair

    dense = [make_qj(2), make_qj(3),
             build_plp("II", z_chain(), second=q_chain()),
             build_plp("II", make_zj(2), second=make_qj(1))]
    for A in dense:
        assert A.is_dense
        for _ in range(400):
            pair = sample_distinct_pair(A, r)
            if pair is None:
                continue
            x, y = pair
            z = between(A, x, y)
            assert A.lt(x, z) and A.lt(z, y)


def test_density_flags():
    assert q_chain().is_dense
    assert not z_chain().is_dense
    assert make_qj(3).is_dense
    assert not make_zj(3).is_dense
    assert build_plp("II", z_chain(), second=q_chain()).is_dense
    assert not build_plp("II", z_chain(), second=make_zj(2)).is_dense
    # marker-only fibers over Z\V break density even with dense components
    assert not build_plp("III", q_chain(), zdesc=INT_IN_Q,
                         vdesc=SubgroupDescriptor.from_strings(["2"]),
                         second=q_chain()).is_dense


# -- closure experiment ------------------------------------------------------------

def closure_oracle(A, generators, depth):
    """Straightforward fixpoint: apply every operation to everything, depth times."""
    current = set(generators)
    for _ in range(depth):
        new = set(current)
        for a in current:
            new.add(A.neg(a))
            for b in current:
                new.add(A.mult(a, b))
                new.add(A.residuum(a, b))
                new.add(A.meet(a, b))
                new.add(A.join(a, b))
        current = new
    return {A.tau(e) for e in current}


def test_closure_tau_counts_match_oracle():
    z2 = make_zj(2)
    g_group = Pair(zelem(0), zelem(1))
    g_top = top(zelem(1))
    cases = [([g_group], 1), ([g_top], 1), ([g_group, g_top], 2)]
    for gens, expected in cases:
        oracle = closure_oracle(z2, gens, 4)
        assert closure_tau_count(z2, gens, 4) == len(oracle) == expected
        assert closure_tau_values(z2, gens, 4) == frozenset(oracle)


def test_closure_tau_bounded_by_generator_taus_plus_unit():
    z3 = make_zj(3)
    gens = [top(zelem(2)), Pair(zelem(1), top(zelem(0))), z3.unit()]
    bound = len({z3.tau(g) for g in gens} | {z3.unit()})
    assert closure_tau_count(z3, gens, 3) <= bound


def test_closure_budget_is_reported():
    z2 = make_zj(2)
    gens = [Pair(zelem(0), zelem(1)), top(zelem(1))]
    with pytest.raises(ClosureBudgetExceeded) as exc:
        closure_tau_count(z2, gens, 6, max_elements=40)
    assert exc.value.partial_count >= 1


def test_group_elements_interleave_nongroup_elements_in_z_towers():
    """Between a non-group element and anything else lies a group element."""
    for j in (2, 3):
        zj = make_zj(j)
        inner = window_elements(zj, radius=2, cap=600)
        search = window_elements(zj, radius=4, cap=20000)
        group = [e for e in search if zj.group_part_contains(e)]
        for x in inner:
            if zj.group_part_contains(x):
                continue
            for y in inner:
                if x == y:
                    continue
                lo, hi = (x, y) if zj.lt(x, y) else (y, x)
                assert any(zj.lt(lo, g) and zj.lt(g, hi) for g in group), \
                    (j, format(lo), format(hi))


def test_rational_towers_are_unbounded_at_every_sample():
    """Strict witnesses exist on both sides of every element except at a bound."""
    r = rng("unbounded")
    bounded = adjoin_bounds(z_chain())
    for A in (make_qj(1), make_qj(2), make_qj(3), z_chain(), make_zj(2), bounded):
        for _ in range(300):
            e = sample_elem(A, r)
            above, below = A._above(e), A._below(e)
            assert (above is None) == (e is TOP_BOUND)
            assert (below is None) == (e is BOT_BOUND)
            assert above is None or A.lt(e, above)
            assert below is None or A.lt(below, e)
    assert bounded._above(TOP_BOUND) is None and bounded._below(BOT_BOUND) is None
    one = trivial_chain()
    assert one._above(one.unit()) is None and one._below(one.unit()) is None
    assert z_chain()._between(zelem(0), zelem(1)) is None
    assert z_chain()._between(zelem(0), zelem(2)) == zelem(1)


def test_bounded_case_with_a_trivial_first_stage():
    """A rank-0 first group is the representation shape for bounded chains."""
    spec = RepresentationSpec((0, 2), ("III",))
    tower = build_representation(spec, MODE_I_II)
    from oddlex import trivial_chain

    assert tower.stages[0] == trivial_chain()
    target = build_standard_target(spec)
    assert target.stages[0] == q_chain()
    # the transported stage subgroup is the image of the trivial group: {0}
    assert target.stages[1].zdesc == SubgroupDescriptor((Fraction(0),))
    assert target.stages[1].second == make_qj(2)
    assert target.top.is_dense
    r = rng("bounded-case")
    src, dst = target.source.stages[1], target.stages[1]
    assert target.embed(2, src.unit()) == dst.unit()
    for _ in range(300):
        a, b = sample_elem(src, r), sample_elem(src, r)
        fa, fb = target.embed(2, a), target.embed(2, b)
        assert target.embed(2, src.mult(a, b)) == dst.mult(fa, fb)
        assert target.embed(2, src.neg(a)) == dst.neg(fa)
        assert src.leq(a, b) == dst.leq(fa, fb)


def test_contains_coords_calls_grow_linearly_per_op_and_quadratically_per_build(monkeypatch):
    """Scaling guard: each element op visits each node of a tree O(1) times.

    On the left-nested all-III tower a residuum then makes O(n) descriptor
    tests and ``build_standard_target`` O(n^2); a group walk repeated at every
    level makes the counts grow about n times faster.
    """
    calls = 0
    original = SubgroupDescriptor.contains_coords

    def counting(self, coords):
        nonlocal calls
        calls += 1
        return original(self, coords)

    monkeypatch.setattr(SubgroupDescriptor, "contains_coords", counting)

    def counted(fn):
        nonlocal calls
        calls = 0
        fn()
        return calls

    residuum, build = {}, {}
    for n in (16, 32):
        spec = RepresentationSpec((1,) * n, ("III",) * (n - 1))
        top = build_representation(spec, MODE_I_II).top
        unit = top.unit()
        residuum[n] = counted(lambda: top.residuum(unit, unit))
        build[n] = counted(lambda: build_standard_target(spec))
    assert residuum[16] > 0 and build[16] > 0
    assert residuum[32] <= 2.5 * residuum[16]
    assert build[32] <= 5 * build[16]
