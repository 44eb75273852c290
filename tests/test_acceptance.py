"""Acceptance suite: one test per criterion, at full sample counts.

Each test prints a PASS line (visible with ``pytest -s`` or ``-rA``); any
assertion failure names the criterion it belongs to.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from oddlex import (
    INT_IN_Q,
    Bound,
    adjoin_bounds,
    parse_elem,
    NotDense,
    Pair,
    PreconditionViolation,
    RepresentationSpec,
    SubgroupDescriptor,
    between,
    build_plp,
    build_representation,
    build_standard_target,
    closure_tau_count,
    closure_tau_values,
    fuse_type2_iso,
    make_qj,
    make_zj,
    q_chain,
    z_chain,
    zelem,
    zjk_iso,
)
from oddlex.cli import main
from oddlex.sampling import sample_distinct_pair, sample_elem, window_elements
from oddlex.towers import MODE_I_II, MODE_III_IV
from oddlex.verify import random_term


def _rng(label):
    return random.Random(f"acceptance:{label}")


SIX_CHAINS = {
    "Z": z_chain(),
    "Q": q_chain(),
    "Z_2": make_zj(2),
    "Z_3": make_zj(3),
    "Q_2": make_qj(2),
    "PLPI(Q,Z,Q_2)": make_qj(3),
}


@pytest.fixture(scope="module")
def triple_samples():
    """10^4 seeded (a, b, v) triples per chain, shared by criteria 1 and 2."""
    out = {}
    for name, A in SIX_CHAINS.items():
        r = _rng(f"triples:{name}")
        out[name] = [tuple(sample_elem(A, r) for _ in range(3)) for _ in range(10000)]
    return out


def test_c1_adjointness(triple_samples):
    start = time.monotonic()
    violations = 0
    for name, A in SIX_CHAINS.items():
        for a, b, v in triple_samples[name]:
            if A.leq(A.mult(a, v), b) != A.leq(v, A.residuum(a, b)):
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 30.0, f"adjointness sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: adjointness, 6 chains x 10^4 triples, "
          f"0 violations, {elapsed:.1f}s")


def test_c2_involutivity_and_oddness(triple_samples):
    violations = 0
    for name, A in SIX_CHAINS.items():
        t = A.unit()
        if A.neg(t) != t:
            violations += 1
        for a, b, v in triple_samples[name]:
            for e in (a, b, v):
                if A.neg(A.neg(e)) != e:
                    violations += 1
    assert violations == 0
    print("\nACCEPTANCE 2 PASS: involution and neg t = t on the same samples, "
          "0 violations")


def test_c3_tau_range_is_the_positive_idempotents():
    for name, A in SIX_CHAINS.items():
        r = _rng(f"tau:{name}")
        t = A.unit()
        tau_values = set()
        for _ in range(10000):
            a = sample_elem(A, r)
            ta = A.tau(a)
            tau_values.add(ta)
            assert A.mult(ta, ta) == ta and A.leq(t, ta), name
            # a sampled positive idempotent is tau-fixed, hence a tau value
            if A.mult(a, a) == a and A.leq(t, a):
                assert A.tau(a) == a, name
        for p in tau_values:
            assert A.mult(p, p) == p and A.leq(t, p), name
    # cross-check: exhaustive tau enumeration over a window of each tower
    for j in (1, 2, 3):
        zj = make_zj(j)
        window = window_elements(zj, radius=3, cap=3000)
        taus = {zj.tau(e) for e in window}
        idems = {e for e in window if zj.mult(e, e) == e and zj.leq(zj.unit(), e)}
        assert len(taus) == j
        assert taus == idems
    print("\nACCEPTANCE 3 PASS: tau values = positive idempotents on 10^4 samples; "
          "Z_j has exactly j of them for j in {1,2,3} (window-enumerated)")


def test_c4_tau_of_terms_is_the_largest_leaf_tau():
    violations = 0
    for name, A in SIX_CHAINS.items():
        r = _rng(f"terms:{name}")
        pool = [sample_elem(A, r) for _ in range(10)]
        for _ in range(1000):
            value, used = random_term(A, r, pool, depth=5)
            taus = [A.tau(u) for u in used]
            biggest = taus[0]
            for x in taus[1:]:
                if A.lt(biggest, x):
                    biggest = x
            if A.tau(value) != biggest:
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 4 PASS: tau of 10^3 random {*,->,neg}-terms per chain "
          "equals the largest leaf tau, 0 violations")


def test_c5_canonical_isomorphisms_preserve_structure():
    violations = 0
    for j, k in ((1, 1), (1, 2), (2, 1)):
        product = build_plp("II", make_zj(j), second=make_zj(k))
        flat = make_zj(j + k)
        r = _rng(f"zjk:{j}{k}")
        for _ in range(1000):
            a, b = sample_elem(product, r), sample_elem(product, r)
            fa, fb = zjk_iso(j, k, a), zjk_iso(j, k, b)
            ok = flat.contains(fa) and (a == b) == (fa == fb)
            ok = ok and product.leq(a, b) == flat.leq(fa, fb)
            ok = ok and zjk_iso(j, k, product.mult(a, b)) == flat.mult(fa, fb)
            ok = ok and zjk_iso(j, k, product.neg(a)) == flat.neg(fa)
            violations += 0 if ok else 1
    fusion = fuse_type2_iso(z_chain(), z_chain(), z_chain())
    r = _rng("fusion")
    for _ in range(1000):
        a, b = sample_elem(fusion.left, r), sample_elem(fusion.left, r)
        fa, fb = fusion.to_right(a), fusion.to_right(b)
        ok = fusion.to_left(fa) == a
        ok = ok and fusion.left.leq(a, b) == fusion.right.leq(fa, fb)
        ok = ok and fusion.to_right(fusion.left.mult(a, b)) == fusion.right.mult(fa, fb)
        ok = ok and fusion.to_right(fusion.left.neg(a)) == fusion.right.neg(fa)
        violations += 0 if ok else 1
    assert violations == 0
    print("\nACCEPTANCE 5 PASS: tower flattening (1,1),(1,2),(2,1) and type II "
          "re-association preserve order, *, neg on 10^3 pairs each, 0 violations")


def test_c6_narrow_tower_sits_inside_the_wide_tower():
    spec = RepresentationSpec(
        (1, 1, 1), ("III", "IV"),
        zdescs=(SubgroupDescriptor.full(1),
                SubgroupDescriptor.from_strings(["2", "*"])),
        vdescs=(SubgroupDescriptor.from_strings(["2"]),
                SubgroupDescriptor.from_strings(["2", "3"])))
    narrow = build_representation(spec, MODE_III_IV)
    wide = build_representation(spec, MODE_I_II)
    violations = 0
    r = _rng("inclusion")
    for sub, sup in zip(narrow.stages, wide.stages):
        for _ in range(1000):
            a, b = sample_elem(sub, r), sample_elem(sub, r)
            ok = sup.contains(a) and sup.contains(b)
            ok = ok and sub.mult(a, b) == sup.mult(a, b)
            ok = ok and sub.neg(a) == sup.neg(a)
            ok = ok and sub.leq(a, b) == sup.leq(a, b)
            ok = ok and sub.residuum(a, b) == sup.residuum(a, b)
            violations += 0 if ok else 1
    assert violations == 0
    print("\nACCEPTANCE 6 PASS: ranks [1,1,1], kinds [III,IV]: every sampled "
          "III-IV stage element lies in the I-II stage with agreeing operations")


def test_c7_density_witnesses():
    for name in ("Q_2", "PLPI(Q,Z,Q_2)"):
        A = SIX_CHAINS[name]
        r = _rng(f"between:{name}")
        produced = 0
        while produced < 1000:
            pair = sample_distinct_pair(A, r)
            if pair is None:
                continue
            x, y = pair
            z = between(A, x, y)
            assert A.lt(x, z) and A.lt(z, y), name
            produced += 1
    with pytest.raises(NotDense):
        between(z_chain(), zelem(0), zelem(1))
    with pytest.raises(NotDense):
        between(make_zj(2), make_zj(2).unit(), Pair(zelem(0), Bound.TOP))
    print("\nACCEPTANCE 7 PASS: between() strict on 10^3 pairs in Q_2 and "
          "PLPI(Q,Z,Q_2); integer-based inputs raise NotDense")


def test_c8_well_definedness_gate():
    with pytest.raises(PreconditionViolation, match="group part not discretely embedded"):
        build_plp("II", q_chain(), second=z_chain())
    with pytest.raises(PreconditionViolation, match="group part not discretely embedded"):
        build_plp("IV", q_chain(), vdesc=INT_IN_Q, second=z_chain())
    assert build_plp("II", z_chain(), second=z_chain()) == make_zj(2)
    print("\nACCEPTANCE 8 PASS: type II/IV over a dense base rejected with the "
          "discrete-embedding message; over the integers it succeeds")


def test_c9_end_to_end_pipeline(tmp_path, capsys):
    start = time.monotonic()
    spec = RepresentationSpec((1, 2), ("III",))
    target = build_standard_target(spec)
    assert target.stages[1] == build_plp("I", q_chain(), zdesc=INT_IN_Q,
                                         second=make_qj(2))
    violations = 0
    r = _rng("embedding")
    src, dst = target.source.stages[1], target.stages[1]
    assert target.embed(2, src.unit()) == dst.unit()
    for _ in range(1000):
        a, b = sample_elem(src, r), sample_elem(src, r)
        fa, fb = target.embed(2, a), target.embed(2, b)
        ok = target.embed(2, src.mult(a, b)) == dst.mult(fa, fb)
        ok = ok and target.embed(2, src.neg(a)) == dst.neg(fa)
        ok = ok and src.leq(a, b) == dst.leq(fa, fb)
        violations += 0 if ok else 1
    assert violations == 0

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"ranks": [1, 2], "iota": ["III"]}))
    assert main(["countermodel", str(spec_path), "(p*p)->p", "--standard",
                 "--render-unit", "--budget", "10000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "found"
    rendering = {k: Fraction(v) for k, v in doc["rendering"].items()}
    assert rendering["BOT"] == 0 and rendering["TOP"] == 1
    inner = [v for k, v in rendering.items() if k not in ("BOT", "TOP")]
    assert all(Fraction(0) < v < Fraction(1) for v in inner)
    assert len(set(rendering.values())) == len(rendering)
    # rendered values are ordered exactly as the algebra orders the elements
    bounded = adjoin_bounds(dst)
    placed = [(parse_elem(bounded, k), v) for k, v in rendering.items()]
    for e1, v1 in placed:
        for e2, v2 in placed:
            assert bounded.lt(e1, e2) == (v1 < v2)

    for valid in ("p->p", "t<->f"):
        code = main(["countermodel", str(spec_path), valid, "--standard",
                     "--budget", "10000"])
        assert code == 1, valid
        assert json.loads(capsys.readouterr().out)["result"] == "not-found"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 9 PASS: dense companion built, 10^3-sample embedding "
          f"homomorphism, contraction falsified with order-consistent rendering, "
          f"p->p and t<->f survive 10^4 assignments, {elapsed:.1f}s")


def test_c10_closure_experiment():
    z2 = make_zj(2)
    gens = [Pair(zelem(0), zelem(1)), Pair(zelem(1), Bound.TOP)]

    # independent oracle: plain fixpoint over all five operations
    current = set(gens)
    for _ in range(4):
        new = set(current)
        for a in current:
            new.add(z2.neg(a))
            for b in current:
                new.add(z2.mult(a, b))
                new.add(z2.residuum(a, b))
                new.add(z2.meet(a, b))
                new.add(z2.join(a, b))
        current = new
    oracle = {z2.tau(e) for e in current}

    count = closure_tau_count(z2, gens, depth=4)
    bound = len({z2.tau(g) for g in gens} | {z2.unit()})
    assert count == len(oracle)
    assert closure_tau_values(z2, gens, depth=4) == frozenset(oracle)
    assert count <= 3 and count <= bound
    print(f"\nACCEPTANCE 10 PASS: depth-4 closure of 2 generators in Z_2 has "
          f"{count} distinct tau values, matching the exhaustive oracle, <= 3")
