"""Sampled property suites behind the ``verify`` command.

Each suite draws seeded samples from an algebra (or a tower) and counts
violations of one family of laws.  A failing sample is recorded as a witness
string; suites are deterministic functions of (seed, samples).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .chains import Algebra, adjoin_bounds, z_chain, q_chain
from .elements import Elem, format_elem
from .errors import NotDense, UndefinedCover
from .plp import build_plp
from .sampling import sample_distinct_pair, sample_elem, sample_group_elem
from .towers import (
    MODE_I_II,
    MODE_III_IV,
    RepresentationSpec,
    StandardTarget,
    between,
    build_representation,
    build_standard_target,
    fuse_type2_iso,
    make_zj,
    zjk_iso,
    zjk_iso_inverse,
)


@dataclass
class PropertyCheck:
    name: str
    samples: int = 0
    failures: int = 0
    witnesses: list[str] = field(default_factory=list)
    info: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def tally(self, ok: bool, witness: str = "", *elems: Elem) -> None:
        """Count one sample.  A failure keeps up to five witnesses, each
        ``witness`` with the literals of ``elems`` filled into its ``{}``
        slots; nothing is formatted for a passing sample."""
        self.samples += 1
        if not ok:
            self.failures += 1
            if len(self.witnesses) < 5:
                self.witnesses.append(witness.format(*map(format_elem, elems)))

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f" [{self.info}]" if self.info else ""
        return f"{status}  {self.name}: {self.failures}/{self.samples} violations{extra}"


@dataclass
class SuiteReport:
    suite: str
    subject: str
    checks: list[PropertyCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(str(p) for p in parts))


def adjointness_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    rec = PropertyCheck("adjointness: a*v <= b iff v <= a->b")
    unit = algebra.unit()
    for _ in range(samples):
        a, b, v = (sample_elem(algebra, rng) for _ in range(3))
        lhs = algebra._compare(algebra._mult(a, v), b) <= 0
        rhs = algebra._compare(v, algebra._residuum(a, b)) <= 0
        rec.tally(lhs == rhs, "a={} b={} v={}", a, b, v)
    res = PropertyCheck("residuum is the maximum: a*(a->b) <= b and t <= a->a")
    for _ in range(samples // 10 + 1):
        a, b = sample_elem(algebra, rng), sample_elem(algebra, rng)
        r = algebra._residuum(a, b)
        ok = algebra._compare(algebra._mult(a, r), b) <= 0
        ok = ok and algebra._compare(unit, algebra._tau(a)) <= 0
        res.tally(ok, "a={} b={}", a, b)
    return [rec, res]


def involution_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    dneg = PropertyCheck("involution: neg(neg a) = a")
    rev = PropertyCheck("negation reverses the order")
    for _ in range(samples):
        a, b = sample_elem(algebra, rng), sample_elem(algebra, rng)
        na = algebra._neg(a)
        dneg.tally(algebra._neg(na) == a, "{}", a)
        rev.tally((algebra._compare(a, b) <= 0)
                  == (algebra._compare(algebra._neg(b), na) <= 0),
                  "a={} b={}", a, b)
    odd = PropertyCheck("oddness: neg t = t")
    t = algebra.unit()
    odd.tally(algebra._neg(t) == t, "{}", t)
    return [dneg, rev, odd]


def monoid_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    laws = PropertyCheck("commutative monoid laws")
    mono = PropertyCheck("multiplication is monotone")
    unit = algebra.unit()
    for _ in range(samples):
        a, b, c = (sample_elem(algebra, rng) for _ in range(3))
        ab = algebra._mult(a, b)
        ok = ab == algebra._mult(b, a)
        ok = ok and algebra._mult(a, algebra._mult(b, c)) == algebra._mult(ab, c)
        ok = ok and algebra._mult(a, unit) == a
        laws.tally(ok, "a={} b={} c={}", a, b, c)
        if algebra._compare(a, b) <= 0:
            mono.tally(algebra._compare(algebra._mult(a, c), algebra._mult(b, c)) <= 0,
                       "a={} b={} c={}", a, b, c)
    return [laws, mono]


def random_term(algebra: Algebra, rng: random.Random, leaves: list[Elem], depth: int):
    """Value of a random term over *, -> and neg; returns (value, leaves used)."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(leaves)
        return leaf, [leaf]
    op = rng.randrange(3)
    if op == 0:
        v, used = random_term(algebra, rng, leaves, depth - 1)
        return algebra._neg(v), used
    l, lu = random_term(algebra, rng, leaves, depth - 1)
    r, ru = random_term(algebra, rng, leaves, depth - 1)
    if op == 1:
        return algebra._mult(l, r), lu + ru
    return algebra._residuum(l, r), lu + ru


def tau_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    unit = algebra.unit()
    idem = PropertyCheck("tau values are positive idempotents and tau-fixed")
    seen = set()
    for _ in range(samples):
        a = sample_elem(algebra, rng)
        ta = algebra._tau(a)
        seen.add(ta)
        ok = algebra._mult(ta, ta) == ta
        ok = ok and algebra._compare(unit, ta) <= 0
        ok = ok and algebra._tau(ta) == ta
        idem.tally(ok, "{}", a)
    count = PropertyCheck("distinct tau values match the structural count",
                          samples, 0 if len(seen) == algebra.idempotent_count else 1,
                          [], f"observed {len(seen)}, expected {algebra.idempotent_count}")
    terms = PropertyCheck("tau of a term equals the largest leaf tau")
    pool = [sample_elem(algebra, rng) for _ in range(8)]
    for _ in range(max(samples // 10, 1)):
        value, used = random_term(algebra, rng, pool, depth=4)
        tv = algebra._tau(value)
        biggest = max((algebra._tau(u) for u in used), key=algebra._key)
        terms.tally(tv == biggest, "{}", value)
    return [idem, count, terms]


def covers_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    gdesc = algebra.group_part_descriptor
    if not algebra.grpart_discretely_embedded:
        rec = PropertyCheck("covers are refused without a discrete embedding")
        for _ in range(min(samples, 50)):
            a = sample_group_elem(algebra, gdesc, rng)
            try:
                algebra.cover_up(a)
                rec.tally(False, "{}", a)
            except UndefinedCover:
                rec.tally(True)
        return [rec]
    rec = PropertyCheck("covers: up/down inverse, inside the group part, adjacent")
    for _ in range(samples):
        a = sample_group_elem(algebra, gdesc, rng)
        up = algebra.cover_up(a)
        ok = algebra.cover_down(up) == a
        ok = ok and algebra._compare(a, up) < 0
        ok = ok and algebra._group_coords(up) is not None
        probe = sample_elem(algebra, rng)
        ok = ok and not (algebra._compare(a, probe) < 0 and algebra._compare(probe, up) < 0)
        rec.tally(ok, "{}", a)
    return [rec]


def group_part_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    gdesc = algebra.group_part_descriptor
    closure = PropertyCheck("group part closed under * and neg")
    agree = PropertyCheck("x * neg x = t agrees with the structural group part")
    for _ in range(samples):
        g = sample_group_elem(algebra, gdesc, rng)
        h = sample_group_elem(algebra, gdesc, rng)
        ok = algebra._group_coords(algebra._mult(g, h)) is not None
        ok = ok and algebra._group_coords(algebra._neg(g)) is not None
        closure.tally(ok, "g={} h={}", g, h)
        a = sample_elem(algebra, rng)
        eq = algebra._mult(a, algebra._neg(a)) == algebra.unit()
        agree.tally(eq == (algebra._group_coords(a) is not None), "{}", a)
    return [closure, agree]


def density_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    if not algebra.is_dense:
        rec = PropertyCheck("between is refused on a non-dense order")
        pair = sample_distinct_pair(algebra, rng)
        if pair is None:
            rec.tally(True)
        else:
            try:
                between(algebra, *pair)
                rec.tally(False, "{} .. {}", *pair)
            except NotDense:
                rec.tally(True)
        return [rec]
    rec = PropertyCheck("between returns a strict intermediate")
    for _ in range(samples):
        pair = sample_distinct_pair(algebra, rng)
        if pair is None:
            continue
        x, y = pair
        z = between(algebra, x, y)
        rec.tally(algebra._compare(x, z) < 0 and algebra._compare(z, y) < 0,
                  "{} .. {} -> {}", x, y, z)
    return [rec]


# ---------------------------------------------------------------------------
# Tower-level suites


def _preserves(rec: PropertyCheck, src: Algebra, dst: Algebra, f, rng: random.Random,
               samples: int, faithful=lambda a, b, fa, fb: True) -> PropertyCheck:
    """Tally ``samples`` draws of ``a``, ``b`` from ``src``: the map ``f`` into ``dst`` is
    ``faithful`` on them, and it preserves the order, ``*`` and ``neg``."""
    for _ in range(samples):
        a = sample_elem(src, rng)
        b = sample_elem(src, rng)
        fa, fb = f(a), f(b)
        ok = faithful(a, b, fa, fb) and src._compare(a, b) == dst._compare(fa, fb)
        ok = ok and f(src._mult(a, b)) == dst._mult(fa, fb)
        ok = ok and f(src._neg(a)) == dst._neg(fa)
        rec.tally(ok, "a={} b={}", a, b)
    return rec


def inclusion_suite(spec: RepresentationSpec, rng: random.Random,
                    samples: int) -> list[PropertyCheck]:
    """Stage-wise: the III-IV tower sits inside the I-II tower, operations agree."""
    narrow = build_representation(spec, MODE_III_IV)
    wide = build_representation(spec, MODE_I_II)
    return [_preserves(PropertyCheck(f"stage {idx}: carrier inclusion and operation agreement"),
                       sub, sup, lambda e: e, rng, samples,
                       lambda a, b, fa, fb: sup.contains(a) and sup.contains(b))
            for idx, (sub, sup) in enumerate(zip(narrow.stages, wide.stages), start=1)]


def embedding_suite(target: StandardTarget, rng: random.Random,
                    samples: int) -> list[PropertyCheck]:
    """The stage maps into the dense companion tower are order embeddings
    preserving *, neg and the unit."""
    checks = []
    for idx, (src, dst) in enumerate(zip(target.source.stages, target.stages), start=1):
        rec = PropertyCheck(f"stage {idx}: embedding preserves *, neg, order, unit")
        rec.tally(target.embed(idx, src.unit()) == dst.unit(), "unit")
        checks.append(_preserves(rec, src, dst, lambda e: target.embed(idx, e), rng, samples))
    return checks


def iso_suite(rng: random.Random, samples: int,
              zjk_pairs=((1, 1), (1, 2), (2, 1))) -> list[PropertyCheck]:
    """Sampled isomorphism checks: tower flattening and type II re-association."""
    checks = []
    for j, k in zjk_pairs:
        rec = PropertyCheck(f"PLPII(Z_{j}, Z_{k}) = Z_{j + k}: order, *, neg, bijection")
        flat = make_zj(j + k)
        checks.append(_preserves(
            rec, build_plp("II", make_zj(j), second=make_zj(k)), flat,
            lambda e: zjk_iso(j, k, e), rng, samples,
            lambda a, b, fa, fb: (flat.contains(fa) and zjk_iso_inverse(j, k, fa) == a
                                  and (a == b) == (fa == fb))))
    for triple in ((z_chain(), z_chain(), z_chain()),
                   (z_chain(), z_chain(), q_chain())):
        names = ", ".join(str(x) for x in triple)
        rec = PropertyCheck(f"type II re-association over ({names})")
        fusion = fuse_type2_iso(*triple)
        rec.tally(fusion.to_right(fusion.left.unit()) == fusion.right.unit(), "unit")
        checks.append(_preserves(rec, fusion.left, fusion.right, fusion.to_right, rng, samples,
                                 lambda a, b, fa, fb: fusion.to_left(fa) == a))
    return checks


# ---------------------------------------------------------------------------
# Suite registry

PER_ALGEBRA_SUITES = {
    "adjoint": adjointness_suite,
    "involution": involution_suite,
    "tau": tau_suite,
    "density": density_suite,
}

STRUCTURE_SUITES = {
    "structure": monoid_suite,
    "covers": covers_suite,
    "group-part": group_part_suite,
}

SUITE_NAMES = ("all", "adjoint", "involution", "tau", "iso", "density",
               "structure", "covers", "group-part")


def run_verification(spec: RepresentationSpec, suite: str, samples: int,
                     seed: int, standard: bool = False) -> list[SuiteReport]:
    """Run one suite (or all of them) over the algebras a spec gives rise to."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if standard:
        target = build_standard_target(spec)
        stages = list(target.stages)
    else:
        target = None
        stages = list(build_representation(spec, MODE_I_II).stages)
    subjects: list[tuple[str, Algebra]] = [
        (f"stage {i}: {alg}", alg) for i, alg in enumerate(stages, start=1)]
    subjects.append((f"bounded top: {adjoin_bounds(stages[-1])}", adjoin_bounds(stages[-1])))

    reports: list[SuiteReport] = []
    # The structure suites run a quarter of the samples, alone or under "all".
    for suites, count in ((PER_ALGEBRA_SUITES, samples),
                          (STRUCTURE_SUITES, max(samples // 4, 1))):
        for name, fn in suites.items():
            if suite not in ("all", name):
                continue
            for subject, algebra in subjects:
                checks = fn(algebra, _rng(seed, name, subject), count)
                reports.append(SuiteReport(name, subject, checks))
    if suite == "all" and any(d is not None for d in spec.vdescs):
        checks = inclusion_suite(spec, _rng(seed, "inclusion"), max(samples // 4, 1))
        reports.append(SuiteReport("inclusion", "III-IV stages inside I-II stages", checks))
    if suite in ("all", "iso"):
        reports.append(SuiteReport("iso", "canonical tower isomorphisms",
                                   iso_suite(_rng(seed, "iso"), max(samples // 4, 1))))
        if target is None:
            target = build_standard_target(spec)
        checks = embedding_suite(target, _rng(seed, "embedding"), max(samples // 4, 1))
        reports.append(SuiteReport("iso", "embedding into the dense companion", checks))
    return reports
