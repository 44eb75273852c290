"""Sampled property suites behind the ``verify`` command.

Each suite draws seeded samples from an algebra (or a tower) and counts
violations of one family of laws; suites are deterministic functions of
(seed, samples).  A per-algebra law is a row ``(name, holds, witness)`` that
``_laws`` runs: ``holds`` gives the verdict on one round's draws, or None where
the law does not apply, and a failure keeps ``witness`` filled in from the
draws.  ``SUITES`` registers each per-algebra suite with its sample divisor.
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


def _laws(algebra: Algebra, rng: random.Random, count: int, draws: str,
          *laws) -> list[PropertyCheck]:
    """Tally the rows ``laws`` over ``count`` rounds.  A round draws one element
    per letter of ``draws`` (``e``: ``sample_elem``, ``g``: ``sample_group_elem``);
    a row's ``holds(*xs)`` is its verdict, None where it does not apply (not
    counted), and its ``witness`` picks draws by position, as ``"{2}"``."""
    gdesc = algebra.group_part_descriptor if "g" in draws else None
    rows = [(PropertyCheck(name), holds, witness) for name, holds, witness in laws]
    for _ in range(count):
        xs = [sample_elem(algebra, rng) if d == "e" else sample_group_elem(algebra, gdesc, rng)
              for d in draws]
        for rec, holds, witness in rows:
            ok = holds(*xs)
            if ok is not None:
                rec.tally(ok, witness, *xs)
    return [rec for rec, _, _ in rows]


def _refused(fn, error, *args) -> bool:
    """Whether ``fn(*args)`` raises ``error``."""
    try:
        fn(*args)
    except error:
        return True
    return False


def adjointness_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    cmp, mult, res = algebra._compare, algebra._mult, algebra._residuum
    unit = algebra.unit()
    adjoint = ("adjointness: a*v <= b iff v <= a->b",
               lambda a, b, v: (cmp(mult(a, v), b) <= 0) == (cmp(v, res(a, b)) <= 0),
               "a={0} b={1} v={2}")
    maximum = ("residuum is the maximum: a*(a->b) <= b and t <= a->a",
               lambda a, b: cmp(mult(a, res(a, b)), b) <= 0 and cmp(unit, algebra._tau(a)) <= 0,
               "a={0} b={1}")
    return (_laws(algebra, rng, samples, "eee", adjoint)
            + _laws(algebra, rng, samples // 10 + 1, "ee", maximum))


def involution_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    cmp, neg = algebra._compare, algebra._neg
    odd = PropertyCheck("oddness: neg t = t")
    t = algebra.unit()
    odd.tally(neg(t) == t, "{}", t)
    return _laws(algebra, rng, samples, "ee",
                 ("involution: neg(neg a) = a", lambda a, b: neg(neg(a)) == a, "{0}"),
                 ("negation reverses the order",
                  lambda a, b: (cmp(a, b) <= 0) == (cmp(neg(b), neg(a)) <= 0),
                  "a={0} b={1}")) + [odd]


def monoid_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    cmp, mult = algebra._compare, algebra._mult
    unit = algebra.unit()
    return _laws(algebra, rng, samples, "eee",
                 ("commutative monoid laws",
                  lambda a, b, c: ((ab := mult(a, b)) == mult(b, a)
                                   and mult(a, mult(b, c)) == mult(ab, c)
                                   and mult(a, unit) == a),
                  "a={0} b={1} c={2}"),
                 ("multiplication is monotone",
                  lambda a, b, c: cmp(mult(a, c), mult(b, c)) <= 0 if cmp(a, b) <= 0 else None,
                  "a={0} b={1} c={2}"))


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
    unit, tau, mult = algebra.unit(), algebra._tau, algebra._mult
    seen = set()

    def idempotent(a):
        ta = tau(a)
        seen.add(ta)
        return mult(ta, ta) == ta and algebra._compare(unit, ta) <= 0 and tau(ta) == ta

    checks = _laws(algebra, rng, samples, "e",
                   ("tau values are positive idempotents and tau-fixed", idempotent, "{0}"))
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
    return checks + [count, terms]


def covers_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    if not algebra.grpart_discretely_embedded:
        return _laws(algebra, rng, min(samples, 50), "g", (
            "covers are refused without a discrete embedding",
            lambda a: _refused(algebra.cover_up, UndefinedCover, a), "{0}"))
    cmp, gc = algebra._compare, algebra._group_coords

    def adjacent(a, probe):
        up = algebra.cover_up(a)
        return (algebra.cover_down(up) == a and cmp(a, up) < 0 and gc(up) is not None
                and not (cmp(a, probe) < 0 and cmp(probe, up) < 0))

    return _laws(algebra, rng, samples, "ge", (
        "covers: up/down inverse, inside the group part, adjacent", adjacent, "{0}"))


def group_part_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    mult, neg, gc = algebra._mult, algebra._neg, algebra._group_coords
    unit = algebra.unit()
    return _laws(algebra, rng, samples, "gge",
                 ("group part closed under * and neg",
                  lambda g, h, a: gc(mult(g, h)) is not None and gc(neg(g)) is not None,
                  "g={0} h={1}"),
                 ("x * neg x = t agrees with the structural group part",
                  lambda g, h, a: (mult(a, neg(a)) == unit) == (gc(a) is not None), "{2}"))


def density_suite(algebra: Algebra, rng: random.Random, samples: int) -> list[PropertyCheck]:
    if not algebra.is_dense:
        rec = PropertyCheck("between is refused on a non-dense order")
        pair = sample_distinct_pair(algebra, rng)
        rec.tally(pair is None or _refused(between, NotDense, algebra, *pair),
                  "{} .. {}", *(pair or ()))
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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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

# name -> (suite, sample divisor), alone or under "all"; at least one sample.
SUITES = {
    "adjoint": (adjointness_suite, 1),
    "involution": (involution_suite, 1),
    "tau": (tau_suite, 1),
    "density": (density_suite, 1),
    "structure": (monoid_suite, 4),
    "covers": (covers_suite, 4),
    "group-part": (group_part_suite, 4),
}

SUITE_NAMES = ("all", "adjoint", "involution", "tau", "iso", "density",
               "structure", "covers", "group-part")


def run_verification(spec: RepresentationSpec, suite: str, samples: int,
                     seed: int, standard: bool = False) -> list[SuiteReport]:
    """Run one suite (or all of them) over the algebras a spec gives rise to."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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
    for name, (fn, divisor) in SUITES.items():
        if suite in ("all", name):
            # Called by its module name, so a wrapper installed there (a tracer, a test) runs.
            fn = globals()[fn.__name__]
            for subject, algebra in subjects:
                checks = fn(algebra, _rng(seed, name, subject), max(samples // divisor, 1))
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
