"""Tower constructions and maps between them.

* ``make_zj`` / ``make_qj`` -- the integer and rational tower series
  (``Z_1 = Z``, ``Z_{j+1} = PLPII(Z, Z_j)``; ``Q_1 = Q``,
  ``Q_{j+1} = PLPI(Q, Z, Q_j)``).  The rational towers also serve as the
  computable stand-in for the real-based towers: of the four properties that
  characterise the reals, density, unboundedness and a countable dense subset
  survive exactly, only Dedekind completeness is left to mathematics.
* ``build_representation`` -- stage-wise construction of a chain from ranks,
  a III/IV sequence, and subgroup descriptors.
* ``build_standard_target`` -- the companion tower with dense second factors
  plus the stage embedding into it.
* ``fuse_type2_iso`` / ``zjk_iso`` -- canonical re-association of nested type
  II products and the flattening ``PLPII(Z_j, Z_k) = Z_{j+k}``.
* ``between`` -- a constructive intermediate-element witness for densely
  ordered towers.
* ``closure_tau_count`` -- exhaustive closure of a finite generator set with
  a count of the distinct tau values reached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence

from .chains import (
    Algebra,
    BaseAlgebra,
    PlpAlgebra,
    PlpKind,
    q_chain,
    trivial_chain,
    z_chain,
)
from .elements import Elem, Leaf, Marker, Pair
from .errors import (
    ClosureBudgetExceeded,
    NotDense,
    PreconditionViolation,
    ShapeError,
)
from .groups import SubgroupDescriptor

#: Z sitting inside Q, as a coordinatewise descriptor.
INT_IN_Q = SubgroupDescriptor((Fraction(1),))

MODE_III_IV = "III-IV"
MODE_I_II = "I-II"


def make_zj(j: int) -> Algebra:
    """The j-th integer tower; ``Z_1`` is the integers themselves."""
    if j < 1:
        raise ShapeError("tower index must be >= 1")
    algebra: Algebra = z_chain()
    for _ in range(j - 1):
        algebra = PlpAlgebra(PlpKind.IV, z_chain(), None,
                             SubgroupDescriptor.full(1), algebra)
    return algebra


def make_qj(j: int) -> Algebra:
    """The j-th rational tower; ``Q_1`` is the rationals themselves."""
    if j < 1:
        raise ShapeError("tower index must be >= 1")
    algebra: Algebra = q_chain()
    for _ in range(j - 1):
        algebra = PlpAlgebra(PlpKind.III, q_chain(), INT_IN_Q, INT_IN_Q, algebra)
    return algebra


# ---------------------------------------------------------------------------
# Representation specs and towers


@dataclass(frozen=True)
class RepresentationSpec:
    """Ranks, the III/IV sequence, and the stage subgroup descriptors.

    ``ranks[0]`` may be zero (trivial first group, the bounded case); later
    zero ranks are legal but unusual.  ``zdescs[i]`` / ``vdescs[i]`` constrain
    the group part of stage ``i+1`` and drive the construction of stage
    ``i+2``; ``None`` entries default to the largest legal choice.
    """

    ranks: tuple[int, ...]
    iota: tuple[str, ...]
    zdescs: tuple[Optional[SubgroupDescriptor], ...] = ()
    vdescs: tuple[Optional[SubgroupDescriptor], ...] = ()

    def __post_init__(self):
        n = len(self.ranks)
        if n < 1:
            raise ShapeError("ranks must list at least one stage")
        for i, k in enumerate(self.ranks):
            if not isinstance(k, int) or k < 0:
                raise ShapeError(f"ranks[{i}] must be a non-negative integer")
        if len(self.iota) != n - 1:
            raise ShapeError(f"iota must have {n - 1} entries, got {len(self.iota)}")
        for i, kind in enumerate(self.iota):
            if kind not in ("III", "IV"):
                raise ShapeError(f"iota[{i}] must be 'III' or 'IV', got {kind!r}")
        for name, descs in (("zdescs", self.zdescs), ("vdescs", self.vdescs)):
            if len(descs) > n - 1:
                raise ShapeError(f"{name} may have at most {n - 1} entries")

    @property
    def n(self) -> int:
        return len(self.ranks)

    def zdesc(self, i: int) -> Optional[SubgroupDescriptor]:
        """Descriptor Z_i (1-based), or None when unspecified."""
        return self.zdescs[i - 1] if i - 1 < len(self.zdescs) else None

    def vdesc(self, i: int) -> Optional[SubgroupDescriptor]:
        return self.vdescs[i - 1] if i - 1 < len(self.vdescs) else None

    def to_json(self) -> dict:
        def render(descs):
            return [None if d is None else d.to_strings() for d in descs]

        return {
            "ranks": list(self.ranks),
            "iota": list(self.iota),
            "zdescs": render(self.zdescs),
            "vdescs": render(self.vdescs),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RepresentationSpec":
        if not isinstance(data, dict):
            raise ShapeError("spec document must be a JSON object")
        try:
            ranks = tuple(data["ranks"])
        except KeyError:
            raise ShapeError("spec is missing field 'ranks'") from None
        iota_raw = data.get("iota", [])
        if not isinstance(iota_raw, list):
            raise ShapeError("field 'iota' must be a list")
        iota = tuple(str(k) for k in iota_raw)

        def load(name) -> tuple:
            raw = data.get(name) or []
            if not isinstance(raw, list):
                raise ShapeError(f"field '{name}' must be a list")
            out = []
            for i, entry in enumerate(raw):
                if entry is None:
                    out.append(None)
                else:
                    try:
                        out.append(SubgroupDescriptor.from_strings(entry))
                    except ShapeError as exc:
                        raise ShapeError(f"{name}[{i}]: {exc}") from None
            return tuple(out)

        return cls(ranks, iota, load("zdescs"), load("vdescs"))


@dataclass(frozen=True)
class Countertower:
    """The stages of one representation build, first to last."""

    spec: RepresentationSpec
    mode: str
    stages: tuple[Algebra, ...]

    @property
    def top(self) -> Algebra:
        return self.stages[-1]


def _stage_group(k: int) -> BaseAlgebra:
    return z_chain(k) if k >= 1 else trivial_chain()


def _normalize_mode(mode: str) -> str:
    m = mode.upper().replace("_", "-")
    if m in (MODE_III_IV, "III/IV"):
        return MODE_III_IV
    if m in (MODE_I_II, "I/II"):
        return MODE_I_II
    raise ShapeError(f"unknown mode {mode!r}; use '{MODE_III_IV}' or '{MODE_I_II}'")


def build_representation(spec: RepresentationSpec, mode: str = MODE_I_II) -> Countertower:
    """Build the tower stage by stage.

    Mode III-IV applies the general constructions with the given Z and V
    descriptors; mode I-II applies the degenerate ones and consumes only the
    Z descriptors.  Construction failures are re-raised with the stage index.
    """
    from .plp import build_plp

    mode = _normalize_mode(mode)
    stages: list[Algebra] = [_stage_group(spec.ranks[0])]
    for i in range(2, spec.n + 1):
        prev = stages[-1]
        group = _stage_group(spec.ranks[i - 1])
        kind = spec.iota[i - 2]
        z = spec.zdesc(i - 1)
        v = spec.vdesc(i - 1)
        try:
            if kind == "III":
                z = z if z is not None else prev.group_part_descriptor
                if mode == MODE_I_II:
                    stage = build_plp("I", prev, zdesc=z, second=group)
                else:
                    v = v if v is not None else z
                    stage = build_plp("III", prev, zdesc=z, vdesc=v, second=group)
            else:
                if mode == MODE_I_II:
                    stage = build_plp("II", prev, second=group)
                else:
                    v = v if v is not None else prev.group_part_descriptor
                    stage = build_plp("IV", prev, vdesc=v, second=group)
        except (PreconditionViolation, ShapeError) as exc:
            raise PreconditionViolation(f"stage {i}: {exc}") from exc
        stages.append(stage)
    return Countertower(spec, mode, tuple(stages))


def normalize_spec(spec: RepresentationSpec) -> RepresentationSpec:
    """Merge runs of consecutive type-IV stages into single stages.

    Nested type II products re-associate, so a run of type IV stages is one
    type IV stage whose rank is the run's total rank; the descriptors interior
    to a run constrain group parts that disappear with the merge.
    """
    ranks = [spec.ranks[0]]
    iota: list[str] = []
    zdescs: list[Optional[SubgroupDescriptor]] = []
    vdescs: list[Optional[SubgroupDescriptor]] = []
    for i in range(2, spec.n + 1):
        kind = spec.iota[i - 2]
        if kind == "IV" and iota and iota[-1] == "IV":
            # The merged stage keeps the run-start descriptors; the interior
            # ones constrained group parts that no longer exist.
            ranks[-1] += spec.ranks[i - 1]
            continue
        ranks.append(spec.ranks[i - 1])
        iota.append(kind)
        zdescs.append(spec.zdesc(i - 1))
        vdescs.append(spec.vdesc(i - 1))
    return RepresentationSpec(tuple(ranks), tuple(iota),
                              tuple(zdescs), tuple(vdescs))


def _transport(desc: SubgroupDescriptor, source_ranks: Sequence[int],
               target_kinds: Sequence[str]) -> SubgroupDescriptor:
    """Reinterpret a descriptor over the companion tower's coordinates.

    The described subgroup must stay the *image* of the original one under
    the stage embedding: a full integer coordinate landing on a rational
    coordinate becomes "multiples of 1", and a rank-0 stage (whose companion
    chunk still has one rational coordinate) pins that coordinate to zero.
    """
    entries = []
    si = ti = 0
    for k in source_ranks:
        if k == 0:
            entries.append(Fraction(0))
            ti += 1
            continue
        for _ in range(k):
            if si >= len(desc.entries) or ti >= len(target_kinds):
                raise ShapeError("descriptor does not match the stage coordinates")
            entry = desc.entries[si]
            if target_kinds[ti] == "Q" and entry is None:
                entries.append(Fraction(1))
            else:
                entries.append(entry)
            si += 1
            ti += 1
    if si != len(desc.entries) or ti != len(target_kinds):
        raise ShapeError("descriptor does not match the stage coordinates")
    return SubgroupDescriptor(tuple(entries))


@dataclass(frozen=True)
class StandardTarget:
    """The dense companion tower, together with the stage embeddings.

    ``source`` is the I-II tower of the (normalized) spec; ``stages[i]`` is
    the companion of ``source.stages[i]`` and ``embed(i, e)`` carries stage-i
    elements over, sending each rank-k group vector to the nested group-part
    element of the corresponding tower.
    """

    spec: RepresentationSpec
    source: Countertower
    stages: tuple[Algebra, ...]

    @property
    def top(self) -> Algebra:
        return self.stages[-1]

    def _embed_group_value(self, target: Algebra, source_stage: BaseAlgebra, leaf: Leaf) -> Elem:
        if not source_stage.ambient_kinds:  # rank 0: the trivial group
            return target.unit()
        return target._unflatten(source_stage._group_coords(leaf))

    def _embed(self, i: int, e: Elem) -> Elem:
        if i == 1:
            return self._embed_group_value(self.stages[0], self.source.stages[0], e)
        source_stage = self.source.stages[i - 1]
        target_stage = self.stages[i - 1]
        first = self._embed(i - 1, e.first)
        if isinstance(e.second, Marker):
            return Pair(first, e.second)
        return Pair(first,
                    self._embed_group_value(target_stage.second,
                                            source_stage.second, e.second))

    def embed(self, i: int, e: Elem) -> Elem:
        """Map a stage-i source element into stage i of the target tower."""
        if not 1 <= i <= len(self.stages):
            raise ShapeError(f"stage index {i} out of range")
        self.source.stages[i - 1].ensure_member(e)
        image = self._embed(i, e)
        self.stages[i - 1].ensure_member(image)
        return image


def build_standard_target(spec: RepresentationSpec) -> StandardTarget:
    """Build the dense companion tower of a representation.

    Runs of consecutive type-IV stages are first merged away (they re-associate
    into a single type IV stage), so the case "type IV followed by type IV"
    never has to be materialised.  Each stage then follows the case split on
    its own kind and its successor's: type III stages take a rational tower as
    second factor unless a type IV stage follows (which needs covers, hence an
    integer tower); type IV stages take a rational tower.
    """
    from .plp import build_plp

    spec = normalize_spec(spec)
    source = build_representation(spec, MODE_I_II)
    n = spec.n

    def tower_for(i: int, kind_i: str) -> Algebra:
        k = max(spec.ranks[i - 1], 1)
        next_is_iv = i < n and spec.iota[i - 1] == "IV"
        if kind_i == "IV":
            # merged runs guarantee the follower is III or nothing
            return make_qj(k)
        return make_zj(k) if next_is_iv else make_qj(k)

    if n == 1 or spec.iota[0] == "III":
        stages: list[Algebra] = [make_qj(max(spec.ranks[0], 1))]
    else:
        stages = [make_zj(max(spec.ranks[0], 1))]

    for i in range(2, n + 1):
        prev = stages[-1]
        kind = spec.iota[i - 2]
        second = tower_for(i, kind)
        try:
            if kind == "III":
                z = spec.zdesc(i - 1)
                if z is None:
                    z = source.stages[i - 2].group_part_descriptor
                stage = build_plp("I", prev,
                                  zdesc=_transport(z, spec.ranks[:i - 1],
                                                   prev.ambient_kinds),
                                  second=second)
            else:
                stage = build_plp("II", prev, second=second)
        except (PreconditionViolation, ShapeError) as exc:
            raise PreconditionViolation(f"stage {i}: {exc}") from exc
        stages.append(stage)
    return StandardTarget(spec, source, tuple(stages))


# ---------------------------------------------------------------------------
# Canonical isomorphisms


@dataclass(frozen=True)
class Type2Fusion:
    """Element bijection between ``PLPII(PLPII(A,B),C)`` and ``PLPII(A,PLPII(B,C))``."""

    left: PlpAlgebra
    right: PlpAlgebra

    def to_right(self, e: Elem) -> Elem:
        self.left.ensure_member(e)
        inner, outer = e.first, e.second
        if outer is Marker.TOP:
            if inner.second is Marker.TOP:
                return Pair(inner.first, Marker.TOP)
            return Pair(inner.first, Pair(inner.second, Marker.TOP))
        return Pair(inner.first, Pair(inner.second, outer))

    def to_left(self, e: Elem) -> Elem:
        self.right.ensure_member(e)
        if e.second is Marker.TOP:
            return Pair(Pair(e.first, Marker.TOP), Marker.TOP)
        b, c = e.second.first, e.second.second
        if c is Marker.TOP:
            return Pair(Pair(e.first, b), Marker.TOP)
        return Pair(Pair(e.first, b), c)


def fuse_type2_iso(a: Algebra, b: Algebra, c: Algebra) -> Type2Fusion:
    """Re-associate nested type II products.

    Either association is well-defined exactly when both are: each needs the
    group parts of ``a`` and of ``b`` discretely embedded.
    """
    from .plp import build_plp

    failing = [name for name, alg in (("first", a), ("second", b))
               if not alg.grpart_discretely_embedded]
    if failing:
        raise PreconditionViolation(
            "group part not discretely embedded in the "
            + " and ".join(failing) + " component; neither association is well-defined")
    left = build_plp("II", build_plp("II", a, second=b), second=c)
    right = build_plp("II", a, second=build_plp("II", b, second=c))
    return Type2Fusion(left, right)


def zj_tuple(j: int, e: Elem) -> list:
    """Tuple view of an integer-tower element: integers with a TOP suffix."""
    if j == 1:
        return [e.value[0]]
    if e.second is Marker.TOP:
        return [e.first.value[0]] + [Marker.TOP] * (j - 1)
    return [e.first.value[0]] + zj_tuple(j - 1, e.second)


def zj_from_tuple(j: int, items: Sequence) -> Elem:
    if len(items) != j:
        raise ShapeError(f"expected {j} entries, got {len(items)}")
    if not isinstance(items[0], int):
        raise ShapeError("the leading tuple entry must be an integer")
    if j == 1:
        return Leaf((items[0],))
    head = Leaf((items[0],))
    rest = items[1:]
    if all(x is Marker.TOP for x in rest):
        return Pair(head, Marker.TOP)
    return Pair(head, zj_from_tuple(j - 1, rest))


def zjk_iso(j: int, k: int, e: Elem) -> Elem:
    """Flatten an element of ``PLPII(Z_j, Z_k)`` into ``Z_{j+k}``."""
    from .plp import build_plp

    product = build_plp("II", make_zj(j), second=make_zj(k))
    product.ensure_member(e)
    if e.second is Marker.TOP:
        items = zj_tuple(j, e.first) + [Marker.TOP] * k
    else:
        items = zj_tuple(j, e.first) + zj_tuple(k, e.second)
    return zj_from_tuple(j + k, items)


def zjk_iso_inverse(j: int, k: int, e: Elem) -> Elem:
    """Split a ``Z_{j+k}`` element back into ``PLPII(Z_j, Z_k)``."""
    make_zj(j + k).ensure_member(e)
    items = zj_tuple(j + k, e)
    head, tail = items[:j], items[j:]
    if any(x is Marker.TOP for x in head):
        return Pair(zj_from_tuple(j, head), Marker.TOP)
    if all(x is Marker.TOP for x in tail):
        return Pair(zj_from_tuple(j, head), Marker.TOP)
    return Pair(zj_from_tuple(j, head), zj_from_tuple(k, tail))


# ---------------------------------------------------------------------------
# Constructive density


def between(algebra: Algebra, x: Elem, y: Elem) -> Elem:
    """A witness strictly between ``x < y`` in a densely ordered algebra.

    Follows the shape of the order: a gap in the first component is filled by
    a first-component witness with a marker second; equal first components
    recurse into the fiber, stepping through covers where the fiber's chain
    has them.
    """
    algebra.ensure_member(x, y)
    if algebra._compare(x, y) >= 0:
        raise PreconditionViolation("between requires x < y")
    obstruction = algebra.density_obstruction()
    if obstruction is not None:
        raise NotDense(obstruction)
    witness = algebra._between(x, y)
    if witness is None:  # unreachable on a structurally dense order
        raise NotDense(f"no element between {x} and {y}")
    return witness


# ---------------------------------------------------------------------------
# Closure experiment


def closure_elements(algebra: Algebra,
                     generators: Sequence[Elem],
                     depth: int,
                     max_elements: int = 20000) -> list[Elem]:
    """All values of terms over *, ->, neg, meet, join of nesting depth <= depth."""
    algebra.ensure_member(*generators)
    if depth < 0:
        raise ShapeError("depth must be >= 0")
    key = cmp_to_key(algebra._compare)
    current = sorted(set(generators), key=key)
    seen = set(current)
    for _ in range(depth):
        fresh = []

        def add(e):
            if e not in seen:
                seen.add(e)
                fresh.append(e)

        for e in current:
            add(algebra._neg(e))
        for e1, e2 in itertools.combinations_with_replacement(current, 2):
            add(algebra._mult(e1, e2))
            add(algebra._neg(algebra._mult(e1, algebra._neg(e2))))
            add(algebra._neg(algebra._mult(e2, algebra._neg(e1))))
            # meet and join of comparable elements are the elements themselves
        if len(seen) > max_elements:
            taus = {algebra.tau(e) for e in current}
            raise ClosureBudgetExceeded(
                f"closure exceeded {max_elements} elements; "
                f"{len(taus)} distinct tau values seen so far", len(taus))
        if not fresh:
            break
        current = sorted(seen, key=key)
    return current


def closure_tau_values(algebra: Algebra,
                       generators: Sequence[Elem],
                       depth: int,
                       max_elements: int = 20000) -> frozenset:
    elems = closure_elements(algebra, generators, depth, max_elements)
    return frozenset(algebra.tau(e) for e in elems)


def closure_tau_count(algebra: Algebra,
                      generators: Sequence[Elem],
                      depth: int,
                      max_elements: int = 20000) -> int:
    """Number of distinct tau values in the depth-bounded closure.

    Never exceeds the number of distinct tau values of the generators plus
    one for the unit, since tau of a composite equals the largest tau of its
    leaves and meets/joins in a chain pick one argument.
    """
    return len(closure_tau_values(algebra, generators, depth, max_elements))
