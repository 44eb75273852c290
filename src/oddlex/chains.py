"""Odd involutive residuated chains closed under partial lexicographic products.

An :class:`Algebra` describes a chain together with its monoidal operation,
residual negation, residuum and the derived structure (group part, covers,
unit-preserving tau map).  Three shapes exist:

* :class:`BaseAlgebra` -- a linearly ordered abelian group viewed as an odd
  chain (``* = +``, ``neg = -``, ``t = f = 0``);
* :class:`PlpAlgebra` -- a type I/II/III/IV partial lexicographic product of a
  chain and a second chain, with top/bottom fiber markers;
* :class:`BoundedAlgebra` -- a chain with two global bounds adjoined, the top
  added first as an annihilator and the bottom added second (so the bottom
  dominates the top under multiplication).

All values are immutable and every operation is pure.  Operations validate
carrier membership of their operands and raise :class:`MembershipError`
otherwise; the ``_``-prefixed variants skip validation and are used for
recursion into components.

Each class owns its order witnesses: next to the covers ``_cover_up`` and
``_cover_down``, ``_below(e)``/``_above(e)`` give an element strictly below or
above ``e`` and ``_between(x, y)`` one strictly between ``x < y``, each None
where the order has none (a bound; ``y`` covering ``x``).

Single-walk contract: each element operation and each membership test visits
each node of an element tree O(1) times.  A product level that tests its first
component's group-part coordinates takes them from the recursion that negates
or checks that component (:meth:`Algebra._neg_coords`, ``_group_coords``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .elements import BOT_BOUND, TOP_BOUND, Bound, Elem, Leaf, Marker, Pair, Second
from .errors import MembershipError, PreconditionViolation, UndefinedCover
from .groups import GroupChain, QChain, SubgroupDescriptor, Trivial, ZLex


class PlpKind(enum.Enum):
    III = "III"
    IV = "IV"


def _second_rank(s: Second) -> int:
    # Fiber order: bottom marker < any chain value < top marker.
    if s is Marker.BOT:
        return 0
    if s is Marker.TOP:
        return 2
    return 1


class Algebra:
    """Shared derived operations; concrete carriers subclass this."""

    # -- carrier ---------------------------------------------------------

    def contains(self, e: Elem) -> bool:
        raise NotImplementedError

    def ensure_member(self, *elems: Elem) -> None:
        for e in elems:
            if not self.contains(e):
                raise MembershipError(f"{e} is not an element of {self}")

    def unit(self) -> Elem:
        raise NotImplementedError

    # -- order -----------------------------------------------------------

    def compare(self, a: Elem, b: Elem) -> int:
        self.ensure_member(a, b)
        return self._compare(a, b)

    def leq(self, a: Elem, b: Elem) -> bool:
        self.ensure_member(a, b)
        return self._compare(a, b) <= 0

    def lt(self, a: Elem, b: Elem) -> bool:
        self.ensure_member(a, b)
        return self._compare(a, b) < 0

    def meet(self, a: Elem, b: Elem) -> Elem:
        return a if self.leq(a, b) else b

    def join(self, a: Elem, b: Elem) -> Elem:
        return b if self.leq(a, b) else a

    # -- operations --------------------------------------------------------

    def mult(self, a: Elem, b: Elem) -> Elem:
        self.ensure_member(a, b)
        return self._mult(a, b)

    def neg(self, a: Elem) -> Elem:
        self.ensure_member(a)
        return self._neg(a)

    def residuum(self, a: Elem, b: Elem) -> Elem:
        """``a -> b``, computed as ``neg(a * neg b)``; adjoint to ``mult``."""
        self.ensure_member(a, b)
        return self._neg(self._mult(a, self._neg(b)))

    def tau(self, a: Elem) -> Elem:
        """``a -> a``; its range is exactly the positive idempotents."""
        self.ensure_member(a)
        return self._neg(self._mult(a, self._neg(a)))

    def group_part_contains(self, a: Elem) -> bool:
        """True iff ``a * neg(a) = t``, i.e. ``a`` is invertible."""
        self.ensure_member(a)
        return self._mult(a, self._neg(a)) == self.unit()

    def rank(self) -> int:
        """Sign of ``t`` versus ``f``; zero for every constructible algebra."""
        t = self.unit()
        return self._compare(t, self._neg(t))

    # -- covers ------------------------------------------------------------

    def cover_up(self, a: Elem) -> Elem:
        self._require_cover(a)
        return self._cover_up(a)

    def cover_down(self, a: Elem) -> Elem:
        self._require_cover(a)
        return self._cover_down(a)

    def _require_cover(self, a: Elem) -> None:
        self.ensure_member(a)
        if not self.grpart_discretely_embedded:
            raise UndefinedCover(
                f"group part of {self} is not discretely embedded; covers are undefined")
        if self._group_coords(a) is None:
            raise UndefinedCover(f"{a} lies outside the group part of {self}")

    # -- structural recursion ------------------------------------------------

    def _compare(self, a: Elem, b: Elem) -> int:
        raise NotImplementedError

    def _mult(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def _neg(self, a: Elem) -> Elem:
        return self._neg_coords(a, False)[0]

    def _neg_coords(self, a: Elem, want: bool) -> tuple[Elem, Optional[tuple]]:
        """``neg a`` and, when ``want``, :meth:`_group_coords` of ``a`` (else None)."""
        raise NotImplementedError

    def _cover_up(self, a: Elem) -> Elem:
        raise NotImplementedError

    def _cover_down(self, a: Elem) -> Elem:
        raise NotImplementedError

    def _below(self, e: Elem) -> Optional[Elem]:
        raise NotImplementedError

    def _above(self, e: Elem) -> Optional[Elem]:
        raise NotImplementedError

    def _between(self, x: Elem, y: Elem) -> Optional[Elem]:
        raise NotImplementedError

    def _group_coords(self, e: Elem) -> Optional[tuple]:
        """Coordinates of ``e`` in the ambient lex group, or None outside the group part."""
        raise NotImplementedError

    def _unflatten(self, coords) -> Elem:
        raise NotImplementedError

    # -- structural properties ------------------------------------------------

    @property
    def ambient_kinds(self) -> tuple[str, ...]:
        """Per-coordinate markers ("Z"/"Q") of the ambient group of the group part."""
        raise NotImplementedError

    @property
    def group_part_descriptor(self) -> SubgroupDescriptor:
        """Which ambient vectors actually occur as group-part elements."""
        raise NotImplementedError

    @property
    def is_unbounded(self) -> bool:
        raise NotImplementedError

    @property
    def grpart_discretely_embedded(self) -> bool:
        raise NotImplementedError

    @property
    def is_dense(self) -> bool:
        """True when the order has no covering pair at all."""
        return self.density_obstruction() is None

    def density_obstruction(self) -> Optional[str]:
        """None when dense, else a description of the first covering source."""
        raise NotImplementedError

    @property
    def covers_confined_to_group_part(self) -> bool:
        """True when every covering pair of the order lies inside the group part."""
        raise NotImplementedError

    @property
    def idempotent_count(self) -> int:
        """Number of positive idempotents (equivalently, distinct tau values)."""
        raise NotImplementedError


@dataclass(frozen=True)
class BaseAlgebra(Algebra):
    """A group chain as an odd residuated chain."""

    chain: GroupChain

    def contains(self, e: Elem) -> bool:
        return isinstance(e, Leaf) and self.chain.is_canonical(e.value)

    def unit(self) -> Elem:
        return Leaf(self.chain.unit())

    def _compare(self, a, b):
        return self.chain.compare(a.value, b.value)

    def _mult(self, a, b):
        return Leaf(self.chain.add(a.value, b.value))

    def _neg_coords(self, a, want):
        return Leaf(self.chain.invert(a.value)), self.chain.coords(a.value) if want else None

    def _cover_up(self, a):
        return Leaf(self.chain.succ(a.value))

    def _cover_down(self, a):
        return Leaf(self.chain.pred(a.value))

    def _below(self, e):
        return _leaf(self.chain.below(e.value))

    def _above(self, e):
        return _leaf(self.chain.above(e.value))

    def _between(self, x, y):
        return _leaf(self.chain.between(x.value, y.value))

    def _group_coords(self, e):
        return self.chain.coords(e.value) if self.contains(e) else None

    def _unflatten(self, coords):
        return Leaf(self.chain.from_coords(coords))

    @cached_property
    def ambient_kinds(self):
        return self.chain.kinds

    @cached_property
    def group_part_descriptor(self):
        return SubgroupDescriptor.full(len(self.ambient_kinds))

    @property
    def is_unbounded(self):
        return bool(self.ambient_kinds)  # only the one-element chain has no coordinates

    @property
    def grpart_discretely_embedded(self):
        return self.chain.discretely_ordered

    def density_obstruction(self):
        if self.chain.discretely_ordered:
            return f"base chain {self.chain} is discretely ordered"
        return None

    @property
    def covers_confined_to_group_part(self):
        return True

    @property
    def idempotent_count(self):
        return 1

    def __str__(self):
        return str(self.chain)


def _leaf(value) -> Optional[Leaf]:
    return None if value is None else Leaf(value)


@dataclass(frozen=True)
class PlpAlgebra(Algebra):
    """A partial lexicographic product.

    ``kind`` is III or IV; the classical type I (resp. II) products are the
    degenerate cases ``vdesc == zdesc`` (resp. ``vdesc`` = the whole group
    part), recognised by :attr:`display_kind`.  Carriers:

    * III: ``(V x (Y+{T,B})) | ((Z\\V) x {T,B}) | ((X\\Z) x {B})``
    * IV:  ``(X x {T}) | (V x Y)``

    Multiplication is coordinatewise with the bottom marker dominating the
    top marker; negation is first-componentwise with a fiber-marker swap for
    type III and the cover shift on top-marked group elements for type IV.
    """

    kind: PlpKind
    first: Algebra
    zdesc: Optional[SubgroupDescriptor]
    vdesc: SubgroupDescriptor
    second: Algebra

    @property
    def has_bot_marker(self) -> bool:
        return self.kind is PlpKind.III

    @cached_property
    def display_kind(self) -> str:
        if self.kind is PlpKind.III:
            return "I" if self.zdesc == self.vdesc else "III"
        return "II" if self.vdesc == self.first.group_part_descriptor else "IV"

    # -- carrier ------------------------------------------------------------

    def _in_subgroup(self, desc: SubgroupDescriptor, x: Elem) -> bool:
        coords = self.first._group_coords(x)
        return coords is not None and desc.contains_coords(coords)

    def contains(self, e):
        # Having group coordinates implies membership: each branch walks x once.
        if not isinstance(e, Pair):
            return False
        x, s = e.first, e.second
        if s is Marker.BOT or (s is Marker.TOP and self.kind is PlpKind.IV):
            return (s is Marker.TOP or self.has_bot_marker) and self.first.contains(x)
        if s is Marker.TOP:
            return self._in_subgroup(self.zdesc, x)
        return self._in_subgroup(self.vdesc, x) and self.second.contains(s)

    @cached_property
    def _unit(self):
        return Pair(self.first.unit(), self.second.unit())

    def unit(self):
        return self._unit

    # -- order ---------------------------------------------------------------

    def _compare(self, a, b):
        c = self.first._compare(a.first, b.first)
        if c != 0:
            return c
        ra, rb = _second_rank(a.second), _second_rank(b.second)
        if ra != rb:
            return -1 if ra < rb else 1
        if ra == 1:
            return self.second._compare(a.second, b.second)
        return 0

    # -- operations -------------------------------------------------------------

    def _mult_second(self, s1: Second, s2: Second) -> Second:
        # The bottom marker was adjoined after the top, so it wins.
        if s1 is Marker.BOT or s2 is Marker.BOT:
            return Marker.BOT
        if s1 is Marker.TOP or s2 is Marker.TOP:
            return Marker.TOP
        return self.second._mult(s1, s2)

    def _mult(self, a, b):
        return Pair(self.first._mult(a.first, b.first),
                    self._mult_second(a.second, b.second))

    def _neg_coords(self, a, want):
        # x's coordinates are asked for where this level tests them: type III
        # always, type IV under the top marker.  A member (x, y) has x in V.
        x, s = a.first, a.second
        if self.kind is PlpKind.III:
            nx, cx = self.first._neg_coords(x, True)
            if cx is None or not self.zdesc.contains_coords(cx):
                return Pair(nx, Marker.BOT), None
            if isinstance(s, Marker):
                return Pair(nx, Marker.TOP if s is Marker.BOT else Marker.BOT), None
        elif s is Marker.TOP:  # type IV: carrier is (X x {T}) | (V x Y)
            nx, cx = self.first._neg_coords(x, True)
            return Pair(nx if cx is None else self.first._cover_down(nx), Marker.TOP), None
        else:
            nx, cx = self.first._neg_coords(x, want)
        ns, cs = self.second._neg_coords(s, want)
        return Pair(nx, ns), (cx + cs if want and cs is not None else None)

    def _cover_up(self, a):
        return Pair(a.first, self.second._cover_up(a.second))

    def _cover_down(self, a):
        return Pair(a.first, self.second._cover_down(a.second))

    def _on_free_marker(self, x: Optional[Elem]) -> Optional[Elem]:
        """``x`` paired with the marker every first component takes (B for III, T for IV)."""
        return None if x is None else Pair(x, Marker.BOT if self.has_bot_marker else Marker.TOP)

    def _below(self, e):
        return self._on_free_marker(self.first._below(e.first))

    def _above(self, e):
        return self._on_free_marker(self.first._above(e.first))

    def _between(self, x, y):
        first, second = self.first, self.second
        a, s = x.first, x.second
        b, u = y.first, y.second
        if first._compare(a, b) < 0:
            mid = first._between(a, b)
            if mid is not None:
                return self._on_free_marker(mid)
            # b covers a in the first component: squeeze into the boundary fibers
            if self.has_bot_marker:
                if s is not Marker.TOP and self._in_subgroup(self.zdesc, a):
                    return Pair(a, Marker.TOP)
                if u is not Marker.BOT:
                    return Pair(b, Marker.BOT)
                return None
            if s is not Marker.TOP:
                return Pair(a, Marker.TOP)
            if u is Marker.TOP:
                w = second.unit() if self._in_subgroup(self.vdesc, b) else None
            else:
                w = second._below(u)
            return None if w is None else Pair(b, w)

        # equal first components; compare second components within the fiber
        if s is Marker.BOT:
            if not self._in_subgroup(self.vdesc, a):
                return None  # marker-only fiber
            w = second.unit() if u is Marker.TOP else second._below(u)
        elif u is Marker.TOP:
            w = second._above(s)
        else:
            w = second._between(s, u)
        return None if w is None else Pair(a, w)

    # -- group part ----------------------------------------------------------

    def _group_coords(self, e):
        if not isinstance(e, Pair) or isinstance(e.second, Marker):
            return None
        cx = self.first._group_coords(e.first)
        if cx is None or not self.vdesc.contains_coords(cx):
            return None
        cs = self.second._group_coords(e.second)
        return None if cs is None else cx + cs

    def _unflatten(self, coords):
        n = len(self.first.ambient_kinds)
        return Pair(self.first._unflatten(tuple(coords[:n])),
                    self.second._unflatten(tuple(coords[n:])))

    @cached_property
    def ambient_kinds(self):
        return self.first.ambient_kinds + self.second.ambient_kinds

    @cached_property
    def group_part_descriptor(self):
        return SubgroupDescriptor(self.vdesc.entries
                                  + self.second.group_part_descriptor.entries)

    # -- structural properties -----------------------------------------------

    @property
    def is_unbounded(self):
        return self.first.is_unbounded

    @cached_property
    def grpart_discretely_embedded(self):
        # Covers of (v, y) move y inside the second factor, so the question
        # reduces to the last lexicographic factor.
        return self.second.grpart_discretely_embedded

    def density_obstruction(self):
        if self.kind is PlpKind.III:
            if self.zdesc != self.vdesc:
                return (f"{self} keeps marker-only fibers over Z\\V, "
                        "which are two-element and hence not dense")
            inner = self.first.density_obstruction()
            if inner is not None:
                return f"first component of {self.display_name()}: {inner}"
        else:
            if not self.first.covers_confined_to_group_part:
                return (f"first component of {self.display_name()} has covers "
                        "outside its group part")
            if not (self.first.is_dense
                    or self.first.group_part_descriptor.refines(self.vdesc)):
                return (f"first component of {self.display_name()} has covers "
                        "whose fibers carry only the top marker")
        if not self.second.is_unbounded:
            return f"second component of {self.display_name()} is bounded"
        inner = self.second.density_obstruction()
        if inner is not None:
            return f"second component of {self.display_name()}: {inner}"
        return None

    @cached_property
    def covers_confined_to_group_part(self):
        if not (self.second.is_unbounded and self.second.covers_confined_to_group_part):
            return False
        if self.kind is PlpKind.III:
            return self.zdesc == self.vdesc and self.first.is_dense
        return (self.first.covers_confined_to_group_part
                and (self.first.is_dense
                     or self.first.group_part_descriptor.refines(self.vdesc)))

    @cached_property
    def idempotent_count(self):
        return self.first.idempotent_count + self.second.idempotent_count

    def display_name(self) -> str:
        return f"PLP{self.display_kind}"

    def __str__(self):
        k = self.display_kind
        if k == "I":
            return f"PLPI({self.first}, {self.zdesc}, {self.second})"
        if k == "II":
            return f"PLPII({self.first}, {self.second})"
        if k == "III":
            return f"PLPIII({self.first}, {self.zdesc}, {self.vdesc}, {self.second})"
        return f"PLPIV({self.first}, {self.vdesc}, {self.second})"


@dataclass(frozen=True)
class BoundedAlgebra(Algebra):
    """A chain with adjoined global bounds.

    The top is adjoined first as an annihilator, then the bottom below it,
    again as an annihilator; consequently ``BOT * TOP = BOT`` and negation
    swaps the two bounds.
    """

    inner: Algebra

    def contains(self, e):
        if isinstance(e, Bound):
            return True
        return self.inner.contains(e)

    def unit(self):
        return self.inner.unit()

    @staticmethod
    def _rank(e) -> int:
        if e is BOT_BOUND:
            return 0
        if e is TOP_BOUND:
            return 2
        return 1

    def _compare(self, a, b):
        ra, rb = self._rank(a), self._rank(b)
        if ra != rb:
            return -1 if ra < rb else 1
        if ra == 1:
            return self.inner._compare(a, b)
        return 0

    def _mult(self, a, b):
        if a is BOT_BOUND or b is BOT_BOUND:
            return BOT_BOUND
        if a is TOP_BOUND or b is TOP_BOUND:
            return TOP_BOUND
        return self.inner._mult(a, b)

    def _neg_coords(self, a, want):
        if isinstance(a, Bound):
            return (TOP_BOUND if a is BOT_BOUND else BOT_BOUND), None
        return self.inner._neg_coords(a, want)

    def _cover_up(self, a):
        return self.inner._cover_up(a)

    def _cover_down(self, a):
        return self.inner._cover_down(a)

    def _below(self, e):
        return None if e is BOT_BOUND else BOT_BOUND

    def _above(self, e):
        return None if e is TOP_BOUND else TOP_BOUND

    def _between(self, x, y):
        if x is BOT_BOUND:
            return self.inner.unit() if y is TOP_BOUND else self.inner._below(y)
        if y is TOP_BOUND:
            return self.inner._above(x)
        return self.inner._between(x, y)

    def _group_coords(self, e):
        return None if isinstance(e, Bound) else self.inner._group_coords(e)

    def _unflatten(self, coords):
        return self.inner._unflatten(coords)

    @property
    def ambient_kinds(self):
        return self.inner.ambient_kinds

    @property
    def group_part_descriptor(self):
        return self.inner.group_part_descriptor

    @property
    def is_unbounded(self):
        return False

    @property
    def grpart_discretely_embedded(self):
        return self.inner.grpart_discretely_embedded

    def density_obstruction(self):
        if not self.inner.is_unbounded:
            return "bounds adjoined to a bounded chain create covers"
        return self.inner.density_obstruction()

    @property
    def covers_confined_to_group_part(self):
        return self.inner.is_unbounded and self.inner.covers_confined_to_group_part

    @property
    def idempotent_count(self):
        return self.inner.idempotent_count + 1

    def __str__(self):
        return f"Bounded({self.inner})"


def adjoin_bounds(algebra: Algebra) -> BoundedAlgebra:
    """Adjoin a global top (annihilator) and then a global bottom below it."""
    if isinstance(algebra, BoundedAlgebra):
        raise PreconditionViolation("bounds are already adjoined")
    return BoundedAlgebra(algebra)


# Convenience constructors for the two base chains most code starts from.

def z_chain(rank: int = 1) -> BaseAlgebra:
    return BaseAlgebra(ZLex(rank))


def q_chain() -> BaseAlgebra:
    return BaseAlgebra(QChain())


def trivial_chain() -> BaseAlgebra:
    return BaseAlgebra(Trivial())


def zelem(*coords: int) -> Leaf:
    return Leaf(tuple(coords))


def qelem(num, den: int = 1) -> Leaf:
    return Leaf(Fraction(num, den))
