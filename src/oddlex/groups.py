"""Linearly ordered abelian groups used as building blocks.

Three chains are supported: ``Z^k`` under lexicographic order (written
additively), the rationals ``Q``, and the one-element group.  Viewed as odd
residuated chains they carry ``x * y = x + y``, ``neg x = -x`` and
``t = f = 0``; the richer operations live on the algebra layer.  This module
provides the group arithmetic, the order, covers and coordinatewise subgroup
descriptors.  Each chain owns its coordinates, canonical form, trusted
builder, window, seeded draw and strict witnesses.  Only ``literals._coerce``
and ``serialize._algebra_doc`` still tell the three chains apart by class,
and ``towers._transport`` by the ``ambient_kinds`` strings.

The public ``compare``, ``add``, ``invert``, ``succ`` and ``pred`` check that
their arguments are canonical values of the chain.  The ``_``-prefixed
``_add``, ``_invert``, ``_succ`` and ``_pred`` trust them: the algebra layer's
raw element ops call these on values validated where they entered.

Values are built unchecked too: ``_build(take)`` asks ``take(chain)`` for
each coordinate in order, ``_draw`` draws one coordinate inside a descriptor
entry (``*``, ``0`` or the multiples of ``p/q``), and ``_coord`` turns an
integer coordinate into one of the chain's.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import NotDiscretelyOrdered, ShapeError

# A group value is either an integer vector (Z^k, k >= 0) or a rational.
GroupValue = Union[tuple, Fraction]


@dataclass(frozen=True)
class ZLex:
    """The group Z^rank with lexicographic order; discretely ordered."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ShapeError("ZLex rank must be >= 1 (use Trivial for rank 0)")

    def is_canonical(self, a: GroupValue) -> bool:
        return (isinstance(a, tuple) and len(a) == self.rank
                and all(type(c) is int for c in a))

    def check(self, a: GroupValue) -> tuple:
        if not self.is_canonical(a):
            raise ShapeError(f"expected an integer vector of length {self.rank}, got {a!r}")
        return a

    @property
    def kinds(self) -> tuple[str, ...]:
        return ("Z",) * self.rank

    def coords(self, a: tuple) -> tuple:
        return a

    _coord = int

    def _build(self, take) -> tuple:
        return tuple([take(self) for _ in range(self.rank)])

    def _draw(self, rng: random.Random, entry: Entry, magnitude: int) -> int:
        if entry is None:
            return rng.randint(-magnitude, magnitude)
        if not entry:
            return 0
        # (p/q)Z meets Z in pZ
        return entry.numerator * rng.randint(-magnitude, magnitude)

    def compare(self, a: GroupValue, b: GroupValue) -> int:
        a, b = self.check(a), self.check(b)
        return (a > b) - (a < b)

    def add(self, a: GroupValue, b: GroupValue) -> tuple:
        return self._add(self.check(a), self.check(b))

    def invert(self, a: GroupValue) -> tuple:
        return self._invert(self.check(a))

    def _add(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(operator.add, a, b))

    def _invert(self, a: tuple) -> tuple:
        return tuple(map(operator.neg, a))

    def unit(self) -> tuple:
        return (0,) * self.rank

    def succ(self, a: GroupValue) -> tuple:
        return self._succ(self.check(a))

    def pred(self, a: GroupValue) -> tuple:
        return self._pred(self.check(a))

    def _succ(self, a: tuple) -> tuple:
        # The unique upper cover in lex order bumps the last coordinate.
        return a[:-1] + (a[-1] + 1,)

    def _pred(self, a: tuple) -> tuple:
        return a[:-1] + (a[-1] - 1,)

    # The nearest strict witnesses of a discrete chain are its covers.
    below, above = _pred, _succ

    def between(self, a: tuple, b: tuple) -> Optional[tuple]:
        nxt = self._succ(a)
        return None if nxt == b else nxt

    def window(self, radius: int, cap: int) -> list:
        """Vectors in the box [-radius, radius]^rank, by whole L1 shells.

        Shells 0, 1, 2, ... are added until the list holds at least ``cap``
        vectors, so it contains the ``cap`` vectors of least L1 norm without
        building the rest of the box.
        """
        out: list = []
        for norm in range(self.rank * radius + 1):
            if len(out) >= cap:
                break
            out.extend(_l1_shell(self.rank, norm, radius))
        return out

    @property
    def discretely_ordered(self) -> bool:
        return True

    def __str__(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


@dataclass(frozen=True)
class QChain:
    """The rationals with their natural order; densely ordered."""

    kinds = ("Q",)

    def is_canonical(self, a: GroupValue) -> bool:
        return isinstance(a, Fraction)  # rationals are stored as Fraction

    def check(self, a: GroupValue) -> Fraction:
        if isinstance(a, int):
            return Fraction(a)
        if not isinstance(a, Fraction):
            raise ShapeError(f"expected a rational, got {a!r}")
        return a

    def compare(self, a: GroupValue, b: GroupValue) -> int:
        a, b = self.check(a), self.check(b)
        return (a > b) - (a < b)

    def add(self, a: GroupValue, b: GroupValue) -> Fraction:
        return self.check(a) + self.check(b)

    def invert(self, a: GroupValue) -> Fraction:
        return -self.check(a)

    def _add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def _invert(self, a: Fraction) -> Fraction:
        return -a

    def unit(self) -> Fraction:
        return Fraction(0)

    def coords(self, a: Fraction) -> tuple:
        return (a,)

    _coord = Fraction

    def _build(self, take) -> Fraction:
        return take(self)

    def _draw(self, rng: random.Random, entry: Entry, magnitude: int) -> Fraction:
        if entry is None:
            return Fraction(rng.randint(-3 * magnitude, 3 * magnitude),
                            rng.randint(1, magnitude))
        if not entry:
            return Fraction(0)
        return entry * rng.randint(-magnitude, magnitude)

    def succ(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("Q is densely ordered; no element has a cover")

    def pred(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("Q is densely ordered; no element has a cover")

    _succ, _pred = succ, pred

    def below(self, a: Fraction) -> Fraction:
        return a - 1

    def above(self, a: Fraction) -> Fraction:
        return a + 1

    def between(self, a: Fraction, b: Fraction) -> Fraction:
        return (a + b) / 2

    def window(self, radius: int, cap: int) -> list:
        # O(radius) values: the whole box, whatever the cap.
        vals = {Fraction(p, q) for q in (1, 2, 3)
                for p in range(-radius * q, radius * q + 1)}
        return sorted(vals, key=lambda v: (abs(v), v))

    @property
    def discretely_ordered(self) -> bool:
        return False

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class Trivial:
    """The one-element group, represented by the empty integer vector."""

    kinds = ()

    def is_canonical(self, a: GroupValue) -> bool:
        return a == ()

    def check(self, a: GroupValue) -> tuple:
        if a != ():
            raise ShapeError(f"the trivial group only contains (), got {a!r}")
        return ()

    def compare(self, a: GroupValue, b: GroupValue) -> int:
        self.check(a), self.check(b)
        return 0

    def add(self, a: GroupValue, b: GroupValue) -> tuple:
        self.check(a), self.check(b)
        return ()

    def invert(self, a: GroupValue) -> tuple:
        return self.check(a)

    def _add(self, *values: tuple) -> tuple:
        return ()

    _invert = _add

    def unit(self) -> tuple:
        return ()

    def coords(self, a: tuple) -> tuple:
        return ()

    def _build(self, take) -> tuple:
        return ()

    def succ(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("the one-element chain has no covers")

    def pred(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("the one-element chain has no covers")

    _succ, _pred = succ, pred

    def below(self, *values: tuple) -> None:
        return None  # one element: nothing lies strictly beside it

    above = between = below

    def window(self, radius: int, cap: int) -> list:
        return [()]

    @property
    def discretely_ordered(self) -> bool:
        return False

    def __str__(self) -> str:
        return "1"


GroupChain = Union[ZLex, QChain, Trivial]


def _l1_shell(rank: int, norm: int, radius: int):
    """Integer vectors of length ``rank`` with L1 norm ``norm`` and every
    entry in [-radius, radius], in lexicographic order."""
    if rank == 0:
        if norm == 0:
            yield ()
        return
    rest_max = (rank - 1) * radius  # the largest norm the other entries reach
    for c in range(-min(radius, norm), min(radius, norm) + 1):
        if norm - abs(c) <= rest_max:
            for tail in _l1_shell(rank - 1, norm - abs(c), radius):
                yield (c,) + tail


# Descriptor entry encoding: None = whole coordinate, Fraction(0) = only zero,
# a positive rational q = the cyclic subgroup of multiples of q.
Entry = Optional[Fraction]

_ALL = "*"
_ZERO = "0"


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A coordinatewise subgroup of a lex product of Z's and Q's.

    Each coordinate is constrained independently, which is enough to express
    every restriction the constructions need (Z inside Q, scaled copies of Z,
    zero coordinates) while keeping membership a per-coordinate divisibility
    test.
    """

    entries: tuple[Entry, ...]

    def __post_init__(self):
        for e in self.entries:
            if e is None:
                continue
            if not isinstance(e, Fraction) or e < 0:
                raise ShapeError(f"descriptor entry must be '*', 0, or a positive rational, got {e!r}")
        # (index, p, q) for each non-'*' entry p/q, read by contains_coords
        object.__setattr__(self, "_constrained", tuple(
            (i, e.numerator, e.denominator) for i, e in enumerate(self.entries) if e is not None))

    @classmethod
    def full(cls, n: int) -> "SubgroupDescriptor":
        return cls((None,) * n)

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "SubgroupDescriptor":
        entries = []
        for s in items:
            s = s.strip()
            if s == _ALL:
                entries.append(None)
            else:
                try:
                    entries.append(Fraction(s))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ShapeError(f"bad descriptor entry {s!r}") from exc
        return cls(tuple(entries))

    def to_strings(self) -> list[str]:
        return [_ALL if e is None else str(e) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def contains_coords(self, coords: Sequence) -> bool:
        if len(coords) != len(self.entries):
            raise ShapeError(
                f"descriptor has {len(self.entries)} coordinates, value has {len(coords)}")
        if not self._constrained:
            return True
        # c lies in (p/q)Z iff c*q/p is an integer; for c = a/b, iff b*p divides a*q.
        for i, p, q in self._constrained:
            c = coords[i]
            if not p:
                if c != 0:
                    return False
            elif isinstance(c, int):
                if c * q % p:
                    return False
            elif c.numerator * q % (c.denominator * p):
                return False
        return True

    def refines(self, other: "SubgroupDescriptor") -> bool:
        """True when this descriptor's subgroup is contained in ``other``'s."""
        if len(self) != len(other):
            return False
        for mine, theirs in zip(self.entries, other.entries):
            if theirs is None:
                continue
            if mine is None:
                return False
            if theirs == 0:
                if mine != 0:
                    return False
            elif mine == 0:
                continue
            elif mine % theirs != 0:
                return False
        return True

    def __str__(self) -> str:
        return "[" + ",".join(self.to_strings()) + "]"
