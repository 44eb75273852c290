"""Linearly ordered abelian groups used as building blocks.

Three chains are supported: ``Z^k`` under lexicographic order (written
additively), the rationals ``Q``, and the one-element group.  Viewed as odd
residuated chains they carry ``x * y = x + y``, ``neg x = -x`` and
``t = f = 0``; the richer operations live on the algebra layer.  This module
provides the group arithmetic, the order, covers and coordinatewise subgroup
descriptors, and is the one place that tells the three chains apart: each owns
its coordinates, canonical form, window, seeded sample and strict witnesses.
"""

from __future__ import annotations

import itertools
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
                and all(isinstance(c, int) for c in a))

    def check(self, a: GroupValue) -> tuple:
        if not self.is_canonical(a):
            raise ShapeError(f"expected an integer vector of length {self.rank}, got {a!r}")
        return a

    @property
    def kinds(self) -> tuple[str, ...]:
        return ("Z",) * self.rank

    def coords(self, a: tuple) -> tuple:
        return a

    def from_coords(self, coords: Sequence) -> tuple:
        if len(coords) != self.rank:
            raise ShapeError(f"expected {self.rank} coordinates, got {len(coords)}")
        vals = []
        for c in coords:
            f = Fraction(c)
            if f.denominator != 1:
                raise ShapeError(f"non-integer coordinate {c} for a Z position")
            vals.append(int(f))
        return tuple(vals)

    def compare(self, a: GroupValue, b: GroupValue) -> int:
        a, b = self.check(a), self.check(b)
        return (a > b) - (a < b)

    def add(self, a: GroupValue, b: GroupValue) -> tuple:
        a, b = self.check(a), self.check(b)
        return tuple(x + y for x, y in zip(a, b))

    def invert(self, a: GroupValue) -> tuple:
        a = self.check(a)
        return tuple(-x for x in a)

    def unit(self) -> tuple:
        return (0,) * self.rank

    def succ(self, a: GroupValue) -> tuple:
        # The unique upper cover in lex order bumps the last coordinate.
        a = self.check(a)
        return a[:-1] + (a[-1] + 1,)

    def pred(self, a: GroupValue) -> tuple:
        a = self.check(a)
        return a[:-1] + (a[-1] - 1,)

    # The nearest strict witnesses of a discrete chain are its covers.
    below, above = pred, succ

    def between(self, a: tuple, b: tuple) -> Optional[tuple]:
        nxt = self.succ(a)
        return None if nxt == b else nxt

    def window(self, radius: int) -> list:
        return sorted(itertools.product(range(-radius, radius + 1), repeat=self.rank),
                      key=lambda t: (sum(abs(c) for c in t), t))

    def sample(self, rng: random.Random, magnitude: int) -> tuple:
        return tuple(rng.randint(-magnitude, magnitude) for _ in range(self.rank))

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

    def unit(self) -> Fraction:
        return Fraction(0)

    def coords(self, a: Fraction) -> tuple:
        return (a,)

    def from_coords(self, coords: Sequence) -> Fraction:
        if len(coords) != 1:
            raise ShapeError("expected a single rational coordinate")
        return Fraction(coords[0])

    def succ(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("Q is densely ordered; no element has a cover")

    def pred(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("Q is densely ordered; no element has a cover")

    def below(self, a: Fraction) -> Fraction:
        return a - 1

    def above(self, a: Fraction) -> Fraction:
        return a + 1

    def between(self, a: Fraction, b: Fraction) -> Fraction:
        return (a + b) / 2

    def window(self, radius: int) -> list:
        vals = {Fraction(p, q) for q in (1, 2, 3)
                for p in range(-radius * q, radius * q + 1)}
        return sorted(vals, key=lambda v: (abs(v), v))

    def sample(self, rng: random.Random, magnitude: int) -> Fraction:
        return Fraction(rng.randint(-3 * magnitude, 3 * magnitude),
                        rng.randint(1, magnitude))

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

    def unit(self) -> tuple:
        return ()

    def coords(self, a: tuple) -> tuple:
        return ()

    def from_coords(self, coords: Sequence) -> tuple:
        if coords:
            raise ShapeError("the trivial chain has no coordinates")
        return ()

    def succ(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("the one-element chain has no covers")

    def pred(self, a: GroupValue) -> GroupValue:
        raise NotDiscretelyOrdered("the one-element chain has no covers")

    def below(self, *values: tuple) -> None:
        return None  # one element: nothing lies strictly beside it

    above = between = below

    def window(self, radius: int) -> list:
        return [()]

    def sample(self, rng: random.Random, magnitude: int) -> tuple:
        return ()

    @property
    def discretely_ordered(self) -> bool:
        return False

    def __str__(self) -> str:
        return "1"


GroupChain = Union[ZLex, QChain, Trivial]


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

    def is_full(self) -> bool:
        return all(e is None for e in self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(self.to_strings()) + "]"
