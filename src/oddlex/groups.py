"""Group values and coordinatewise subgroup descriptors.

The base chains ``Z^k``, ``Q`` and the one-element group are algebras in
their own right and live in :mod:`oddlex.chains`.  This module holds what
they and the products share below the algebra layer: the group values (an
int tuple or a ``Fraction``), the :class:`SubgroupDescriptor` that picks a
coordinatewise subgroup of a lex product of Z's and Q's, its ``Entry``
encoding, and ``_l1_shell``, which enumerates the integer vectors of one L1
norm for the ``Z^k`` window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import ShapeError

# A group value is either an integer vector (Z^k, k >= 0) or a rational.
GroupValue = Union[tuple, Fraction]


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
            if e is not None and (not isinstance(e, Fraction) or e.numerator < 0):
                raise ShapeError(f"descriptor entry must be '*', 0, or a positive rational, got {e!r}")
        # (index, p, q) for each non-'*' entry p/q, read by contains_coords, refines, relative_to
        object.__setattr__(self, "constrained", tuple(
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

    def contains_coords(self, coords: Sequence, start: int = 0) -> bool:
        """Whether ``coords[start:]``, the tail of a caller's buffer, is in the subgroup."""
        if len(coords) - start != len(self.entries):
            raise ShapeError(
                f"descriptor has {len(self.entries)} coordinates, value has {len(coords) - start}")
        # c lies in (p/q)Z iff c*q/p is an integer; for c = a/b, iff b*p divides a*q.
        for i, p, q in self.constrained:
            c = coords[start + i]
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
        # '*' lies in no proper subgroup; a/b lies in (p/q)Z iff b*p divides a*q.
        for i, p, q in other.constrained:
            mine = self.entries[i]
            if mine is None or (mine.numerator * q % (mine.denominator * p) if p
                                else mine.numerator):
                return False
        return True

    def relative_to(self, base: "SubgroupDescriptor") -> "SubgroupDescriptor":
        """This descriptor with each entry that ``base`` repeats set to '*'; both
        agree on coordinates that lie in ``base``'s subgroup."""
        implied = set(base.constrained)
        return SubgroupDescriptor(tuple(
            None if e is None or (i, e.numerator, e.denominator) in implied else e
            for i, e in enumerate(self.entries)))

    def __str__(self) -> str:
        return "[" + ",".join(self.to_strings()) + "]"
