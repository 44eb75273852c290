"""Element trees for iterated partial lexicographic products.

An element is a canonical group value of a base chain (an int tuple for
``Z^k``, a ``Fraction`` for ``Q``, ``()`` for the trivial group), a pair whose
second component is an element of the product's fiber (the second factor
with bounds adjoined), or one of the two bounds of a bound-adjoined algebra.
So one enum, :class:`Bound`, serves both: the fiber markers are the fiber's
bounds.  A bound prints ``T``/``B`` in a pair's second place and
``TOP``/``BOT`` anywhere else; products take no bound-adjoined operand, so a
bound inside a pair is always a fiber marker.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Union

from .groups import GroupValue


class Bound(enum.Enum):
    """The extremes of a bound-adjoined algebra, and a product's fiber markers."""

    TOP = "TOP"
    BOT = "BOT"


class Pair:
    """An immutable pair, compared and hashed as the tuple ``(first, second)``.

    A slotted class rather than a frozen dataclass: construction is the
    per-level constant of every operation on a deep tower.  ``__init__``
    stores through the slot descriptors, and assignment or deletion raises
    ``FrozenInstanceError`` as on the dataclass.  ``copy`` and ``pickle``
    rebuild a pair from ``__reduce__``; a deep copy is the pair itself, as for
    ``Fraction``, since nothing inside it can change, and copying a 300-level
    element node by node would exceed the recursion limit.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: "Elem", second: "Elem") -> None:
        _set_first(self, first)
        _set_second(self, second)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Pair:
            return NotImplemented
        return self.first == other.first and self.second == other.second

    def __hash__(self):
        return hash((self.first, self.second))

    def __repr__(self):
        return f"Pair(first={self.first!r}, second={self.second!r})"

    def __reduce__(self):
        return Pair, (self.first, self.second)

    def __deepcopy__(self, memo):
        return self

    def __str__(self) -> str:
        return format_elem(self)


_set_first = Pair.first.__set__
_set_second = Pair.second.__set__

Elem = Union[GroupValue, Pair, Bound]

TOP_BOUND = TOP_MARKER = Bound.TOP  # plain names: ``Bound.TOP`` is a slow enum lookup on hot paths
BOT_BOUND = BOT_MARKER = Bound.BOT


def format_group_value(v: GroupValue) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        if len(v) == 1:
            return str(v[0])
        return "<" + ",".join(map(str, v)) + ">"
    raise TypeError(f"not a group value: {v!r}")


def format_elem(e: Elem) -> str:
    """Render an element in the literal grammar; inverse of ``parse_elem``."""
    if isinstance(e, Bound):
        return e.value
    if isinstance(e, Pair):
        s = e.second  # a bound here is a fiber marker, spelled T/B
        second = s.value[0] if isinstance(s, Bound) else format_elem(s)
        return f"({format_elem(e.first)}, {second})"
    return format_group_value(e)
