"""Element trees for iterated partial lexicographic products.

An element is a canonical group value of a base chain (an int tuple for
``Z^k``, a ``Fraction`` for ``Q``, ``()`` for the trivial group), a pair whose
second component is either another element or one of the fiber markers
``T``/``B`` (the top/bottom adjoined to the second factor of a product), or
one of the two global bounds of a bound-adjoined algebra.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .groups import GroupValue


class Marker(enum.Enum):
    """Fiber-level top/bottom markers inside a product's second component."""

    TOP = "T"
    BOT = "B"


class Bound(enum.Enum):
    """Global extremes of a bound-adjoined algebra."""

    TOP = "TOP"
    BOT = "BOT"


@dataclass(frozen=True)
class Pair:
    first: "Elem"
    second: Union["Elem", Marker]

    def __str__(self) -> str:
        return format_elem(self)


Elem = Union[GroupValue, Pair, Bound]
Second = Union[Elem, Marker]

TOP_BOUND = Bound.TOP
BOT_BOUND = Bound.BOT
TOP_MARKER = Marker.TOP  # plain names: ``Marker.TOP`` is a slow enum lookup on hot paths
BOT_MARKER = Marker.BOT


def format_group_value(v: GroupValue) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        if len(v) == 1:
            return str(v[0])
        return "<" + ",".join(str(c) for c in v) + ">"
    raise TypeError(f"not a group value: {v!r}")


def format_elem(e: Second) -> str:
    """Render an element in the literal grammar; inverse of ``parse_elem``."""
    if isinstance(e, Bound):
        return e.value
    if isinstance(e, Marker):
        return e.value
    if isinstance(e, Pair):
        return f"({format_elem(e.first)}, {format_elem(e.second)})"
    return format_group_value(e)
