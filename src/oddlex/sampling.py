"""Deterministic element generation: systematic windows and seeded samplers.

These are the entry points; each algebra class generates its own elements
(see :mod:`oddlex.chains`), so nothing here dispatches on an algebra's shape.
The window holds the carrier members whose coordinates stay inside a small
radius, ordered by size so that elements near the unit come first; the
random sampler draws arbitrary carrier members with seeded randomness.  Both
are pure functions of their inputs, which keeps every verification run and
countermodel search reproducible.
"""

from __future__ import annotations

import random

from .chains import Algebra
from .elements import Elem
from .groups import SubgroupDescriptor

# How many pairs sample_distinct_pair draws before it gives up.
_TRIES = 64


def window_elements(algebra: Algebra, radius: int = 3, cap: int = 4000) -> list[Elem]:
    """Up to ``cap`` elements with coordinates in [-radius, radius], smallest first.

    Rational coordinates range over denominators 1..3.  An element's size is
    the sum of the absolute values of its coordinates, each marker and global
    bound counting 1/4; ties are broken by the literal.  On a base chain the
    result is the ``cap`` smallest elements of the box, so a smaller cap gives
    a prefix of a larger one.  A product pairs the capped windows of its
    components and stops pairing once it holds more than ``3 * cap``
    candidates, so there a smaller cap can drop or admit elements that a
    larger cap orders differently; the result is still sorted by size.
    """
    return [e for _, e, _ in algebra._window_rows(radius, cap, {})]


def sample_group_elem(algebra: Algebra, desc: SubgroupDescriptor, rng: random.Random) -> Elem:
    """A random group-part element satisfying the descriptor."""
    return algebra._sample_group(desc, rng)


def sample_elem(algebra: Algebra, rng: random.Random) -> Elem:
    """A random carrier member; every carrier clause has positive probability."""
    return algebra._sample(rng)


def sample_distinct_pair(algebra: Algebra, rng: random.Random):
    """A pair (x, y) with x < y, or None if sampling keeps colliding."""
    for _ in range(_TRIES):
        a = sample_elem(algebra, rng)
        b = sample_elem(algebra, rng)
        c = algebra._compare(a, b)
        if c < 0:
            return a, b
        if c > 0:
            return b, a
    return None
