"""Deterministic element generation: systematic windows and seeded samplers.

The window enumerates every carrier member whose coordinates stay inside a
small radius, ordered by size so that elements near the unit come first; the
random sampler draws arbitrary carrier members with seeded randomness.  Both
are pure functions of their inputs, which keeps every verification run and
countermodel search reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from .chains import Algebra, BaseAlgebra, BoundedAlgebra
from .elements import BOT_BOUND, TOP_BOUND, Bound, Elem, Leaf, Marker, Pair, format_elem
from .groups import SubgroupDescriptor


def _elem_size(e) -> Fraction:
    if isinstance(e, Bound):
        return Fraction(1, 4)
    if isinstance(e, Marker):
        return Fraction(1, 4)
    if isinstance(e, Leaf):
        v = e.value
        if isinstance(v, Fraction):
            return abs(v)
        return Fraction(sum(abs(c) for c in v))
    return _elem_size(e.first) + _elem_size(e.second)


def window_elements(algebra: Algebra, radius: int = 3, cap: int = 4000) -> list[Elem]:
    """Every element with coordinates in [-radius, radius], smallest first.

    Rational coordinates range over denominators 1..3.  The list is truncated
    to ``cap`` entries after sorting, so shrinking the cap never changes which
    small elements appear.
    """
    out = _window_all(algebra, radius, cap)
    out.sort(key=lambda e: (_elem_size(e), format_elem(e)))
    return out[:cap]


def _window_all(algebra: Algebra, radius: int, cap: int) -> list[Elem]:
    if isinstance(algebra, BaseAlgebra):
        return [Leaf(v) for v in algebra.chain.window(radius)]
    if isinstance(algebra, BoundedAlgebra):
        return [BOT_BOUND, TOP_BOUND] + _window_all(algebra.inner, radius, cap)
    first_window = window_elements(algebra.first, radius, cap)
    second_window = window_elements(algebra.second, radius, cap)
    out: list[Elem] = []
    for x in first_window:
        coords = algebra.first._group_coords(x)
        if algebra.has_bot_marker:
            out.append(Pair(x, Marker.BOT))
            if coords is not None and algebra.zdesc.contains_coords(coords):
                out.append(Pair(x, Marker.TOP))
        else:
            out.append(Pair(x, Marker.TOP))
        if coords is not None and algebra.vdesc.contains_coords(coords):
            out.extend(Pair(x, y) for y in second_window)
        if len(out) > 3 * cap:
            break
    return out


def sample_group_elem(algebra: Algebra,
                      desc: SubgroupDescriptor,
                      rng: random.Random,
                      magnitude: int = 8) -> Elem:
    """A random group-part element satisfying the descriptor."""
    coords = []
    for entry, kind in zip(desc.entries, algebra.ambient_kinds):
        if entry is None:
            if kind == "Q":
                coords.append(Fraction(rng.randint(-3 * magnitude, 3 * magnitude),
                                       rng.randint(1, magnitude)))
            else:
                coords.append(rng.randint(-magnitude, magnitude))
        elif entry == 0:
            coords.append(Fraction(0) if kind == "Q" else 0)
        else:
            k = rng.randint(-magnitude, magnitude)
            coords.append(entry * k if kind == "Q" else int(entry * k))
    return algebra._unflatten(tuple(coords))


def sample_elem(algebra: Algebra, rng: random.Random, magnitude: int = 8) -> Elem:
    """A random carrier member; every carrier clause has positive probability."""
    if isinstance(algebra, BaseAlgebra):
        return Leaf(algebra.chain.sample(rng, magnitude))
    if isinstance(algebra, BoundedAlgebra):
        roll = rng.random()
        if roll < 0.05:
            return BOT_BOUND
        if roll < 0.10:
            return TOP_BOUND
        return sample_elem(algebra.inner, rng, magnitude)
    # products
    roll = rng.random()
    if algebra.has_bot_marker:
        if roll < 0.45:
            return Pair(sample_group_elem(algebra.first, algebra.vdesc, rng, magnitude),
                        sample_elem(algebra.second, rng, magnitude))
        if roll < 0.65:
            return Pair(sample_group_elem(algebra.first, algebra.zdesc, rng, magnitude),
                        Marker.TOP if rng.random() < 0.5 else Marker.BOT)
        return Pair(sample_elem(algebra.first, rng, magnitude), Marker.BOT)
    if roll < 0.5:
        return Pair(sample_group_elem(algebra.first, algebra.vdesc, rng, magnitude),
                    sample_elem(algebra.second, rng, magnitude))
    return Pair(sample_elem(algebra.first, rng, magnitude), Marker.TOP)


def sample_distinct_pair(algebra: Algebra, rng: random.Random,
                         magnitude: int = 8, tries: int = 64):
    """A pair (x, y) with x < y, or None if sampling keeps colliding."""
    for _ in range(tries):
        a = sample_elem(algebra, rng, magnitude)
        b = sample_elem(algebra, rng, magnitude)
        c = algebra._compare(a, b)
        if c < 0:
            return a, b
        if c > 0:
            return b, a
    return None
