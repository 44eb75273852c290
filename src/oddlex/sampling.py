"""Deterministic element generation: systematic windows and seeded samplers.

The window holds the carrier members whose coordinates stay inside a small
radius, ordered by size so that elements near the unit come first.  It is
built level by level: each level returns its capped rows ``((size, literal),
element, group_coords)``.  A pair takes its key and its group coordinates
from the rows of its components: sizes add, literals nest, and ``(x, y)``
gets ``cx + cy`` (None on the marker fibers and the global bounds), so no
element tree is walked twice.  A level builds ``Pair`` elements only for the
rows that survive its sort and cap.  One ``window_elements`` call computes
each component's rows once, in a dict passed down the recursion, so the
levels of a left-nested tower share their second chain's window.  A ``Z^k``
chain enumerates its box by whole L1 shells and stops after the shell that
reaches the cap.  The random sampler draws arbitrary carrier members with
seeded randomness; it builds group-part values in one ``Algebra._build``
pass, each coordinate drawn by its base chain's ``_draw``, and weighs a
product's clauses by the idempotent counts of its factors, so that every tau
value of a deep tower is drawn about evenly.  Both are pure functions of
their inputs, which keeps every verification run and countermodel search
reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import itemgetter
from .chains import Algebra, BaseAlgebra, BoundedAlgebra
from .elements import BOT_BOUND, BOT_MARKER, TOP_BOUND, TOP_MARKER, Elem, Pair, format_group_value
from .errors import ShapeError
from .groups import SubgroupDescriptor

# Sizes are exact integers counting twelfths: a marker or a global bound
# weighs 1/4, and window rationals have denominators 1..3.
_MARKER_SIZE = 3

# The weight of sample_elem's marker-on-Z clause, counted in tau values.
_MARKER_WEIGHT = 0.25

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
    return [e for _, e, _ in _window_rows(algebra, radius, cap, {})]


def _window_rows(algebra: Algebra, radius: int, cap: int, memo: dict) -> list:
    """The capped rows ``((size, literal), element, group_coords)`` of
    ``algebra``'s window; ``memo`` maps each algebra already done in this
    call to its rows."""
    rows = memo.get(algebra)
    if rows is None:
        rows = _candidate_rows(algebra, radius, cap, memo)
        rows.sort(key=itemgetter(0))
        memo[algebra] = rows = [(key, x if s is None else Pair(x, s), coords)
                                for key, x, s, coords in rows[:cap]]
    return rows


def _value_row(chain, value) -> tuple:
    coords = chain.coords(value)
    twelfths = Fraction(sum(map(abs, coords))) * 12
    if twelfths.denominator != 1:
        raise ShapeError(f"window value {value} has a denominator outside 1..3")
    return (twelfths.numerator, format_group_value(value)), value, None, coords


def _candidate_rows(algebra: Algebra, radius: int, cap: int, memo: dict) -> list:
    """Unsorted candidates ``(key, x, s, group_coords)`` that ``_window_rows``
    sorts and caps; the element is ``x`` when ``s`` is None, else ``Pair(x, s)``."""
    if isinstance(algebra, BaseAlgebra):
        return [_value_row(algebra, v) for v in algebra.window(radius, cap)]
    if isinstance(algebra, BoundedAlgebra):
        return [((_MARKER_SIZE, BOT_BOUND.value), BOT_BOUND, None, None),
                ((_MARKER_SIZE, TOP_BOUND.value), TOP_BOUND, None, None)] \
            + _candidate_rows(algebra.inner, radius, cap, memo)
    second_rows = _window_rows(algebra.second, radius, cap, memo)
    out: list = []
    for (size, lit), x, cx in _window_rows(algebra.first, radius, cap, memo):
        marked = size + _MARKER_SIZE
        if algebra.has_bot_marker:
            out.append(((marked, f"({lit}, B)"), x, BOT_MARKER, None))
            if cx is not None and algebra._zrel.contains_coords(cx):
                out.append(((marked, f"({lit}, T)"), x, TOP_MARKER, None))
        else:
            out.append(((marked, f"({lit}, T)"), x, TOP_MARKER, None))
        if cx is not None and algebra._vrel.contains_coords(cx):
            out.extend(((size + ysize, f"({lit}, {ylit})"), x, y,
                        None if cy is None else cx + cy)
                       for (ysize, ylit), y, cy in second_rows)
        if len(out) > 3 * cap:
            break
    return out


def sample_group_elem(algebra: Algebra, desc: SubgroupDescriptor, rng: random.Random) -> Elem:
    """A random group-part element satisfying the descriptor."""
    entries = iter(desc.entries)
    return algebra._build(lambda chain: chain._draw(rng, next(entries)))


def sample_elem(algebra: Algebra, rng: random.Random) -> Elem:
    """A random carrier member; every carrier clause has positive probability."""
    if isinstance(algebra, BaseAlgebra):
        return algebra._build(lambda chain: chain._draw(rng, None))
    if isinstance(algebra, BoundedAlgebra):
        roll = rng.random()
        if roll < 0.05:
            return BOT_BOUND
        if roll < 0.10:
            return TOP_BOUND
        return sample_elem(algebra.inner, rng)
    # Products.  Clause weights are counted in tau values: the (v, y) clause
    # alone lifts the second factor's c2 tau values, so it gets c2 of c1 + c2;
    # the marker-on-Z clause, whose tau values all lift the unit's, gets
    # _MARKER_WEIGHT; an arbitrary first component gets the rest.  So every
    # tau value is drawn about evenly, however deep it lies.
    first = algebra.first
    c1, c2 = first.idempotent_count, algebra.second.idempotent_count
    roll = rng.random() * (c1 + c2)
    if roll < c2:
        return Pair(sample_group_elem(first, algebra.vdesc, rng),
                    sample_elem(algebra.second, rng))
    if not algebra.has_bot_marker:
        return Pair(sample_elem(first, rng), TOP_MARKER)
    if roll < c2 + _MARKER_WEIGHT:
        return Pair(sample_group_elem(first, algebra.zdesc, rng),
                    TOP_MARKER if rng.random() < 0.5 else BOT_MARKER)
    return Pair(sample_elem(first, rng), BOT_MARKER)


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
