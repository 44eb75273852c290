"""Deterministic element generation: systematic windows and seeded samplers.

The window holds the carrier members whose coordinates stay inside a small
radius, ordered by size so that elements near the unit come first.  It is
built level by level: each level returns its capped rows ``((size, literal),
element, group_coords)``.  A pair takes its key and its group coordinates
from the rows of its components: sizes add, literals nest, and ``(x, y)``
gets ``cx + cy`` (None on the marker fibers and the global bounds), so no
element tree is walked twice.  A level first lists its candidates' sizes
and finds the cap-th smallest; it formats literals, joins coordinates and
builds ``Pair`` elements only for the rows no larger than that, the rows the
cap keeps and the ties at the cutoff.  One ``window_elements`` call computes
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
from bisect import bisect_right
from operator import itemgetter
from .chains import Algebra, BaseAlgebra, BoundedAlgebra
from .elements import BOT_BOUND, BOT_MARKER, TOP_BOUND, TOP_MARKER, Elem, Pair, format_group_value
from .errors import ShapeError
from .groups import SubgroupDescriptor

# Sizes are exact integers counting twelfths: a marker or a global bound
# weighs 1/4, and window rationals have denominators 1..3.
_MARKER_SIZE = 3

# A product's marker rows: each marker with its letter in a literal.
_B, _T = ((BOT_MARKER, "B"),), ((TOP_MARKER, "T"),)
_BT = _B + _T

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
        sizes, rows_upto = _candidates(algebra, radius, cap, memo)
        # Only rows no larger than the cap-th smallest size can survive the cap.
        cutoff = sorted(sizes)[cap - 1] if len(sizes) > cap else max(sizes, default=0)
        rows = rows_upto(cutoff)
        rows.sort(key=itemgetter(0))
        memo[algebra] = rows = rows[:cap]
    return rows


def _candidates(algebra: Algebra, radius: int, cap: int, memo: dict) -> tuple:
    """The sizes of ``algebra``'s candidate rows, and a function that builds
    the candidate rows of size at most a given cutoff for ``_window_rows`` to
    sort and cap."""
    if isinstance(algebra, BaseAlgebra):
        values = algebra.window(radius, cap)
        coords = list(map(algebra.coords, values))
        sizes = list(map(_twelfths, coords))
        return sizes, lambda cutoff: [
            ((size, format_group_value(v)), v, c)
            for size, v, c in zip(sizes, values, coords) if size <= cutoff]
    if isinstance(algebra, BoundedAlgebra):
        sizes, inner_upto = _candidates(algebra.inner, radius, cap, memo)
        bounds = [((_MARKER_SIZE, b.value), b, None) for b in (BOT_BOUND, TOP_BOUND)]
        return [_MARKER_SIZE, _MARKER_SIZE, *sizes], lambda cutoff: (
            bounds if _MARKER_SIZE <= cutoff else []) + inner_upto(cutoff)
    # Which first rows pair at all is decided by count, as if every candidate
    # were built: the rows up to the one that passes 3 * cap candidates.
    second_rows = _window_rows(algebra.second, radius, cap, memo)
    ysizes = [size for (size, _), _, _ in second_rows]  # ascending
    in_z = algebra._zrel.contains_coords if algebra.has_bot_marker else None
    in_v = algebra._vrel.contains_coords
    sizes: list = []
    plan = []
    for (size, lit), x, cx in _window_rows(algebra.first, radius, cap, memo):
        markers = _T if in_z is None else _BT if cx is not None and in_z(cx) else _B
        paired = cx is not None and in_v(cx)
        plan.append((size, lit, x, cx, markers, paired))
        sizes += [size + _MARKER_SIZE] * len(markers)
        if paired:
            sizes += map(size.__add__, ysizes)
        if len(sizes) > 3 * cap:
            break

    def rows_upto(cutoff):
        out = []
        for size, lit, x, cx, markers, paired in plan:
            if size > cutoff:  # the first rows come smallest first
                break
            if size + _MARKER_SIZE <= cutoff:
                for marker, letter in markers:
                    out.append(((size + _MARKER_SIZE, f"({lit}, {letter})"), Pair(x, marker), None))
            if paired:
                for (ysize, ylit), y, cy in second_rows[:bisect_right(ysizes, cutoff - size)]:
                    out.append(((size + ysize, f"({lit}, {ylit})"), Pair(x, y),
                                None if cy is None else cx + cy))
        return out

    return sizes, rows_upto


def _twelfths(coords: tuple) -> int:
    if coords and type(coords[0]) is not int:  # the one coordinate of Q
        twelfths, rest = divmod(12 * abs(coords[0].numerator), coords[0].denominator)
        if rest:
            raise ShapeError(f"window value {coords[0]} has a denominator outside 1..3")
        return twelfths
    return 12 * sum(map(abs, coords))


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
