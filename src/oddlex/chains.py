"""Odd involutive residuated chains closed under partial lexicographic products.

An :class:`Algebra` describes a chain together with its monoidal operation,
residual negation, residuum and the derived structure (group part, covers,
unit-preserving tau map).  Three shapes exist:

* the base chains -- a linearly ordered abelian group already is an odd chain
  (``* = +``, ``neg = -``, ``t = f = 0``), so :class:`ZLex` (``Z^k`` in lex
  order), :class:`QChain` (the rationals) and :class:`Trivial` (the
  one-element group) are algebras themselves, subclasses of the field-less
  :class:`BaseAlgebra`; their elements are the group's canonical values (an
  int tuple, a ``Fraction``, ``()``);
* :class:`PlpAlgebra` -- a type I/II/III/IV partial lexicographic product of a
  chain and a second chain; its second components live in the fiber
  ``adjoin_bounds(second)``, whose bounds are the top/bottom markers ``T``/``B``;
* :class:`BoundedAlgebra` -- a chain with two global bounds adjoined, the top
  added first as an annihilator and the bottom added second (so the bottom
  dominates the top under multiplication).

All values are immutable and every operation is pure.  Validation happens
once, where values enter: the public operations (``compare``, ``mult``,
``neg``, ``cover_up``, ...) check carrier membership of their operands and
raise :class:`MembershipError` otherwise, and carrier membership checks the
canonical form of every group value.  They are the only checked boundary.
The ``_``-prefixed variants trust their operands and skip validation all the
way down, to the base chains' ``_mult``/``_invert``/``_cover_up``.  They are
used for recursion into components and on values validated earlier (formula
evaluation, the samplers, the suites).  The residuum
``a -> b = neg(a * neg b)`` has one raw form, :meth:`Algebra._residuum`, with
``_tau(a) = a -> a``.  Group-part elements are built the same trusted way, in
one pass: :meth:`Algebra._build` pairs the builds of a product's factors,
defers through the bounds, and lets each base chain ask its ``take`` for its
coordinates in order.  A base chain also owns its coordinates (``coords``,
``_coord`` for an integer coordinate) and its seeded per-coordinate draw
(``_draw`` inside a descriptor entry: ``*``, ``0`` or the multiples of ``p/q``).

Each class generates its own elements for :mod:`oddlex.sampling`:
:meth:`Algebra._sample` picks a carrier clause at random, and
:meth:`Algebra._sample_group` draws a group-part element in one ``_build``.
The window is built level by level, as far as it is asked for:
:meth:`Algebra._window` gives each algebra of one window one state, so the
levels of a left-nested tower share their second chain's rows.  A state
holds the rows ``((size, literal), element, group_coords)`` given so far, in
(size, literal) order, and gives the next size's rows when asked
(``grow``); forcing every row (``fill``) is growing until none is left.  A
base chain sizes the values of its ``window`` with ``_twelfths`` up front
and formats them a size at a time; bounds adjoined to an algebra are two
more candidates of its window, at the size of a marker.  A product joins
its first factor's rows in order, until the ``3 * cap`` break, and pairs
them with its second factor's rows: sizes add, literals nest, ``(x, y)``
gets ``cx + cy``, so no element tree is walked twice.  Since the rows come
by size, a size never reorders those given before it, and a product grows
its first factor only until no row still to come there can be as small as
the size asked for (``floor``), and its second factor only as far as some
pair reaches.  A level so builds only the rows no larger than the last size
asked of it, the ties at that size included: a search stopped early builds
each level only up to the sizes it reached, and a full force builds only
the rows the cap keeps and the ties at the cap-th size.

The order is one flat key per element, :meth:`Algebra._key`, compared natively
by :meth:`Algebra._compare` and by every sort: a base-chain element ``v`` has
``(v,)``; the bounds give ``(0,)``, ``(1, *key)``, ``(2,)``; a pair ``(x, s)``
has ``key(x)`` followed by the fiber's key of ``s``, so ``(x, B)``, ``(x, y)``,
``(x, T)`` end in ``0``, ``1, *key(y)``, ``2``.  No key is a proper prefix of
another, so equal keys mean equal elements.

Each class owns its order witnesses: next to the covers ``_cover_up`` and
``_cover_down``, ``_below(e)``/``_above(e)`` give an element strictly below or
above ``e`` and ``_between(x, y)`` one strictly between ``x < y``, each None
where the order has none (a bound; ``y`` covering ``x``).

Single-walk contract: each element operation and each membership test visits
each node of an element tree O(1) times.  A product level that tests its first
component's group-part coordinates takes them from the recursion that negates
or checks that component (:meth:`Algebra._neg_coords`, ``_group_coords``).
One operation collects them in one buffer, and each level tests only the
entries its first factor's group part does not imply (``_zrel``/``_vrel``).
The oddness gate :meth:`Algebra.rank` still negates the real operand's unit.
"""

from __future__ import annotations

import enum
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Optional

from .elements import (BOT_BOUND, BOT_MARKER, TOP_BOUND, TOP_MARKER, Bound, Elem, Pair, format_elem,
                       format_group_value)
from .errors import MembershipError, PreconditionViolation, ShapeError, UndefinedCover
from .groups import Entry, GroupValue, SubgroupDescriptor, _l1_shell

_ZERO = Fraction(0)  # the unit of Q, shared: an equal-key compare with it stops at identity


class PlpKind(enum.Enum):
    III = "III"
    IV = "IV"


# Plain names, as TOP_MARKER: ``PlpKind.III`` is a slow enum lookup on hot paths.
_III, _IV = PlpKind.III, PlpKind.IV

# The seeded draws' bound: an integer coordinate lies in [-_MAGNITUDE, _MAGNITUDE],
# a rational one is p/q with |p| <= 3 * _MAGNITUDE and 1 <= q <= _MAGNITUDE.
_MAGNITUDE = 8

# The random sampler's rate of a global bottom, and then of a global top, and
# the weight of a product's marker-on-Z clause, counted in tau values.
_BOUND_RATE, _MARKER_WEIGHT = 0.05, 0.25

# Window sizes are exact integers counting twelfths: a marker or a global bound
# weighs 1/4, and window rationals have denominators 1..3.  A product's marker
# rows pair each marker with its letter in a literal.
_MARKER_SIZE = 3
_B, _T = ((BOT_MARKER, "B"),), ((TOP_MARKER, "T"),)
_BT = _B + _T
_BOUND_ROWS = [((_MARKER_SIZE, b.value), b, None) for b in (BOT_BOUND, TOP_BOUND)]
_ROW_KEY = operator.itemgetter(0)
_UNKNOWN = object()  # a window's next size, not yet worked out
_ANY, _AS_Z = object(), object()  # a product window's membership tests, see _PlpWindow


class _Window:
    """The window of one algebra: its rows ``((size, literal), element,
    group_coords)`` in (size, literal) order, capped at ``cap``, given as they
    are asked for.

    ``rows`` holds the rows given so far: every row of the window no larger
    than the last size given.  Since the rows come by size, a size never
    reorders the rows given before it.  ``ends[k]`` is where the rows of the
    k-th size given end.
    """

    cap: int
    rows: list
    ends: list

    def floor(self) -> Optional[int]:
        """A size that no row still to be given is below, found without
        building any row; None once every row is given."""
        raise NotImplementedError

    def next_size(self) -> Optional[int]:
        """The size of the rows :meth:`grow` gives next, found without
        building any of them; None once every row is given."""
        raise NotImplementedError

    def grow(self) -> bool:
        """Give the rows of the next size; False if none is left."""
        raise NotImplementedError

    def length(self) -> int:
        """How many rows the window holds once every row is given."""
        raise NotImplementedError

    def fill(self) -> list:
        """Give every row; the rows."""
        while self.grow():
            pass
        return self.rows

    def _give(self, batch: list) -> None:
        batch.sort(key=_ROW_KEY)
        del batch[self.cap - len(self.rows):]  # the ties past the cap
        self.rows += batch
        self.ends.append(len(self.rows))


class _BaseWindow(_Window):
    """A base chain's window: the values of its ``window``, which lists them
    by ascending size, sized up front and formatted as they are asked for,
    with the rows ``extra`` (a bounded chain's bounds) among them."""

    def __init__(self, chain, radius, cap, extra):
        self.cap, self.rows, self.ends = cap, [], []
        self._chain = chain
        self._values = chain.window(radius, cap)
        self._sizes = list(map(chain._twelfths, self._values))
        self._extra = sorted(extra, key=_ROW_KEY)
        self._at = self._extra_at = 0  # values and extra rows given
        self._find_next()

    def _find_next(self):
        """Work out the next size: the values come by size."""
        size = self._sizes[self._at] if self._at < len(self._sizes) else None
        if self._extra_at < len(self._extra):
            bound = self._extra[self._extra_at][0][0]
            size = bound if size is None or bound < size else size
        self._next = None if len(self.rows) >= self.cap else size

    def next_size(self):
        return self._next

    floor = next_size  # exact: the values come by size

    def length(self):
        return min(self.cap, len(self._values) + len(self._extra))

    def grow(self):
        size = self._next
        if size is None:
            return False
        lo, self._at = self._at, bisect_right(self._sizes, size, self._at)
        coords = self._chain.coords
        batch = [((size, format_group_value(v)), v, coords(v)) for v in self._values[lo:self._at]]
        for row in self._extra[self._extra_at:]:
            if row[0][0] > size:
                break
            batch.append(row)
            self._extra_at += 1
        self._give(batch)
        self._find_next()
        return True


class Algebra:
    """Shared derived operations; concrete carriers subclass this."""

    def __getstate__(self):
        # A cached hash is only valid in the process that computed it.
        state = dict(vars(self))
        state.pop("_hash", None)
        return state

    # -- carrier ---------------------------------------------------------

    def contains(self, e: Elem) -> bool:
        raise NotImplementedError

    def ensure_member(self, *elems: Elem) -> None:
        for e in elems:
            if not self.contains(e):
                try:
                    shown = format_elem(e)
                except TypeError:  # something that is no element at all
                    shown = repr(e)
                raise MembershipError(f"{shown} is not an element of {self}")

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
        return self._residuum(a, b)

    def tau(self, a: Elem) -> Elem:
        """``a -> a``; its range is exactly the positive idempotents."""
        self.ensure_member(a)
        return self._tau(a)

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
            raise UndefinedCover(f"{format_elem(a)} lies outside the group part of {self}")

    # -- structural recursion ------------------------------------------------

    def _compare(self, a: Elem, b: Elem) -> int:
        ka, kb = self._key(a), self._key(b)
        return 0 if ka == kb else 1 if ka > kb else -1  # one scan when equal

    def _key(self, e: Elem) -> tuple:
        """Flat, prefix-free order key of ``e``; native tuple order is the chain order."""
        items: list = []
        self._key_into(e, items.append)
        return tuple(items)

    def _key_into(self, e: Elem, add) -> None:
        """Feed the items of ``e``'s key to ``add`` in order; one list serves the whole tree."""
        raise NotImplementedError

    def _mult(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def _neg(self, a: Elem) -> Elem:
        return self._neg_coords(a, None)[0]

    def _residuum(self, a: Elem, b: Elem) -> Elem:
        return self._neg(self._mult(a, self._neg(b)))

    def _tau(self, a: Elem) -> Elem:
        return self._residuum(a, a)

    def _neg_coords(self, a: Elem, out: Optional[list]) -> tuple[Elem, bool]:
        """``neg a`` and whether ``a`` is in the group part; ``a``'s coordinates
        go to ``out``, the operation's one buffer (None: no level above tests
        them).  Each level tests only the entries its first factor's group part
        does not imply; :meth:`rank` runs this on the real operand's unit."""
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

    def _build(self, take) -> Elem:
        """The group-part element whose coordinates, in order, are the trusted
        answers of ``take(chain)``, asked of the base chain owning each."""
        raise NotImplementedError

    # -- element generation ------------------------------------------------

    def _sample(self, rng: random.Random) -> Elem:
        """A random carrier member; every carrier clause has positive probability."""
        raise NotImplementedError

    def _sample_group(self, desc: SubgroupDescriptor, rng: random.Random) -> Elem:
        """A random group-part element satisfying ``desc``, drawn in one build."""
        entries = iter(desc.entries)
        return self._build(lambda chain: chain._draw(rng, next(entries)))

    def _window(self, radius: int, cap: int, memo: dict) -> _Window:
        """The window of this algebra; ``memo`` maps each algebra already met in
        this window to its window, so the levels of a left-nested tower share
        their second chain's."""
        window = memo.get(self)
        if window is None:
            window = memo[self] = self._new_window(radius, cap, memo, [])
        return window

    def _new_window(self, radius: int, cap: int, memo: dict, extra: list) -> _Window:
        """A window of this algebra with the rows ``extra`` among its candidates."""
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
        """None when dense, else a description of the first covering source.

        An order is dense iff every covering pair lies in the group part and
        the group part has none, i.e. is not discretely embedded.
        """
        reason = self._cover_obstruction
        if reason is None and self.grpart_discretely_embedded:
            return f"group part of {self} is discretely ordered"
        return reason

    @property
    def _cover_obstruction(self) -> Optional[str]:
        """Why some covering pair of the order leaves the group part, or None."""
        raise NotImplementedError

    @property
    def idempotent_count(self) -> int:
        """Number of positive idempotents (equivalently, distinct tau values)."""
        raise NotImplementedError


class BaseAlgebra(Algebra):
    """A linearly ordered abelian group as an odd chain: ``* = +``,
    ``neg = -``, ``t = f = 0``.  The three chains below subclass it; each
    element is one of the group's canonical values."""

    def _key_into(self, e, add):
        add(e)

    def _neg_coords(self, a, out):
        if out is not None:
            out.extend(self.coords(a))
        return self._invert(a), True

    def _group_coords(self, e):
        return self.coords(e) if self.contains(e) else None

    def _sample(self, rng):
        return self._build(lambda chain: chain._draw(rng, None))

    def _new_window(self, radius, cap, memo, extra):
        return _BaseWindow(self, radius, cap, extra)

    def _twelfths(self, v) -> int:
        return 12 * sum(map(abs, v))

    @cached_property
    def group_part_descriptor(self):
        return SubgroupDescriptor.full(len(self.ambient_kinds))

    @property
    def is_unbounded(self):
        return bool(self.ambient_kinds)  # only the one-element chain has no coordinates

    _cover_obstruction = None
    idempotent_count = 1


@dataclass(frozen=True)
class ZLex(BaseAlgebra):
    """The group Z^dim with lexicographic order; discretely ordered."""

    dim: int
    grpart_discretely_embedded = True

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("ZLex rank must be >= 1 (use Trivial for rank 0)")

    def contains(self, e):
        return (isinstance(e, tuple) and len(e) == self.dim
                and all(type(c) is int for c in e))

    def unit(self):
        return (0,) * self.dim

    @cached_property
    def ambient_kinds(self):
        return ("Z",) * self.dim

    def coords(self, a: tuple) -> tuple:
        return a

    _coord = int

    @cached_property
    def _selves(self) -> tuple:
        return (self,) * self.dim

    def _build(self, take) -> tuple:
        return tuple(map(take, self._selves))

    def _draw(self, rng: random.Random, entry: Entry) -> int:
        # rng.randrange(2m + 1) - m is what rng.randint(-m, m) reduces to: the same bits
        if entry is None:
            return rng.randrange(2 * _MAGNITUDE + 1) - _MAGNITUDE
        if not entry:
            return 0
        # (p/q)Z meets Z in pZ
        return entry.numerator * (rng.randrange(2 * _MAGNITUDE + 1) - _MAGNITUDE)

    def _mult(self, a, b):
        return tuple(map(operator.add, a, b))

    def _invert(self, a: tuple) -> tuple:
        return tuple(map(operator.neg, a))

    def _cover_up(self, a):
        # The unique upper cover in lex order bumps the last coordinate.
        return a[:-1] + (a[-1] + 1,)

    def _cover_down(self, a):
        return a[:-1] + (a[-1] - 1,)

    # The nearest strict witnesses of a discrete chain are its covers.
    _below, _above = _cover_down, _cover_up

    def _between(self, x, y):
        nxt = self._cover_up(x)
        return None if nxt == y else nxt

    def window(self, radius: int, cap: int) -> list:
        """Vectors in the box [-radius, radius]^dim, by whole L1 shells.

        Shells 0, 1, 2, ... are added until the list holds at least ``cap``
        vectors, so it contains the ``cap`` vectors of least L1 norm without
        building the rest of the box.
        """
        out: list = []
        for norm in range(self.dim * radius + 1):
            if len(out) >= cap:
                break
            out.extend(_l1_shell(self.dim, norm, radius))
        return out

    def __str__(self):
        return "Z" if self.dim == 1 else f"Z^{self.dim}"


@dataclass(frozen=True)
class QChain(BaseAlgebra):
    """The rationals with their natural order; densely ordered."""

    ambient_kinds = ("Q",)
    grpart_discretely_embedded = False

    def contains(self, e):
        return isinstance(e, Fraction)  # rationals are stored as Fraction

    def unit(self):
        return _ZERO

    def coords(self, a: Fraction) -> tuple:
        return (a,)

    _coord = Fraction

    def _build(self, take) -> Fraction:
        return take(self)

    def _draw(self, rng: random.Random, entry: Entry) -> Fraction:
        if entry is None:
            return Fraction(rng.randrange(6 * _MAGNITUDE + 1) - 3 * _MAGNITUDE,
                            rng.randrange(_MAGNITUDE) + 1)
        if not entry:
            return _ZERO
        return entry * (rng.randrange(2 * _MAGNITUDE + 1) - _MAGNITUDE)

    def _mult(self, a, b):
        return a + b

    def _invert(self, a: Fraction) -> Fraction:
        return a if a is _ZERO else -a  # identity test: Fraction.__bool__ is Python code

    def _below(self, e):
        return e - 1

    def _above(self, e):
        return e + 1

    def _between(self, x, y):
        return (x + y) / 2

    def window(self, radius: int, cap: int) -> list:
        # O(radius) values: the whole box, whatever the cap, by (abs(v), v).
        # In sixths, a denominator 1..3 is a numerator even or divisible by 3.
        return [_ZERO] + [Fraction(k, 6) for m in range(1, 6 * radius + 1)
                          if m % 2 == 0 or m % 3 == 0 for k in (-m, m)]

    def _twelfths(self, v: Fraction) -> int:
        twelfths, rest = divmod(12 * abs(v.numerator), v.denominator)
        if rest:
            raise ShapeError(f"window value {v} has a denominator outside 1..3")
        return twelfths

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class Trivial(BaseAlgebra):
    """The one-element group, represented by the empty integer vector."""

    ambient_kinds = ()
    grpart_discretely_embedded = False

    def contains(self, e):
        return e == ()

    def unit(self):
        return ()

    def coords(self, a: tuple) -> tuple:
        return ()

    def _build(self, take) -> tuple:
        return ()

    def _mult(self, *values: tuple) -> tuple:
        return ()

    _invert = _mult

    def _below(self, *values: tuple) -> None:
        return None  # one element: nothing lies strictly beside it

    _above = _between = _below

    def window(self, radius: int, cap: int) -> list:
        return [()]

    def __str__(self):
        return "1"


class _PlpWindow(_Window):
    """A product's window, paired from its factors' windows a size at a time.

    The first factor's rows join in order, each with its marker rows and, if
    it lies in V, one pair with every row of the second factor, until more
    than ``3 * cap`` candidates have joined.  The count takes the second
    window's ``length``, so the break falls where it would if every candidate
    were built.  Joined rows of one size form a group.  A heap holds, per
    group, the size of its marker rows (its size plus ``_MARKER_SIZE``) and
    of its next pairs (its size plus the second window's next size), so a
    size builds only the rows of that size, and the second window grows only
    as far as some pair needs it.  A first row is never smaller than the
    first factor's floor, nor is any row it joins into, so the first factor
    grows only until its floor passes the size asked for.
    """

    def __init__(self, algebra, radius, cap, memo, extra):
        self.cap, self.rows, self.ends = cap, [], []
        self._first = algebra.first._window(radius, cap, memo)
        self._second = algebra.second._window(radius, cap, memo)
        # The first rows' membership tests: _ANY for a descriptor that constrains
        # nothing, _AS_Z for V where it is Z; no Z test in a type IV product.
        zrel, vrel = (algebra._zrel if algebra.kind is _III else None), algebra._vrel
        self._in_z = None if zrel is None else zrel.contains_coords if zrel.constrained else _ANY
        self._in_v = (_ANY if not vrel.constrained else _AS_Z if vrel == zrel
                      else vrel.contains_coords)
        self._joined = 0  # first rows joined
        self._candidates = 0  # of the joined rows, for the 3 * cap break
        self._open = True  # more first rows may join
        # Each group is (size, [(literal, x, markers)], [(literal, x, cx) in V]).
        self._groups: list = []
        self._ycount = self._ymin = None  # the second window's length and first size, once read
        self._extra = extra  # rows given whole: a bounded algebra's bounds
        # Heap of (size, group, k): the group's marker rows if k < 0, else its
        # pairs with the second window's rows of its k-th size; extra[k] if group < 0.
        self._due = [(row[0][0], -1, k) for k, row in enumerate(extra)]
        heapify(self._due)
        self._next = _UNKNOWN  # the next size, once worked out
        self._below = 0  # the first window's floor when last asked

    def _join(self):
        """Join the first rows given so far, up to the break, and queue the
        rows of their groups."""
        if self._ycount is None:
            second = self._second
            self._ycount = second.length()
            self._ymin = second.rows[0][0][0] if second.rows else second.next_size()
        in_z, in_v, limit, groups, due = self._in_z, self._in_v, 3 * self.cap, self._groups, self._due
        ycount, ymin = self._ycount, self._ymin
        joined, count, gsize = self._joined, self._candidates, None
        for (size, lit), x, cx in self._first.rows[joined:]:
            joined += 1
            if size != gsize:
                gsize, marked, paired = size, [], []
                heappush(due, (size + _MARKER_SIZE, len(groups), -1))
                groups.append((size, marked, paired))
            # Outside the group part (cx None), a row lies in neither Z nor V.
            z = cx is not None and (in_z is _ANY or in_z is not None and in_z(cx))
            markers = _BT if z else _B if in_z else _T
            marked.append((lit, x, markers))
            count += len(markers)
            if cx is not None and (in_v is _ANY or (z if in_v is _AS_Z else in_v(cx))):
                if not paired and ymin is not None:
                    heappush(due, (size + ymin, len(groups) - 1, 0))
                paired.append((lit, x, cx))
                count += ycount
            if count > limit:
                self._open = False
                break
        self._joined, self._candidates = joined, count

    def length(self):
        if self._open:
            self._first.fill()
            self._join()
        return min(self.cap, self._candidates + len(self._extra))

    def next_size(self):
        size = self._next
        if size is _UNKNOWN:
            first, due = self._first, self._due
            while len(self.rows) < self.cap:
                if self._open and self._joined < len(first.rows):
                    self._join()
                size = due[0][0] if due else None
                if not self._open or size is not None and size < self._below:
                    break
                # A floor stays a floor as rows are given: ask again only when past it.
                self._below = below = first.floor()
                if below is None:  # every first row is joined
                    self._open = False
                    break
                if size is not None and size < below:
                    break
                first.grow()  # a first row of that size may pair with a second row of size 0
            else:
                size = None
            self._next = size
        return size

    def floor(self):
        if self._next is not _UNKNOWN or len(self.rows) >= self.cap:
            return self.next_size()
        if self._open and self._joined < len(self._first.rows):
            self._join()
        size = self._due[0][0] if self._due else None
        below = self._first.floor() if self._open else None
        return below if size is None else size if below is None or size < below else below

    def grow(self):
        size = self._next
        if size is _UNKNOWN:
            size = self.next_size()
        if size is None:
            return False
        due, groups, second, batch = self._due, self._groups, self._second, []
        ends = second.ends
        while due and due[0][0] == size:
            _, g, k = heappop(due)
            if g < 0:
                batch.append(self._extra[k])
            elif k < 0:
                batch += [((size, f"({lit}, {letter})"), Pair(x, marker), None)
                          for lit, x, markers in groups[g][1] for marker, letter in markers]
            else:
                gsize, _, paired = groups[g]
                if k == len(ends):
                    second.grow()  # its next size: this one less gsize
                hi = ends[k]
                batch += [((size, f"({lit}, {ylit})"), Pair(x, y), None if cy is None else cx + cy)
                          for lit, x, cx in paired
                          for (_, ylit), y, cy in second.rows[ends[k - 1] if k else 0:hi]]
                ysize = second.rows[hi][0][0] if k + 1 < len(ends) else second.next_size()
                if ysize is not None:
                    heappush(due, (gsize + ysize, g, k + 1))
        self._give(batch)
        self._next = _UNKNOWN
        return True


@dataclass(frozen=True)
class PlpAlgebra(Algebra):
    """A partial lexicographic product.

    ``kind`` is III or IV; the classical type I (resp. II) products are the
    degenerate cases ``vdesc == zdesc`` (resp. ``vdesc`` = the whole group
    part), recognised by :attr:`display_kind`.  Carriers:

    * III: ``(V x (Y+{T,B})) | ((Z\\V) x {T,B}) | ((X\\Z) x {B})``
    * IV:  ``(X x {T}) | (V x Y)``

    A second component is an element of the fiber ``adjoin_bounds(second)``,
    whose bounds are the markers ``T``/``B``.  Multiplication is coordinatewise,
    in the fiber on the second component (so ``B`` dominates ``T``); negation
    is first-componentwise, negating the second component in the fiber, with
    the cover shift on top-marked group elements for type IV.
    """

    kind: PlpKind
    first: Algebra
    zdesc: Optional[SubgroupDescriptor]
    vdesc: SubgroupDescriptor
    second: Algebra

    # Hashed once: the generated hash rehashes the whole tower below on every
    # lookup.  Equality stays the generated field-by-field one.
    _hash = cached_property(lambda self: hash((self.kind, self.first, self.zdesc,
                                               self.vdesc, self.second)))

    def __hash__(self):
        return self._hash

    @property
    def has_bot_marker(self) -> bool:
        return self.kind is _III

    @cached_property
    def display_kind(self) -> str:
        if self.kind is _III:
            return "I" if self.zdesc == self.vdesc else "III"
        return "II" if self.vdesc == self.first.group_part_descriptor else "IV"

    # -- carrier ------------------------------------------------------------

    # Z and V less the entries that the first factor's group part already implies
    _zrel = cached_property(lambda self: self.zdesc.relative_to(self.first.group_part_descriptor))
    _vrel = cached_property(lambda self: self.vdesc.relative_to(self.first.group_part_descriptor))

    def _in_subgroup(self, rel: SubgroupDescriptor, x: Elem) -> bool:
        coords = self.first._group_coords(x)
        return coords is not None and rel.contains_coords(coords)

    def contains(self, e):
        # Having group coordinates implies membership: each branch walks x once.
        if not isinstance(e, Pair):
            return False
        x, s = e.first, e.second
        if s is BOT_MARKER or (s is TOP_MARKER and self.kind is _IV):
            return (s is TOP_MARKER or self.has_bot_marker) and self.first.contains(x)
        if s is TOP_MARKER:
            return self._in_subgroup(self._zrel, x)
        return self._in_subgroup(self._vrel, x) and self.second.contains(s)

    @cached_property
    def _unit(self):
        return Pair(self.first.unit(), self.second.unit())

    def unit(self):
        return self._unit

    # -- order ---------------------------------------------------------------

    @cached_property
    def _fiber(self) -> "BoundedAlgebra":
        return adjoin_bounds(self.second)

    def _key_into(self, e, add):
        # The fiber's key, BoundedAlgebra._key_into, inlined: this is the hottest op.
        self.first._key_into(e.first, add)
        s = e.second
        if s is BOT_MARKER:
            add(0)
        elif s is TOP_MARKER:
            add(2)
        else:
            add(1)
            self.second._key_into(s, add)

    # -- operations -------------------------------------------------------------

    def _mult(self, a, b):
        return Pair(self.first._mult(a.first, b.first),
                    self._fiber._mult(a.second, b.second))

    def _neg_coords(self, a, out):
        # Type III tests x's coordinates in the caller's buffer, or a new one if
        # _zrel constrains any; type IV tests none.  A member (x, y) has x in V.
        x, s = a.first, a.second
        if self.kind is _III:
            buf = [] if out is None and self._zrel.constrained else out
            start = 0 if buf is None else len(buf)
            nx, g = self.first._neg_coords(x, buf)
            if not g or buf is not None and not self._zrel.contains_coords(buf, start):
                return Pair(nx, BOT_MARKER), False
        elif s is TOP_MARKER:  # type IV: carrier is (X x {T}) | (V x Y)
            nx, g = self.first._neg_coords(x, None)
            return Pair(self.first._cover_down(nx) if g else nx, TOP_MARKER), False
        else:
            nx, _ = self.first._neg_coords(x, out)
        ns, g = self._fiber._neg_coords(s, out)
        return Pair(nx, ns), g

    def _cover_up(self, a):
        return Pair(a.first, self.second._cover_up(a.second))

    def _cover_down(self, a):
        return Pair(a.first, self.second._cover_down(a.second))

    def _on_free_marker(self, x: Optional[Elem]) -> Optional[Elem]:
        """``x`` paired with the marker every first component takes (B for III, T for IV)."""
        return None if x is None else Pair(x, BOT_MARKER if self.has_bot_marker else TOP_MARKER)

    def _below(self, e):
        return self._on_free_marker(self.first._below(e.first))

    def _above(self, e):
        return self._on_free_marker(self.first._above(e.first))

    def _between(self, x, y):
        a, s = x.first, x.second
        b, u = y.first, y.second
        if self.first._compare(a, b) < 0:
            mid = self.first._between(a, b)
            if mid is not None:
                return self._on_free_marker(mid)
            # b covers a in the first component: squeeze into the boundary fibers
            if self.has_bot_marker:
                if s is not TOP_MARKER and self._in_subgroup(self._zrel, a):
                    return Pair(a, TOP_MARKER)
                if u is not BOT_MARKER:
                    return Pair(b, BOT_MARKER)
                return None
            if s is not TOP_MARKER:
                return Pair(a, TOP_MARKER)
            return self._between_in_fiber(b, BOT_MARKER, u)  # below u over b
        return self._between_in_fiber(a, s, u)

    def _between_in_fiber(self, a: Elem, s: Elem, u: Elem) -> Optional[Elem]:
        """``(a, w)`` with ``s < w < u`` in the fiber over ``a``, or None."""
        if s is BOT_MARKER and not self._in_subgroup(self._vrel, a):
            return None  # marker-only fiber
        w = self._fiber._between(s, u)
        return None if w is None else Pair(a, w)

    # -- group part ----------------------------------------------------------

    def _group_coords(self, e):
        if not isinstance(e, Pair) or isinstance(e.second, Bound):
            return None
        cx = self.first._group_coords(e.first)
        if cx is None or not self._vrel.contains_coords(cx):
            return None
        cs = self.second._group_coords(e.second)
        return None if cs is None else cx + cs

    def _build(self, take):
        return Pair(self.first._build(take), self.second._build(take))

    def _sample(self, rng):
        # Clause weights are counted in tau values: the (v, y) clause alone
        # lifts the second factor's c2 tau values, so it gets c2 of c1 + c2;
        # the marker-on-Z clause, whose tau values all lift the unit's, gets
        # _MARKER_WEIGHT; an arbitrary first component gets the rest.  So every
        # tau value is drawn about evenly, however deep it lies.
        first = self.first
        c1, c2 = first.idempotent_count, self.second.idempotent_count
        roll = rng.random() * (c1 + c2)
        if roll < c2:
            return Pair(first._sample_group(self.vdesc, rng), self.second._sample(rng))
        if self.kind is _IV:
            return Pair(first._sample(rng), TOP_MARKER)
        if roll < c2 + _MARKER_WEIGHT:
            return Pair(first._sample_group(self.zdesc, rng),
                        TOP_MARKER if rng.random() < 0.5 else BOT_MARKER)
        return Pair(first._sample(rng), BOT_MARKER)

    def _new_window(self, radius, cap, memo, extra):
        return _PlpWindow(self, radius, cap, memo, extra)

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

    @cached_property
    def _cover_obstruction(self):
        # Type III: a cover a < b of the first component leaves a covering
        # pair of marker elements, (a, T) or (a, B) below (b, B).  Type IV:
        # the fiber over b fills the gap exactly when b lies in V.
        name = self.display_name()
        if self.kind is _III:
            if self.zdesc != self.vdesc:
                return (f"{self} keeps marker-only fibers over Z\\V, "
                        "which are two-element and hence not dense")
            inner = self.first.density_obstruction()
            if inner is not None:
                return f"first component of {name}: {inner}"
        else:
            inner = self.first._cover_obstruction
            if inner is not None:
                return f"first component of {name}: {inner}"
            if not (self.first.is_dense
                    or self.first.group_part_descriptor.refines(self.vdesc)):
                return (f"first component of {name} has covers "
                        "whose fibers carry only the top marker")
        if not self.second.is_unbounded:
            return f"second component of {name} is bounded"
        inner = self.second._cover_obstruction
        return None if inner is None else f"second component of {name}: {inner}"

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

    _hash = cached_property(lambda self: hash((self.inner,)))  # as on PlpAlgebra

    def __hash__(self):
        return self._hash

    def contains(self, e):
        if isinstance(e, Bound):
            return True
        return self.inner.contains(e)

    def unit(self):
        return self.inner.unit()

    def _key_into(self, e, add):
        if e is BOT_BOUND:
            add(0)
        elif e is TOP_BOUND:
            add(2)
        else:
            add(1)
            self.inner._key_into(e, add)

    def _mult(self, a, b):
        if a is BOT_BOUND or b is BOT_BOUND:
            return BOT_BOUND
        if a is TOP_BOUND or b is TOP_BOUND:
            return TOP_BOUND
        return self.inner._mult(a, b)

    def _neg_coords(self, a, out):
        if a is BOT_BOUND:
            return TOP_BOUND, False
        if a is TOP_BOUND:
            return BOT_BOUND, False
        return self.inner._neg_coords(a, out)

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

    def _build(self, take):
        return self.inner._build(take)

    def _sample(self, rng):
        roll = rng.random()
        if roll < _BOUND_RATE:
            return BOT_BOUND
        if roll < 2 * _BOUND_RATE:
            return TOP_BOUND
        return self.inner._sample(rng)

    def _new_window(self, radius, cap, memo, extra):
        # The bounds are two more candidates of the inner window: no level of their own.
        return self.inner._new_window(radius, cap, memo, extra + _BOUND_ROWS)

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

    @cached_property
    def _cover_obstruction(self):
        if not self.inner.is_unbounded:
            return "bounds adjoined to a bounded chain create covers"
        return self.inner._cover_obstruction

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

def z_chain(rank: int = 1) -> ZLex:
    return ZLex(rank)


def q_chain() -> QChain:
    return QChain()


def trivial_chain() -> Trivial:
    return Trivial()


def zelem(*coords: int) -> GroupValue:
    return tuple(coords)


def qelem(num, den: int = 1) -> GroupValue:
    return Fraction(num, den)
