"""Formulas, their algebraic semantics, and countermodel search.

Connectives evaluate homomorphically: ``*`` is the monoidal operation, ``->``
its residuum, ``~`` the residual negation, ``&``/``|`` are min/max, and the
two unit constants ``t``/``f`` coincide (the chains are odd).  ``top``/``bot``
denote the global bounds and therefore need a bound-adjoined algebra.

Truth is "value >= t": a countermodel for ``T |= phi`` is an assignment with
every member of ``T`` at or above the unit and ``phi`` strictly below it.
``check_consequence`` is a falsifier only; exhausting its budget proves
nothing.  It compiles the theory and the goal once: equal subterms are one
node, ``a -> b`` is ``~(a * ~b)`` (``Algebra._residuum``, the one definition)
and ``~~a`` is ``a`` (negation is an involution on every constructible chain).
Each move evaluates the theory's nodes, then, if the theory holds, the goal's
own, in creation order.  Node values are small ids, interned by order key
(equal keys mean equal elements): each element is keyed once, ``~`` is
memoized per id and ``*`` per unordered pair of ids, and meets, joins and truth
tests compare the stored keys, so a ``~`` or ``*`` node whose operands did not
move costs one lookup.  The window is interned once per position; a random draw
changes every value, so the tables restart from the unit.  All tables live for
one search.  The assignments tried and their order are those of a tree walk;
``Countermodel.validate`` re-checks a find with ``_eval``.
"""

from __future__ import annotations

import bisect
import enum
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence, Union

from .chains import Algebra, BoundedAlgebra
from .elements import BOT_BOUND, TOP_BOUND, Elem, format_elem
from .errors import (
    FormulaSyntaxError,
    MembershipError,
    PreconditionViolation,
    ShapeError,
    UnassignedVariable,
)
from .sampling import sample_elem, window_elements

# The countermodel search's systematic window: coordinates in [-3, 3], 60 elements.
_WINDOW_RADIUS = 3
_WINDOW_CAP = 60


class Const(enum.Enum):
    T = "t"
    F = "f"
    TOP = "top"
    BOT = "bot"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Fuse:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Const, Neg, And, Or, Fuse, Imp]


def iff(left: Formula, right: Formula) -> Formula:
    """``left <-> right`` desugars to the conjunction of both implications."""
    return And(Imp(left, right), Imp(right, left))


def variables(formula: Formula) -> set[str]:
    if isinstance(formula, Var):
        return {formula.name}
    if isinstance(formula, Const):
        return set()
    if isinstance(formula, Neg):
        return variables(formula.operand)
    return variables(formula.left) | variables(formula.right)


# ---------------------------------------------------------------------------
# Parsing and printing

_TOKEN = re.compile(r"(<->|->|[&|*~()])|([a-z][a-z0-9_]*)|(\s+)")
_KEYWORDS = {"t": Const.T, "f": Const.F, "top": Const.TOP, "bot": Const.BOT}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group(3) is None:
            tokens.append((m.group(0), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def here(self) -> int:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.length

    def take(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def imp(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok == "->":
            self.take()
            return Imp(left, self.imp())
        if tok == "<->":
            self.take()
            return iff(left, self.imp())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.fusion()
        while self.peek() == "&":
            self.take()
            f = And(f, self.fusion())
        return f

    def fusion(self) -> Formula:
        f = self.unary()
        while self.peek() == "*":
            self.take()
            f = Fuse(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.take()
            return Neg(self.unary())
        if tok == "(":
            self.take()
            f = self.imp()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.here())
            self.take()
            return f
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula", self.here())
        if re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            self.take()
            return _KEYWORDS.get(tok, Var(tok))
        raise FormulaSyntaxError(f"unexpected token {tok!r}", self.here())


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text), len(text))
    f = parser.imp()
    if parser.peek() is not None:
        raise FormulaSyntaxError(f"trailing input {parser.peek()!r}", parser.here())
    return f


_LEVELS = {Imp: 0, Or: 1, And: 2, Fuse: 3, Neg: 4}
_SYMBOLS = {Or: "|", And: "&", Fuse: "*"}


def format_formula(formula: Formula, level: int = 0) -> str:
    """Render with minimal parentheses; ``parse_formula`` inverts it."""
    if isinstance(formula, Var):
        return formula.name
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Neg):
        return "~" + format_formula(formula.operand, 4)
    own = _LEVELS[type(formula)]
    if isinstance(formula, Imp):
        body = (format_formula(formula.left, 1) + " -> "
                + format_formula(formula.right, 0))
    else:
        sym = _SYMBOLS[type(formula)]
        body = (format_formula(formula.left, own) + f" {sym} "
                + format_formula(formula.right, own + 1))
    return f"({body})" if own < level else body


def parse_theory(text: str) -> list[Formula]:
    """One formula per line; blank lines and ``#`` comments are skipped."""
    formulas = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            formulas.append(parse_formula(line))
    return formulas


# ---------------------------------------------------------------------------
# Evaluation


def _constant(algebra: Algebra, const: Const) -> Elem:
    if const in (Const.T, Const.F):
        return algebra.unit()
    if not isinstance(algebra, BoundedAlgebra):
        raise PreconditionViolation("constants top/bot require a bound-adjoined algebra")
    return TOP_BOUND if const is Const.TOP else BOT_BOUND


def _eval(algebra: Algebra, formula: Formula, assignment: dict[str, Elem],
          trace: Optional[set] = None) -> Elem:
    if isinstance(formula, Var):
        try:
            value = assignment[formula.name]
        except KeyError:
            raise UnassignedVariable(f"variable {formula.name!r} has no value") from None
    elif isinstance(formula, Const):
        value = _constant(algebra, formula)
    elif isinstance(formula, Neg):
        value = algebra._neg(_eval(algebra, formula.operand, assignment, trace))
    else:
        lhs = _eval(algebra, formula.left, assignment, trace)
        rhs = _eval(algebra, formula.right, assignment, trace)
        if isinstance(formula, And):
            value = lhs if algebra._compare(lhs, rhs) <= 0 else rhs
        elif isinstance(formula, Or):
            value = rhs if algebra._compare(lhs, rhs) <= 0 else lhs
        elif isinstance(formula, Fuse):
            value = algebra._mult(lhs, rhs)
        else:
            value = algebra._residuum(lhs, rhs)
    if trace is not None:
        trace.add(value)
    return value


def eval_formula(algebra: Algebra, formula: Formula,
                 assignment: dict[str, Elem]) -> Elem:
    """Homomorphic evaluation of a formula under an assignment."""
    for name, value in assignment.items():
        if not algebra.contains(value):
            raise MembershipError(f"assignment of {name!r} is not in {algebra}")
    return _eval(algebra, formula, assignment)


def holds(algebra: Algebra, value: Elem) -> bool:
    """Designated truth: the value is at or above the unit."""
    return algebra._compare(algebra.unit(), value) <= 0


# ---------------------------------------------------------------------------
# Countermodels


@dataclass(frozen=True)
class Countermodel:
    """A falsifying assignment, with the values that witness it."""

    algebra: Algebra
    assignment: dict[str, Elem]
    goal: Formula
    goal_value: Elem
    theory: tuple[Formula, ...]
    theory_values: tuple[Elem, ...]
    rendering: Optional[dict[Elem, Fraction]] = None

    def validate(self) -> None:
        """Re-check every claim this record makes."""
        A = self.algebra
        for name, value in self.assignment.items():
            if not A.contains(value):
                raise MembershipError(f"assignment of {name!r} left the carrier")
        if eval_formula(A, self.goal, self.assignment) != self.goal_value:
            raise ShapeError("recorded goal value does not match re-evaluation")
        if holds(A, self.goal_value):
            raise ShapeError("goal value is not below the unit")
        if len(self.theory) != len(self.theory_values):
            raise ShapeError(f"{len(self.theory)} theory formulas but "
                             f"{len(self.theory_values)} recorded theory values")
        for phi, value in zip(self.theory, self.theory_values):
            if eval_formula(A, phi, self.assignment) != value:
                raise ShapeError("recorded theory value does not match re-evaluation")
            if not holds(A, value):
                raise ShapeError("theory value fell below the unit")
        if self.rendering is not None:
            # Keys are distinct, so this says e1 < e2 iff r1 < r2 for every pair.
            values = [self.rendering[e] for e in sorted(self.rendering, key=A._key)]
            if any(r1 >= r2 for r1, r2 in zip(values, values[1:])):
                raise ShapeError("rendering is not order-preserving")
            for e, r in self.rendering.items():
                placed = r == 1 if e is TOP_BOUND else r == 0 if e is BOT_BOUND else 0 < r < 1
                if not placed:
                    raise ShapeError(f"rendering sends {format_elem(e)} to {r}; "
                                     "the bounds go to 0 and 1, the rest into (0, 1)")

    def to_json(self) -> dict:
        from .serialize import algebra_to_json

        doc = {
            "algebra": algebra_to_json(self.algebra),
            "assignment": {k: format_elem(v) for k, v in sorted(self.assignment.items())},
            "goal": format_formula(self.goal),
            "goal_value": format_elem(self.goal_value),
            "theory": [format_formula(f) for f in self.theory],
            "theory_values": [format_elem(v) for v in self.theory_values],
        }
        if self.rendering is not None:
            doc["rendering"] = {format_elem(e): str(r)
                                for e, r in self.rendering.items()}
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Countermodel":
        from .literals import parse_elem
        from .serialize import algebra_from_json

        algebra = algebra_from_json(doc["algebra"])
        rendering = None
        if "rendering" in doc:
            rendering = {parse_elem(algebra, k): Fraction(v)
                         for k, v in doc["rendering"].items()}
        return cls(
            algebra=algebra,
            assignment={k: parse_elem(algebra, v)
                        for k, v in doc["assignment"].items()},
            goal=parse_formula(doc["goal"]),
            goal_value=parse_elem(algebra, doc["goal_value"]),
            theory=tuple(parse_formula(f) for f in doc["theory"]),
            theory_values=tuple(parse_elem(algebra, v) for v in doc["theory_values"]),
            rendering=rendering,
        )


def _assignment_stream(algebra: Algebra, names: Sequence[str], seed: int):
    """Systematic sweep of small elements, then seeded random draws, forever.

    Yields ``(at, values)``: the values of ``names`` and their window indices
    ``at`` (None for a random draw)."""
    window = window_elements(algebra, radius=_WINDOW_RADIUS, cap=_WINDOW_CAP)
    for at in product(range(len(window)), repeat=len(names)):
        yield at, [window[j] for j in at]
    rng = random.Random(seed)
    while True:
        yield None, [sample_elem(algebra, rng) for _ in names]


class _Plan:
    """The theory's nodes, then the goal's own, each evaluated in creation order (which
    is topological) on every move (module docstring).  ``steps`` pairs each node's slot
    in ``vals`` with its value id from its children's.  Id ``i`` is ``elems[i]`` with key
    ``keys[i]`` (``index`` inverts it; the unit is 0), ``negs`` and ``prods`` memoize
    ``~`` and ``*``, and ``at`` holds the window positions' ids."""

    def __init__(self, algebra: Algebra, names: Sequence[str],
                 theory: Sequence[Formula], goal: Formula):
        self.algebra, self.names = algebra, names
        self.elems, self.keys, self.index, self.negs, self.prods, self.at = [], [], {}, {}, {}, {}
        elems, keys, index, negs, prods = self.elems, self.keys, self.index, self.negs, self.prods

        def intern(e: Elem) -> int:  # equal keys mean equal elements (chains docstring)
            i = index.setdefault(key := algebra._key(e), len(keys))
            if i == len(keys):
                elems.append(e)
                keys.append(key)
            return i

        def neg(i: int) -> int:  # an involution: one negation memoizes both ways
            j = negs.get(i)
            if j is None:
                j = negs[i] = intern(algebra._neg(elems[i]))
                negs[j] = i
            return j

        def mult(i: int, j: int) -> int:  # * is commutative: one entry per unordered pair
            pair = (i, j) if i <= j else (j, i)
            r = prods.get(pair)
            if r is None:
                r = prods[pair] = intern(algebra._mult(elems[i], elems[j]))
            return r

        self.intern, self.neg, self.mult = intern, neg, mult  # no cycle through self
        self.unit = keys[intern(algebra.unit())]
        self.nodes, self.vals, self.fns = {}, [], []
        self.values = [None] * len(names)  # the variables' ids
        self.theory = [self._lower(phi) for phi in theory]
        split = len(self.fns)
        self.goal = self._lower(goal)
        steps = list(enumerate(self.fns))
        self.steps = steps[:split], steps[split:]

    def _lower(self, f: Formula, negated: bool = False) -> int:  # the node of f, or of ~f
        if isinstance(f, Neg):
            return self._lower(f.operand, not negated)
        vals, keys, values = self.vals, self.keys, self.values
        A, neg, mult, intern = self.algebra, self.neg, self.mult, self.intern
        if negated != isinstance(f, Imp):  # ~f, where a -> b is ~(a * ~b)
            a = self._lower(f, not negated)
            key, fn = (Neg, a), lambda: neg(vals[a])
        elif isinstance(f, Var):
            i = self.names.index(f.name)
            key, fn = f, lambda: values[i]  # no cycle through self
        elif f is Const.T or f is Const.F:  # the unit, id 0 through every reset
            key, fn = Const.T, lambda: 0
        elif isinstance(f, Const):  # a bound, looked up when reached, so it fails as in _eval
            key, fn = f, lambda: intern(_constant(A, f))
        else:  # negated here only for an implication, lowered to a * ~b
            kind = Fuse if negated else type(f)
            a, b = self._lower(f.left), self._lower(f.right, negated)
            key = (kind, a, b)
            fn = {Fuse: lambda: mult(vals[a], vals[b]),
                  And: lambda: vals[a] if keys[vals[a]] <= keys[vals[b]] else vals[b],
                  Or: lambda: vals[b] if keys[vals[a]] <= keys[vals[b]] else vals[a]}[kind]
        if key not in self.nodes:
            self.nodes[key] = len(self.fns)
            vals.append(None)
            self.fns.append(fn)
        return self.nodes[key]

    def falsified(self, at: Optional[tuple], values: list) -> bool:
        """Move to the next item of :func:`_assignment_stream`: True iff the theory
        holds and the goal does not.  As in a tree walk, the goal waits for the theory."""
        ids, vals, keys, table = self.values, self.vals, self.keys, self.at
        if at is None:  # a draw changes every value: keep only the unit
            del self.elems[1:], keys[1:]
            for memo in (self.index, self.negs, self.prods, table):
                memo.clear()
            self.index[self.unit] = 0
            ids[:] = map(self.intern, values)
        else:  # the window is interned once per position
            for i, j in enumerate(at):
                if j not in table:
                    table[j] = self.intern(values[i])
                ids[i] = table[j]
        theory_steps, goal_steps = self.steps
        for node, fn in theory_steps:
            vals[node] = fn()
        if any(keys[vals[r]] < self.unit for r in self.theory):
            return False
        for node, fn in goal_steps:
            vals[node] = fn()
        return keys[vals[self.goal]] < self.unit


def check_consequence(algebra: Algebra,
                      theory: Sequence[Formula],
                      goal: Formula,
                      budget: int = 10000,
                      seed: int = 0) -> Optional[Countermodel]:
    """Search for an assignment making the theory true and the goal false.

    Deterministic for a fixed seed and budget.  Returns None when the budget
    is exhausted; that outcome does not certify validity.  It compiles the
    formulas once (module docstring): shared nodes, ``a -> b`` as ``~(a * ~b)``,
    ``~~a`` as ``a``, and values interned by key with ``~`` and ``*`` memoized.
    """
    if budget <= 0:
        raise PreconditionViolation("budget must be positive")
    theory = tuple(theory)
    names = sorted(set().union(variables(goal), *map(variables, theory)))
    plan = _Plan(algebra, names, theory, goal)
    for tried, (at, values) in enumerate(_assignment_stream(algebra, names, seed)):
        if tried >= budget:
            return None
        if plan.falsified(at, values):
            elems, vals = plan.elems, plan.vals
            return Countermodel(algebra, dict(zip(names, values)), goal, elems[vals[plan.goal]],
                                theory, tuple(elems[vals[r]] for r in plan.theory))


def rendered(cm: Countermodel) -> Countermodel:
    """Attach a unit-interval rendering of all elements the evaluation touched."""
    A = cm.algebra
    elems: set = set(cm.assignment.values())
    elems.add(A.unit())
    for phi in (cm.goal, *cm.theory):
        _eval(A, phi, cm.assignment, trace=elems)
    if isinstance(A, BoundedAlgebra):
        elems.update((TOP_BOUND, BOT_BOUND))
    ordered = sorted(elems, key=A._key)
    return replace(cm, rendering=unit_interval_render(A, ordered))


def unit_interval_render(algebra: Algebra,
                         elems: Iterable[Elem]) -> dict[Elem, Fraction]:
    """Strictly order-preserving map into rationals of (0,1), bounds to 0/1.

    Elements are placed in the order given: the first at 1/2, later ones at
    the midpoint of their order-neighbours' values (with 0 and 1 standing in
    below and above everything).  Deterministic in the insertion order.
    """
    values: dict[Elem, Fraction] = {}
    placed: list[tuple] = []  # (order key, value), sorted; keys are distinct
    for e in elems:
        algebra.ensure_member(e)
        if e in values:
            raise ShapeError(f"duplicate element {format_elem(e)} in rendering")
        if e is TOP_BOUND:
            values[e] = Fraction(1)
            continue
        if e is BOT_BOUND:
            values[e] = Fraction(0)
            continue
        key = algebra._key(e)
        pos = bisect.bisect(placed, (key,))
        lo = placed[pos - 1][1] if pos else Fraction(0)
        hi = placed[pos][1] if pos < len(placed) else Fraction(1)
        values[e] = (lo + hi) / 2
        placed.insert(pos, (key, values[e]))
    return values
