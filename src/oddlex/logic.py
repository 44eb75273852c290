"""Formulas, their algebraic semantics, and countermodel search.

Connectives evaluate homomorphically: ``*`` is the monoidal operation, ``->``
its residuum, ``~`` the residual negation, ``&``/``|`` are min/max, and the
two unit constants ``t``/``f`` coincide (the chains are odd).  ``top``/``bot``
denote the global bounds and therefore need a bound-adjoined algebra.

Truth is "value >= t": a countermodel for ``T |= phi`` is an assignment with
every member of ``T`` at or above the unit and ``phi`` strictly below it.
``check_consequence`` is a falsifier only; exhausting its budget proves
nothing.
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key
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


def _eval(algebra: Algebra, formula: Formula, assignment: dict[str, Elem],
          trace: Optional[set] = None) -> Elem:
    if isinstance(formula, Var):
        try:
            value = assignment[formula.name]
        except KeyError:
            raise UnassignedVariable(f"variable {formula.name!r} has no value") from None
    elif isinstance(formula, Const):
        if formula in (Const.T, Const.F):
            value = algebra.unit()
        else:
            if not isinstance(algebra, BoundedAlgebra):
                raise PreconditionViolation(
                    "constants top/bot require a bound-adjoined algebra")
            value = TOP_BOUND if formula is Const.TOP else BOT_BOUND
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
            value = algebra._neg(algebra._mult(lhs, algebra._neg(rhs)))
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
        for phi, value in zip(self.theory, self.theory_values):
            if eval_formula(A, phi, self.assignment) != value:
                raise ShapeError("recorded theory value does not match re-evaluation")
            if not holds(A, value):
                raise ShapeError("theory value fell below the unit")
        if self.rendering is not None:
            items = list(self.rendering.items())
            for i, (e1, r1) in enumerate(items):
                for e2, r2 in items[i + 1:]:
                    if (A._compare(e1, e2) < 0) != (r1 < r2):
                        raise ShapeError("rendering is not order-preserving")

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


def _assignment_stream(algebra: Algebra, names: Sequence[str], seed: int,
                       radius: int = 3, window_cap: int = 60):
    """Systematic sweep of small elements, then seeded random draws, forever."""
    window = window_elements(algebra, radius=radius, cap=window_cap)
    for combo in product(window, repeat=len(names)):
        yield dict(zip(names, combo))
    rng = random.Random(seed)
    while True:
        yield {name: sample_elem(algebra, rng) for name in names}


def check_consequence(algebra: Algebra,
                      theory: Sequence[Formula],
                      goal: Formula,
                      budget: int = 10000,
                      seed: int = 0) -> Optional[Countermodel]:
    """Search for an assignment making the theory true and the goal false.

    Deterministic for a fixed seed and budget.  Returns None when the budget
    is exhausted; that outcome does not certify validity.
    """
    if budget <= 0:
        raise PreconditionViolation("budget must be positive")
    theory = tuple(theory)
    names = sorted(set().union(variables(goal), *map(variables, theory)))
    tried = 0
    for assignment in _assignment_stream(algebra, names, seed):
        if tried >= budget:
            return None
        tried += 1
        values = [_eval(algebra, phi, assignment) for phi in theory]
        if not all(holds(algebra, v) for v in values):
            continue
        goal_value = _eval(algebra, goal, assignment)
        if holds(algebra, goal_value):
            continue
        return Countermodel(algebra, dict(assignment), goal, goal_value,
                            theory, tuple(values))
    return None


def rendered(cm: Countermodel) -> Countermodel:
    """Attach a unit-interval rendering of all elements the evaluation touched."""
    A = cm.algebra
    elems: set = set(cm.assignment.values())
    elems.add(A.unit())
    for phi in (cm.goal, *cm.theory):
        _eval(A, phi, cm.assignment, trace=elems)
    if isinstance(A, BoundedAlgebra):
        elems.update((TOP_BOUND, BOT_BOUND))
    ordered = sorted(elems, key=cmp_to_key(A._compare))
    return replace(cm, rendering=unit_interval_render(A, ordered))


def unit_interval_render(algebra: Algebra,
                         elems: Iterable[Elem]) -> dict[Elem, Fraction]:
    """Strictly order-preserving map into rationals of (0,1), bounds to 0/1.

    Elements are placed in the order given: the first at 1/2, later ones at
    the midpoint of their order-neighbours' values (with 0 and 1 standing in
    below and above everything).  Deterministic in the insertion order.
    """
    values: dict[Elem, Fraction] = {}
    placed: list[Elem] = []  # kept sorted by the algebra order
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
        lo, hi = Fraction(0), Fraction(1)
        pos = 0
        for pos, other in enumerate(placed + [None]):
            if other is None or algebra._compare(e, other) < 0:
                break
            lo = values[other]
        if pos < len(placed):
            hi = values[placed[pos]]
        values[e] = (lo + hi) / 2
        placed.insert(pos, e)
    return values
