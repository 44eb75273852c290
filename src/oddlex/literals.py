"""Parsing of element literals against a target algebra.

Grammar::

    elem   := 'TOP' | 'BOT' | group | '(' elem ',' second ')'
    second := elem | 'T' | 'B'
    group  := integer | rational 'p/q' | vector '<' ints '>'

Printing lives in :mod:`oddlex.elements`; ``parse_elem(A, format_elem(e))``
returns ``e`` for every member of ``A``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .chains import Algebra, BaseAlgebra, BoundedAlgebra, PlpAlgebra, QChain, Trivial, ZLex
from .elements import BOT_BOUND, BOT_MARKER, TOP_BOUND, TOP_MARKER, Elem, Pair
from .errors import LiteralSyntaxError, MembershipError

_TOKEN = re.compile(r"\s*(TOP|BOT|T|B|-?\d+/\d+|-?\d+|[(),<>])")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise LiteralSyntaxError(f"unexpected character {text[pos]!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Raw:
    __slots__ = ("tag", "payload")

    def __init__(self, tag, payload=None):
        self.tag = tag
        self.payload = payload


def _parse_raw(tokens: list[str], pos: int) -> tuple[_Raw, int]:
    if pos >= len(tokens):
        raise LiteralSyntaxError("unexpected end of literal")
    tok = tokens[pos]
    if tok in ("TOP", "BOT", "T", "B"):
        return _Raw(tok), pos + 1
    if tok == "(":
        first, pos = _parse_raw(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ",":
            raise LiteralSyntaxError("expected ',' in pair literal")
        second, pos = _parse_raw(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise LiteralSyntaxError("expected ')' closing pair literal")
        return _Raw("pair", (first, second)), pos + 1
    if tok == "<":
        coords = []
        pos += 1
        if pos < len(tokens) and tokens[pos] == ">":
            return _Raw("vec", ()), pos + 1
        while True:
            if pos >= len(tokens) or not re.fullmatch(r"-?\d+", tokens[pos]):
                raise LiteralSyntaxError("expected integer inside vector literal")
            coords.append(int(tokens[pos]))
            pos += 1
            if pos >= len(tokens):
                raise LiteralSyntaxError("unterminated vector literal")
            if tokens[pos] == ">":
                return _Raw("vec", tuple(coords)), pos + 1
            if tokens[pos] != ",":
                raise LiteralSyntaxError("expected ',' or '>' in vector literal")
            pos += 1
    if "/" in tok:
        num, den = tok.split("/")
        if int(den) == 0:
            raise LiteralSyntaxError("zero denominator")
        return _Raw("frac", Fraction(int(num), int(den))), pos + 1
    if re.fullmatch(r"-?\d+", tok):
        return _Raw("int", int(tok)), pos + 1
    raise LiteralSyntaxError(f"unexpected token {tok!r}")


def _coerce(algebra: Algebra, raw: _Raw) -> Elem:
    if isinstance(algebra, BoundedAlgebra):
        if raw.tag == "TOP":
            return TOP_BOUND
        if raw.tag == "BOT":
            return BOT_BOUND
        return _coerce(algebra.inner, raw)
    if raw.tag in ("TOP", "BOT"):
        raise MembershipError(f"global bound {raw.tag} used in unbounded algebra {algebra}")
    if raw.tag in ("T", "B"):
        raise MembershipError("fiber markers T/B may only appear as second components")
    if isinstance(algebra, ZLex):
        if raw.tag == "int" and algebra.dim == 1:
            return (raw.payload,)
        if raw.tag == "vec" and len(raw.payload) == algebra.dim:
            return raw.payload
    elif isinstance(algebra, QChain):
        if raw.tag == "int":
            return Fraction(raw.payload)
        if raw.tag == "frac":
            return raw.payload
    elif isinstance(algebra, Trivial):
        if raw.tag == "vec" and raw.payload == ():
            return ()
    if isinstance(algebra, BaseAlgebra):
        raise MembershipError(f"literal does not denote an element of {algebra}")
    if isinstance(algebra, PlpAlgebra):
        if raw.tag != "pair":
            raise MembershipError(f"expected a pair literal for {algebra}")
        rfirst, rsecond = raw.payload
        first = _coerce(algebra.first, rfirst)
        if rsecond.tag == "T":
            second = TOP_MARKER
        elif rsecond.tag == "B":
            second = BOT_MARKER
        else:
            second = _coerce(algebra.second, rsecond)
        return Pair(first, second)
    raise MembershipError(f"cannot interpret literal for {algebra}")


def parse_elem(algebra: Algebra, text: str) -> Elem:
    """Parse a literal and validate membership in ``algebra``."""
    tokens = _tokenize(text)
    raw, pos = _parse_raw(tokens, 0)
    if pos != len(tokens):
        raise LiteralSyntaxError(f"trailing input after element literal: {tokens[pos:]}")
    elem = _coerce(algebra, raw)
    if not algebra.contains(elem):
        raise MembershipError(f"{text.strip()} is not a member of {algebra}")
    return elem
