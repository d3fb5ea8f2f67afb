"""Text grammar for literals, action payloads, and parameter values.

The syntax is deliberately small::

    literal  := '~'? IDENT ( '(' arg (',' arg)* ')' )?
    arg      := IDENT | '$' IDENT | '@' IDENT        # any_object is an IDENT
    action   := IDENT '(' ( slot '=' value (',' slot '=' value)* )? ')'
    value    := NUMBER UNIT? | IDENT
    NUMBER   := [+-]? digits ('.' digits)?
    UNIT     := letters ('/' letters)?

Zero-arity literals may be written with or without parentheses; the canonical
printed form (``str`` on the term types) omits them. ``parse_*`` functions
raise ParseError with line/column and a description of the expected token.
"""

from __future__ import annotations

import re
from typing import Callable

from .errors import ParseError
from .terms import GroundAction, Literal, Quantity

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z]+)?)
  | (?P<sigil>[$@~(),=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_Token = tuple[str, str, int]  # (kind, value, offset)


class _Tokens:
    """Tokenizer over a single string. Tokens record their offsets; an
    offset becomes a line and column only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[_Token] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "ws":
                continue
            if kind == "bad":
                raise self.error(f"unexpected character {m.group()!r}", m.start(),
                                 "identifier, number, or punctuation")
            self.tokens.append((kind, m.group(), m.start()))
        self.index = 0

    def error(self, message: str, offset: int, expected: str) -> ParseError:
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        return ParseError(message, line=line, column=column, expected=expected)

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            end = self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 0
            raise self.error("unexpected end of input", end, expected)
        self.index += 1
        return tok

    def expect(self, value: str) -> None:
        _, got, offset = self.next(repr(value))
        if got != value:
            raise self.error(f"unexpected token {got!r}", offset, repr(value))

    def require_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"trailing input {tok[1]!r}", tok[2], "end of input")


def _parse_arg(tokens: _Tokens) -> str:
    kind, value, offset = tokens.next("argument")
    if value in ("$", "@"):
        ikind, ident, ioffset = tokens.next("identifier")
        if ikind != "ident":
            raise tokens.error(f"unexpected token {ident!r}", ioffset,
                               "identifier after " + value)
        return value + ident
    if kind != "ident":
        raise tokens.error(f"unexpected token {value!r}", offset, "argument identifier")
    return value


def _parse_literal(tokens: _Tokens) -> Literal:
    negated = False
    tok = tokens.peek()
    if tok and tok[1] == "~":
        tokens.next("'~'")
        negated = True
    kind, name, offset = tokens.next("predicate name")
    if kind != "ident":
        raise tokens.error(f"unexpected token {name!r}", offset, "predicate name")
    tok = tokens.peek()
    args = _parse_list(tokens, _parse_arg) if tok and tok[1] == "(" else ()
    return Literal(name, tuple(args), negated)


def _parse_list(tokens: _Tokens, parse_item: Callable[[_Tokens], object]) -> list:
    """``'(' item (',' item)* ')'`` or ``'()'``, items in order."""
    tokens.expect("(")
    items = []
    tok = tokens.peek()
    if tok and tok[1] != ")":
        items.append(parse_item(tokens))
        while (tok := tokens.peek()) and tok[1] == ",":
            tokens.next("','")
            items.append(parse_item(tokens))
    tokens.expect(")")
    return items


def parse_literal(text: str) -> Literal:
    """Parse a single literal; the whole string must be consumed."""
    tokens = _Tokens(text)
    lit = _parse_literal(tokens)
    tokens.require_end()
    return lit


def parse_literal_conjunction(text: str) -> list[Literal]:
    """Parse ``lit & lit & ...``; at least one literal is required."""
    literals = []
    for part in text.split("&"):
        if not part.strip():
            raise ParseError("empty conjunct", expected="a literal")
        literals.append(parse_literal(part.strip()))
    return literals


def parse_value(text: str) -> str | Quantity:
    """Parse a slot value: a quantity with unit, a bare number, or a symbol."""
    tokens = _Tokens(text)
    value = _parse_value(tokens)
    tokens.require_end()
    return value


def _parse_value(tokens: _Tokens) -> str | Quantity:
    kind, value, offset = tokens.next("value")
    if kind == "number":
        tok = tokens.peek()
        if tok and tok[0] == "ident":
            tokens.next("unit")
            return Quantity(float(value), tok[1])
        return Quantity(float(value), "")
    if kind != "ident":
        raise tokens.error(f"unexpected token {value!r}", offset, "symbol or number")
    return value


def parse_action(text: str) -> GroundAction:
    """Parse an action payload like ``place(dst=table, obj=red_cube)``; a
    slot bound twice is an error at its second binding."""
    tokens = _Tokens(text)
    kind, name, offset = tokens.next("skill name")
    if kind != "ident":
        raise tokens.error(f"unexpected token {name!r}", offset, "skill name")
    binding: dict[str, str | Quantity] = {}
    _parse_list(tokens, lambda t: _parse_slot_binding(t, binding))
    tokens.require_end()
    return GroundAction(name, tuple(binding.items()))


def _parse_slot_binding(tokens: _Tokens, binding: dict[str, str | Quantity]) -> None:
    kind, slot, offset = tokens.next("slot name")
    if kind != "ident":
        raise tokens.error(f"unexpected token {slot!r}", offset, "slot name")
    if slot in binding:
        raise tokens.error(f"slot {slot!r} is bound twice", offset,
                           "a slot not yet bound")
    tokens.expect("=")
    binding[slot] = _parse_value(tokens)
