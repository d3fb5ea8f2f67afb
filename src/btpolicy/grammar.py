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

from .errors import ParseError
from .terms import GroundAction, Literal, Quantity

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z]+)?)
  | (?P<sigil>[$@~(),=])
    """,
    re.VERBOSE,
)


class _Tokens:
    """Tokenizer over a single string, tracking line/column positions."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int, int]] = []  # (kind, value, line, col)
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {text[pos]!r}",
                    line=line, column=col, expected="identifier, number, or punctuation",
                )
            kind = m.lastgroup or ""
            value = m.group()
            if kind != "ws":
                self.tokens.append((kind, value, line, col))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
            pos = m.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self, expected: str) -> tuple[str, str, int, int]:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else (None, "", 1, 1)
            raise ParseError("unexpected end of input",
                             line=last[2], column=last[3] + len(last[1]),
                             expected=expected)
        self.index += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got, line, col = self.next(repr(value))
        if got != value:
            raise ParseError(f"unexpected token {got!r}", line=line, column=col,
                             expected=repr(value))

    def require_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}",
                             line=tok[2], column=tok[3], expected="end of input")


def _parse_arg(tokens: _Tokens) -> str:
    kind, value, line, col = tokens.next("argument")
    if value in ("$", "@"):
        ikind, ident, iline, icol = tokens.next("identifier")
        if ikind != "ident":
            raise ParseError(f"unexpected token {ident!r}", line=iline, column=icol,
                             expected="identifier after " + value)
        return value + ident
    if kind != "ident":
        raise ParseError(f"unexpected token {value!r}", line=line, column=col,
                         expected="argument identifier")
    return value


def _parse_literal(tokens: _Tokens) -> Literal:
    negated = False
    tok = tokens.peek()
    if tok and tok[1] == "~":
        tokens.next("'~'")
        negated = True
    kind, name, line, col = tokens.next("predicate name")
    if kind != "ident":
        raise ParseError(f"unexpected token {name!r}", line=line, column=col,
                         expected="predicate name")
    args: list[str] = []
    tok = tokens.peek()
    if tok and tok[1] == "(":
        tokens.expect("(")
        tok = tokens.peek()
        if tok and tok[1] != ")":
            args.append(_parse_arg(tokens))
            while True:
                tok = tokens.peek()
                if tok and tok[1] == ",":
                    tokens.expect(",")
                    args.append(_parse_arg(tokens))
                else:
                    break
        tokens.expect(")")
    return Literal(name, tuple(args), negated)


def parse_literal(text: str) -> Literal:
    """Parse a single literal; the whole string must be consumed."""
    tokens = _Tokens(text)
    lit = _parse_literal(tokens)
    tokens.require_end()
    return lit


def parse_literal_conjunction(text: str, separator: str = "&") -> list[Literal]:
    """Parse ``lit & lit & ...``; at least one literal is required."""
    parts = text.split(separator)
    literals = []
    for part in parts:
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
    kind, value, line, col = tokens.next("value")
    if kind == "number":
        tok = tokens.peek()
        if tok and tok[0] == "ident":
            tokens.next("unit")
            return Quantity(float(value), tok[1])
        return Quantity(float(value), "")
    if kind != "ident":
        raise ParseError(f"unexpected token {value!r}", line=line, column=col,
                         expected="symbol or number")
    return value


def parse_action(text: str) -> GroundAction:
    """Parse an action payload like ``place(dst=table, obj=red_cube)``."""
    tokens = _Tokens(text)
    kind, name, line, col = tokens.next("skill name")
    if kind != "ident":
        raise ParseError(f"unexpected token {name!r}", line=line, column=col,
                         expected="skill name")
    binding: list[tuple[str, str | Quantity]] = []
    tokens.expect("(")
    tok = tokens.peek()
    if tok and tok[1] != ")":
        binding.append(_parse_slot_binding(tokens))
        while True:
            tok = tokens.peek()
            if tok and tok[1] == ",":
                tokens.expect(",")
                binding.append(_parse_slot_binding(tokens))
            else:
                break
    tokens.expect(")")
    tokens.require_end()
    return GroundAction(name, tuple(binding))


def _parse_slot_binding(tokens: _Tokens) -> tuple[str, str | Quantity]:
    kind, slot, line, col = tokens.next("slot name")
    if kind != "ident":
        raise ParseError(f"unexpected token {slot!r}", line=line, column=col,
                         expected="slot name")
    tokens.expect("=")
    return slot, _parse_value(tokens)
