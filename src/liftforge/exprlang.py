"""Parser, evaluator and printer for composition expressions.

Grammar (whitespace-insensitive):

    expr  = atom { ("∘" | "o") atom }
    atom  = "(" expr ")" | lstring
    lstring = one or more of 0 1 - ★ *

Chains associate left to right as written; the rightmost atom is applied
first.  Nested parenthesized sub-chains are accepted and spliced into
the one flat chain of landscapes a ``LiftExpr`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corefn import LiftforgeError, Rule
from .landscape import Landscape, compile_landscape, parse_landscape
from .lifting import compose_chain

COMPOSE = "∘"


class ExprSyntaxError(LiftforgeError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class LiftExpr:
    """A composition chain of landscapes, leftmost (applied last) first."""

    atoms: tuple[Landscape, ...]


_LCHARS = "01-★*"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def _ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def _peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self) -> LiftExpr:
        e = self.expr()
        self._ws()
        if self.i < len(self.text):
            raise ExprSyntaxError(f"trailing input {self.text[self.i]!r}", self.i)
        return e

    def expr(self) -> LiftExpr:
        parts = [self.atom()]
        while True:
            self._ws()
            ch = self._peek()
            if ch == COMPOSE or ch == "o":
                self.i += 1
                parts.append(self.atom())
            else:
                break
        return LiftExpr(tuple(l for p in parts for l in p.atoms))

    def atom(self) -> LiftExpr:
        self._ws()
        ch = self._peek()
        if ch == "(":
            open_at = self.i
            self.i += 1
            inner = self.expr()
            self._ws()
            if self._peek() != ")":
                raise ExprSyntaxError("unbalanced parenthesis", open_at)
            self.i += 1
            return inner
        start = self.i
        while self._peek() in _LCHARS and self._peek():
            self.i += 1
        if self.i == start:
            got = repr(ch) if ch else "end of input"
            raise ExprSyntaxError(f"expected a landscape or '(', got {got}", self.i)
        try:
            return LiftExpr((parse_landscape(self.text[start : self.i]),))
        except LiftforgeError as exc:
            raise ExprSyntaxError(str(exc), start) from exc


def parse_expr(text: str) -> LiftExpr:
    return _Parser(text).parse()


def eval_expr(e: LiftExpr) -> Rule:
    """Fold the chain into a single normalized rule (rightmost applied first)."""
    return compose_chain([compile_landscape(l) for l in e.atoms])


def print_expr(e: LiftExpr, ascii: bool = False) -> str:
    parts = [f"({l.symbols})" for l in e.atoms]
    out = COMPOSE.join(parts)
    if ascii:
        out = out.replace("★", "*").replace(COMPOSE, "o")
    return out
