"""Expression parser for Pisces Fortran.

:class:`ExprParser` reads one expression (or argument list) from a
statement's token list, starting at a given position, and builds the
expression nodes of :mod:`repro.fortran.ast_nodes`.  The statement
parsers (:mod:`repro.fortran.statements`, :mod:`repro.fortran.parser`)
create one per expression they meet.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from .ast_nodes import ArrayRef, BinOp, LogicalConst, Num, Str, UnOp, Var
from .lexer import Token, TokKind

_REL_OPS = {".EQ.": ".EQ.", "==": ".EQ.", ".NE.": ".NE.", "<>": ".NE.",
            ".LT.": ".LT.", "<": ".LT.", ".LE.": ".LE.", "<=": ".LE.",
            ".GT.": ".GT.", ">": ".GT.", ".GE.": ".GE.", ">=": ".GE."}


class ExprParser:
    """Pratt-style expression parser over one token list."""

    def __init__(self, toks: List[Token], pos: int, line: int):
        self.toks = toks
        self.pos = pos
        self.line = line

    # helpers -------------------------------------------------------------

    def peek(self) -> Optional[Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of statement", self.line)
        self.pos += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.next()
        if not t.is_op(op):
            raise ParseError(f"expected {op!r}, found {t.text!r}", self.line)

    # grammar -------------------------------------------------------------

    def parse(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while (t := self.peek()) is not None and t.is_op(".OR."):
            self.next()
            left = BinOp(".OR.", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while (t := self.peek()) is not None and t.is_op(".AND."):
            self.next()
            left = BinOp(".AND.", left, self.parse_not())
        return left

    def parse_not(self):
        t = self.peek()
        if t is not None and t.is_op(".NOT."):
            self.next()
            return UnOp(".NOT.", self.parse_not())
        return self.parse_rel()

    def parse_rel(self):
        left = self.parse_add()
        t = self.peek()
        if t is not None and t.kind is TokKind.OP and t.text in _REL_OPS:
            self.next()
            return BinOp(_REL_OPS[t.text], left, self.parse_add())
        return left

    def parse_add(self):
        left = self.parse_mul()
        while (t := self.peek()) is not None and t.is_op("+", "-", "//"):
            self.next()
            left = BinOp(t.text, left, self.parse_mul())
        return left

    def parse_mul(self):
        left = self.parse_unary()
        while (t := self.peek()) is not None and t.is_op("*", "/"):
            self.next()
            left = BinOp(t.text, left, self.parse_unary())
        return left

    def parse_unary(self):
        t = self.peek()
        if t is not None and t.is_op("-", "+"):
            self.next()
            return UnOp(t.text, self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        t = self.peek()
        if t is not None and t.is_op("**"):
            self.next()
            return BinOp("**", base, self.parse_unary())  # right assoc
        return base

    def parse_primary(self):
        t = self.next()
        if t.kind in (TokKind.INT, TokKind.REAL):
            return Num(t.text)
        if t.kind is TokKind.STRING:
            return Str(t.text)
        if t.is_op(".TRUE."):
            return LogicalConst(True)
        if t.is_op(".FALSE."):
            return LogicalConst(False)
        if t.is_op("("):
            e = self.parse()
            self.expect_op(")")
            return e
        if t.kind is TokKind.NAME:
            nxt = self.peek()
            if nxt is not None and nxt.is_op("("):
                self.next()
                args = self.parse_arglist()
                return ArrayRef(t.text, tuple(args))
            return Var(t.text)
        raise ParseError(f"unexpected token {t.text!r} in expression",
                         self.line)

    def parse_arglist(self) -> List:
        args: List = []
        t = self.peek()
        if t is not None and t.is_op(")"):
            self.next()
            return args
        while True:
            args.append(self.parse())
            t = self.next()
            if t.is_op(")"):
                return args
            if not t.is_op(","):
                raise ParseError(f"expected ',' or ')' in argument list, "
                                 f"found {t.text!r}", self.line)
