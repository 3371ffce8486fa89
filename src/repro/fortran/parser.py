"""Parser for Pisces Fortran.

Line-oriented recursive descent over :class:`~repro.fortran.lexer.
LogicalLine` streams.  Produces a :class:`~repro.fortran.ast_nodes.
Program`.  The exact concrete syntax of the PISCES 2 User's Manual [6]
is not in the paper; the statement forms below follow the paper's text
(sections 6, 7, 10) with conventional F77 spelling for the rest.  See
the package docstring for the full grammar summary.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ParseError
from .ast_nodes import (
    BarrierStmt, CallStmt, ComputeStmt, ContinueStmt, CriticalStmt, DoLoop,
    ForceSplitStmt, IfBlock, LogicalIf, Program, ProgramUnit, ReturnStmt,
    StopStmt, WhileLoop,
)
from .expr import ExprParser
from .lexer import LogicalLine, TokKind, Token, logical_lines
from .statements import StatementParser

_TYPE_KEYWORDS = {"INTEGER", "REAL", "LOGICAL", "CHARACTER", "TASKID",
                  "WINDOW", "DOUBLEPRECISION"}


class Parser(StatementParser):
    """Statement/unit parser over the logical-line stream."""

    def __init__(self, source: str):
        self.lines: List[LogicalLine] = list(logical_lines(source))
        self.pos = 0

    # ------------------------------------------------------------ stream --

    def peek_line(self) -> Optional[LogicalLine]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next_line(self) -> LogicalLine:
        ll = self.peek_line()
        if ll is None:
            last = self.lines[-1].line if self.lines else 0
            raise ParseError("unexpected end of source", last)
        self.pos += 1
        return ll

    # ------------------------------------------------------------ program --

    def parse_program(self) -> Program:
        prog = Program()
        while (ll := self.peek_line()) is not None:
            toks = ll.tokens
            if toks and toks[0].is_name("TASK"):
                prog.units.append(self._parse_unit("TASK"))
            elif toks and toks[0].is_name("SUBROUTINE"):
                prog.units.append(self._parse_unit("SUBROUTINE"))
            elif toks and toks[0].is_name("HANDLER"):
                prog.units.append(self._parse_unit("HANDLER"))
            else:
                raise ParseError(
                    f"expected TASK, SUBROUTINE or HANDLER definition, "
                    f"found {ll.text!r}", ll.line)
        if not prog.units:
            raise ParseError("empty program", 1)
        return prog

    def _parse_unit(self, kind: str) -> ProgramUnit:
        ll = self.next_line()
        toks = ll.tokens
        if len(toks) < 2 or toks[1].kind is not TokKind.NAME:
            raise ParseError(f"{kind} needs a name", ll.line)
        name = toks[1].text
        params: List[str] = []
        if len(toks) > 2:
            if not toks[2].is_op("("):
                raise ParseError(f"bad {kind} header", ll.line)
            i = 3
            while i < len(toks) and not toks[i].is_op(")"):
                if toks[i].kind is TokKind.NAME:
                    params.append(toks[i].text)
                elif not toks[i].is_op(","):
                    raise ParseError("bad parameter list", ll.line)
                i += 1
        unit = ProgramUnit(kind=kind, name=name, params=params, line=ll.line)
        unit.body = self._parse_body(unit, end_words={(kind,), ("END",)})
        return unit

    # --------------------------------------------------------------- body --

    def _is_end(self, ll: LogicalLine, end_words) -> bool:
        toks = ll.tokens
        if not toks or not toks[0].is_name("END"):
            return False
        if len(toks) == 1:
            return ("END",) in end_words
        return (toks[1].text,) in end_words

    def _parse_body(self, unit: Optional[ProgramUnit],
                    end_words) -> List:
        """Parse statements until an END line; consumes the END line."""
        body: List = []
        while True:
            ll = self.peek_line()
            if ll is None:
                raise ParseError("missing END", self.lines[-1].line)
            if self._is_end(ll, end_words):
                self.next_line()
                return body
            stmt = self._parse_statement(unit)
            if stmt is not None:
                body.append(stmt)
                if isinstance(stmt, ForceSplitStmt):
                    # The rest of the unit runs in every force member.
                    stmt.rest = self._parse_body(unit, end_words)
                    return body

    def _parse_block(self, unit, *terminators: Tuple[str, ...]) -> Tuple[List, Tuple[str, ...]]:
        """Parse statements until one of the terminator token-tuples;
        returns (body, terminator seen); consumes the terminator line."""
        body: List = []
        while True:
            ll = self.peek_line()
            if ll is None:
                raise ParseError("missing block terminator "
                                 f"{terminators}", self.lines[-1].line)
            words = tuple(t.text for t in ll.tokens
                          if t.kind is TokKind.NAME)
            for term in terminators:
                if words[:len(term)] == term:
                    self.next_line()
                    return body, term
            stmt = self._parse_statement(unit)
            if stmt is not None:
                body.append(stmt)

    def _parse_labelled_block(self, unit, label: int) -> List:
        """Parse statements until the line carrying ``label`` (classic
        ``DO 10 ... / 10 CONTINUE``); the labelled line is executed too."""
        body: List = []
        while True:
            ll = self.peek_line()
            if ll is None:
                raise ParseError(f"missing statement label {label}",
                                 self.lines[-1].line)
            hit = ll.label == label
            stmt = self._parse_statement(unit)
            if stmt is not None:
                body.append(stmt)
            if hit:
                return body

    # ---------------------------------------------------------- statement --

    def _parse_statement(self, unit):
        ll = self.next_line()
        toks = ll.tokens
        if not toks:
            return None
        head = toks[0]
        if head.kind is not TokKind.NAME:
            raise ParseError(f"cannot parse statement {ll.text!r}", ll.line)
        w = head.text

        # ---- declarations ------------------------------------------------
        if w in _TYPE_KEYWORDS or (w == "DOUBLE" and len(toks) > 1
                                   and toks[1].is_name("PRECISION")):
            return self._parse_declaration(unit, ll)
        if w == "SHARED":
            return self._parse_shared_common(unit, ll)
        if w == "LOCK":
            names = self._parse_name_list(toks[1:], ll)
            if unit is not None:
                unit.locks.extend(names)
            return None
        if w == "SIGNAL":
            names = self._parse_name_list(toks[1:], ll)
            if unit is not None:
                unit.signal_types.extend(names)
            return None
        if w == "HANDLER":
            names = self._parse_name_list(toks[1:], ll)
            if unit is not None:
                unit.handler_types.extend(names)
            return None

        # ---- Pisces statements -------------------------------------------
        if w == "ON":
            return self._parse_initiate(ll)
        if w == "TO":
            return self._parse_send(ll)
        if w == "ACCEPT":
            return self._parse_accept(unit, ll)
        if w == "FORCESPLIT":
            return ForceSplitStmt(line=ll.line)
        if w == "BARRIER":
            body, _ = self._parse_block(unit, ("END", "BARRIER"))
            return BarrierStmt(body=body, line=ll.line)
        if w == "CRITICAL":
            if len(toks) < 2 or toks[1].kind is not TokKind.NAME:
                raise ParseError("CRITICAL needs a lock variable", ll.line)
            body, _ = self._parse_block(unit, ("END", "CRITICAL"))
            return CriticalStmt(lock=toks[1].text, body=body, line=ll.line)
        if w == "PARSEG":
            return self._parse_parseg(unit, ll)
        if w in ("PRESCHED", "SELFSCHED"):
            if len(toks) < 2 or not toks[1].is_name("DO"):
                raise ParseError(f"{w} must be followed by DO", ll.line)
            return self._parse_do(unit, ll, toks[1:], sched=w)
        if w == "COMPUTE":
            e = self._parse_expr(toks, 1, ll.line)
            return ComputeStmt(ticks=e, line=ll.line)

        # ---- Fortran statements ------------------------------------------
        if w == "IF":
            return self._parse_if(unit, ll)
        if w == "ELSE" or w == "ELSEIF" or w == "ENDIF":
            raise ParseError(f"{w} outside an IF block", ll.line)
        if w == "DO":
            return self._parse_do(unit, ll, toks, sched=None)
        if w == "CALL":
            if len(toks) < 2 or toks[1].kind is not TokKind.NAME:
                raise ParseError("CALL needs a subroutine name", ll.line)
            args: Tuple = ()
            if len(toks) > 2:
                ep = ExprParser(toks, 2, ll.line)
                ep.expect_op("(")
                args = tuple(ep.parse_arglist())
            return CallStmt(name=toks[1].text, args=args, line=ll.line)
        if w == "PRINT":
            return self._parse_print(ll)
        if w == "WRITE":
            return self._parse_write(ll)
        if w == "PARAMETER":
            return self._parse_parameter(unit, ll)
        if w == "DATA":
            return self._parse_data(unit, ll)
        if w == "RETURN":
            return ReturnStmt(line=ll.line)
        if w == "STOP":
            return StopStmt(line=ll.line)
        if w == "CONTINUE":
            return ContinueStmt(label=ll.label, line=ll.line)
        if w in ("GOTO", "GO"):
            raise ParseError("GOTO is not supported by this preprocessor "
                             "(use block IF / DO)", ll.line)

        # ---- assignment ---------------------------------------------------
        return self._parse_assign(ll)

    # ---------------------------------------------------------- Fortran ----

    def _parse_if(self, unit, ll: LogicalLine):
        toks = ll.tokens
        ep = ExprParser(toks, 1, ll.line)
        ep.expect_op("(")
        cond = ep.parse()
        ep.expect_op(")")
        if ep.pos < len(toks) and toks[ep.pos].is_name("THEN"):
            conditions = [cond]
            arms: List[List] = []
            while True:
                body, term = self._parse_block(
                    unit, ("ELSEIF",), ("ELSE", "IF"), ("ELSE",),
                    ("ENDIF",), ("END", "IF"))
                arms.append(body)  # belongs to the latest condition
                if term in (("ENDIF",), ("END", "IF")):
                    return IfBlock(conditions=conditions, arms=arms,
                                   else_arm=None, line=ll.line)
                if term in (("ELSEIF",), ("ELSE", "IF")):
                    # Re-parse the condition from the terminator line:
                    # skip the leading ELSE IF / ELSEIF keyword names,
                    # then read the parenthesized condition.
                    tl = self.lines[self.pos - 1]
                    k = 0
                    while k < len(tl.tokens) and \
                            not tl.tokens[k].is_op("("):
                        k += 1
                    ep2 = ExprParser(tl.tokens, k, tl.line)
                    ep2.expect_op("(")
                    conditions.append(ep2.parse())
                    ep2.expect_op(")")
                    continue
                # term == ("ELSE",)
                else_body, _ = self._parse_block(
                    unit, ("ENDIF",), ("END", "IF"))
                return IfBlock(conditions=conditions, arms=arms,
                               else_arm=else_body, line=ll.line)
        # logical IF: IF (cond) <stmt>  -- reparse the tail as a statement
        rest = toks[ep.pos:]
        if not rest:
            raise ParseError("IF needs THEN or a statement", ll.line)
        sub = LogicalLine(label=None, tokens=rest, line=ll.line)
        self.lines.insert(self.pos, sub)
        stmt = self._parse_statement(unit)
        return LogicalIf(condition=cond, stmt=stmt, line=ll.line)

    def _parse_do(self, unit, ll: LogicalLine, toks: List[Token],
                  sched: Optional[str]):
        # toks[0] is DO.  Forms: DO WHILE (cond) | DO [label] v = a, b[, c]
        i = 1
        if i < len(toks) and toks[i].is_name("WHILE"):
            if sched is not None:
                raise ParseError(f"{sched} cannot apply to DO WHILE",
                                 ll.line)
            ep = ExprParser(toks, i + 1, ll.line)
            ep.expect_op("(")
            cond = ep.parse()
            ep.expect_op(")")
            body, _ = self._parse_block(unit, ("END", "DO"), ("ENDDO",))
            return WhileLoop(condition=cond, body=body, line=ll.line)
        label = None
        if i < len(toks) and toks[i].kind is TokKind.INT:
            label = int(toks[i].text)
            i += 1
        if i >= len(toks) or toks[i].kind is not TokKind.NAME:
            raise ParseError("DO needs a loop variable", ll.line)
        var = toks[i].text
        i += 1
        if i >= len(toks) or not toks[i].is_op("="):
            raise ParseError("DO needs '='", ll.line)
        ep = ExprParser(toks, i + 1, ll.line)
        first = ep.parse()
        ep.expect_op(",")
        last = ep.parse()
        step = None
        if ep.peek() is not None and ep.peek().is_op(","):
            ep.next()
            step = ep.parse()
        if label is not None:
            body = self._parse_labelled_block(unit, label)
        else:
            body, _ = self._parse_block(unit, ("END", "DO"), ("ENDDO",))
        return DoLoop(var=var, first=first, last=last, step=step,
                      body=body, sched=sched, label=label, line=ll.line)


def parse_source(source: str) -> Program:
    """Parse a complete Pisces Fortran program."""
    return Parser(source).parse_program()
