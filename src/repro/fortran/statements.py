"""Statement forms of Pisces Fortran, one logical line each.

:class:`StatementParser` is the base class of
:class:`~repro.fortran.parser.Parser` that reads the declarations, the
Pisces statements (INITIATE, SEND, ACCEPT, PARSEG) and the simple
Fortran statements (WRITE, PARAMETER, DATA, PRINT, assignment).  Its
methods read the line stream through ``self`` (``peek_line``,
``next_line``, ``_parse_block``, ``_parse_statement``).
"""

from __future__ import annotations

from typing import List, Tuple, Union

from ..errors import ParseError
from .ast_nodes import (
    AcceptSpecItem, AcceptStmt, ArrayRef, Assign, Declaration, DimSpec,
    InitiateStmt, MultiStmt, ParsegStmt, PrintStmt, SendStmt,
    SharedCommonDecl, UnOp, Var,
)
from .expr import ExprParser
from .lexer import LogicalLine, TokKind, Token


class StatementParser:
    """Declarations and single-statement forms (a base class of
    ``Parser``)."""

    # ------------------------------------------------------ declarations --

    def _parse_declaration(self, unit, ll: LogicalLine) -> None:
        toks = ll.tokens
        if toks[0].is_name("DOUBLE"):
            ftype, start = "DOUBLEPRECISION", 2
        else:
            ftype, start = toks[0].text, 1
        ents = self._parse_dimspec_list(toks, start, ll)
        decl = Declaration(ftype=ftype, entities=ents, line=ll.line)
        if unit is not None:
            unit.decls.append(decl)
        return None

    def _parse_shared_common(self, unit, ll: LogicalLine) -> None:
        toks = ll.tokens
        # SHARED COMMON / NAME / a(10), b
        if (len(toks) < 5 or not toks[1].is_name("COMMON")
                or not toks[2].is_op("/")
                or toks[3].kind is not TokKind.NAME
                or not toks[4].is_op("/")):
            raise ParseError("expected SHARED COMMON /NAME/ list", ll.line)
        ents = self._parse_dimspec_list(toks, 5, ll)
        if unit is not None:
            unit.shared.append(SharedCommonDecl(block=toks[3].text,
                                                entities=ents, line=ll.line))
        return None

    def _parse_dimspec_list(self, toks, start: int,
                            ll: LogicalLine) -> List[DimSpec]:
        ents: List[DimSpec] = []
        i = start
        while i < len(toks):
            t = toks[i]
            if t.kind is not TokKind.NAME:
                raise ParseError(f"expected a name in declaration, found "
                                 f"{t.text!r}", ll.line)
            name = t.text
            i += 1
            dims: Tuple = ()
            if i < len(toks) and toks[i].is_op("("):
                ep = ExprParser(toks, i + 1, ll.line)
                # parse_arglist expects to be positioned after '('
                args = []
                while True:
                    args.append(ep.parse())
                    nxt = ep.next()
                    if nxt.is_op(")"):
                        break
                    if not nxt.is_op(","):
                        raise ParseError("bad dimension list", ll.line)
                dims = tuple(args)
                i = ep.pos
            ents.append(DimSpec(name=name, dims=dims))
            if i < len(toks):
                if not toks[i].is_op(","):
                    raise ParseError(f"expected ',' in declaration, found "
                                     f"{toks[i].text!r}", ll.line)
                i += 1
        if not ents:
            raise ParseError("empty declaration", ll.line)
        return ents

    def _parse_name_list(self, toks, ll: LogicalLine) -> List[str]:
        names = [t.text for t in toks if t.kind is TokKind.NAME]
        if not names:
            raise ParseError("expected a name list", ll.line)
        return names

    # ----------------------------------------------------------- Pisces ----

    def _parse_initiate(self, ll: LogicalLine) -> InitiateStmt:
        toks = ll.tokens
        # ON CLUSTER <expr> INITIATE T(args) | ON ANY/OTHER/SAME INITIATE ...
        i = 1
        placement: Union[str, object]
        if i < len(toks) and toks[i].is_name("CLUSTER"):
            ep = ExprParser(toks, i + 1, ll.line)
            placement = ep.parse()
            i = ep.pos
        elif i < len(toks) and toks[i].is_name("ANY", "OTHER", "SAME"):
            placement = toks[i].text
            i += 1
        else:
            raise ParseError("ON needs CLUSTER <n>, ANY, OTHER or SAME",
                             ll.line)
        if i >= len(toks) or not toks[i].is_name("INITIATE"):
            raise ParseError("expected INITIATE", ll.line)
        i += 1
        if i >= len(toks) or toks[i].kind is not TokKind.NAME:
            raise ParseError("INITIATE needs a tasktype name", ll.line)
        name = toks[i].text
        i += 1
        args: Tuple = ()
        if i < len(toks) and toks[i].is_op("("):
            ep = ExprParser(toks, i + 1, ll.line)
            args = tuple(ep.parse_arglist())
        return InitiateStmt(placement=placement, tasktype=name, args=args,
                            line=ll.line)

    def _parse_send(self, ll: LogicalLine) -> SendStmt:
        toks = ll.tokens
        i = 1
        dest_kind: str
        dest_expr = None
        if toks[i].is_name("PARENT", "SELF", "SENDER", "USER"):
            dest_kind = toks[i].text
            i += 1
        elif toks[i].is_name("TCONTR"):
            ep = ExprParser(toks, i + 1, ll.line)
            dest_expr = ep.parse()
            i = ep.pos
            dest_kind = "TCONTR"
        elif toks[i].is_name("ALL"):
            i += 1
            dest_kind = "ALL"
            if i < len(toks) and toks[i].is_name("CLUSTER"):
                ep = ExprParser(toks, i + 1, ll.line)
                dest_expr = ep.parse()
                i = ep.pos
        else:
            # taskid-valued variable or array element
            ep = ExprParser(toks, i, ll.line)
            dest_expr = ep.parse()
            i = ep.pos
            dest_kind = "VAR"
        if i >= len(toks) or not toks[i].is_name("SEND"):
            raise ParseError("expected SEND after destination", ll.line)
        i += 1
        if i >= len(toks) or toks[i].kind is not TokKind.NAME:
            raise ParseError("SEND needs a message type", ll.line)
        mtype = toks[i].text
        i += 1
        args: Tuple = ()
        if i < len(toks) and toks[i].is_op("("):
            ep = ExprParser(toks, i + 1, ll.line)
            args = tuple(ep.parse_arglist())
        return SendStmt(dest_kind=dest_kind, dest_expr=dest_expr,
                        mtype=mtype, args=args, line=ll.line)

    def _parse_accept(self, unit, ll: LogicalLine) -> AcceptStmt:
        toks = ll.tokens
        stmt = AcceptStmt(total=None, items=[], line=ll.line)
        i = 1
        # single-line: ACCEPT <n> OF T1, T2  |  ACCEPT T1  |  block form
        if i < len(toks):
            if toks[i].is_name("OF"):
                i += 1
            elif not toks[i].is_name("OF"):
                # count expression up to OF, or a bare type list
                j = i
                depth = 0
                of_at = None
                while j < len(toks):
                    if toks[j].is_op("("):
                        depth += 1
                    elif toks[j].is_op(")"):
                        depth -= 1
                    elif depth == 0 and toks[j].is_name("OF"):
                        of_at = j
                        break
                    j += 1
                if of_at is not None:
                    ep = ExprParser(toks[:of_at], i, ll.line)
                    stmt.total = ep.parse()
                    i = of_at + 1
        # remaining tokens on the line: type list
        if i < len(toks):
            names = self._parse_name_list(toks[i:], ll)
            for n in names:
                stmt.items.append(AcceptSpecItem(count=None, mtype=n))
            return stmt
        # Block form: type lines until DELAY or END ACCEPT.
        while True:
            nxt = self.peek_line()
            if nxt is None:
                raise ParseError("unterminated ACCEPT", ll.line)
            words = [t.text for t in nxt.tokens if t.kind is TokKind.NAME]
            if words[:1] == ["DELAY"]:
                self.next_line()
                ep = ExprParser(nxt.tokens, 1, nxt.line)
                stmt.delay = ep.parse()
                if ep.pos < len(nxt.tokens) and \
                        nxt.tokens[ep.pos].is_name("THEN"):
                    stmt.delay_body, _ = self._parse_block(
                        unit, ("END", "ACCEPT"))
                else:
                    _, _ = self._parse_block(unit, ("END", "ACCEPT"))
                    stmt.delay_body = []
                return stmt
            if words[:2] == ["END", "ACCEPT"]:
                self.next_line()
                return stmt
            self.next_line()
            stmt.items.append(self._parse_accept_item(nxt))

    def _parse_accept_item(self, ll: LogicalLine) -> AcceptSpecItem:
        toks = ll.tokens
        # A leading integer count was lexed as a statement label; put it
        # back (labels have no meaning on ACCEPT item lines).
        if ll.label is not None:
            toks = [Token(TokKind.INT, str(ll.label), ll.line, 0)] + toks
        # <count> OF <type> | ALL OF <type> | <type>
        of_at = None
        for j, t in enumerate(toks):
            if t.is_name("OF"):
                of_at = j
                break
        if of_at is None:
            if len(toks) == 1 and toks[0].kind is TokKind.NAME:
                return AcceptSpecItem(count=None, mtype=toks[0].text)
            raise ParseError(f"bad ACCEPT item {ll.text!r}", ll.line)
        if of_at == 1 and toks[0].is_name("ALL"):
            count: Union[str, object] = "ALL"
        else:
            ep = ExprParser(toks[:of_at], 0, ll.line)
            count = ep.parse()
        if of_at + 1 >= len(toks) or toks[of_at + 1].kind is not TokKind.NAME:
            raise ParseError("ACCEPT item needs a message type", ll.line)
        return AcceptSpecItem(count=count, mtype=toks[of_at + 1].text)

    def _parse_parseg(self, unit, ll: LogicalLine) -> ParsegStmt:
        segs: List[List] = []
        current: List = []
        while True:
            nxt = self.peek_line()
            if nxt is None:
                raise ParseError("unterminated PARSEG", ll.line)
            words = [t.text for t in nxt.tokens if t.kind is TokKind.NAME]
            if words[:1] == ["NEXTSEG"]:
                self.next_line()
                segs.append(current)
                current = []
                continue
            if words[:1] == ["ENDSEG"] or words[:2] == ["END", "SEG"]:
                self.next_line()
                segs.append(current)
                return ParsegStmt(segments=segs, line=ll.line)
            stmt = self._parse_statement(unit)
            if stmt is not None:
                current.append(stmt)

    def _parse_write(self, ll: LogicalLine) -> PrintStmt:
        """``WRITE (*, *) list`` -- list-directed terminal output only
        (unit numbers other than * are not supported)."""
        toks = ll.tokens
        ep = ExprParser(toks, 1, ll.line)
        ep.expect_op("(")
        for expected in ("*", ",", "*", ")"):
            t = ep.next()
            if not t.is_op(expected):
                raise ParseError(
                    "only WRITE (*,*) list-directed output is supported",
                    ll.line)
        items: List = []
        if ep.peek() is not None:
            while True:
                items.append(ep.parse())
                if ep.peek() is None:
                    break
                ep.expect_op(",")
        return PrintStmt(items=items, line=ll.line)

    def _parse_parameter(self, unit, ll: LogicalLine):
        """``PARAMETER (NAME = expr, ...)`` -- named constants become
        plain assignments evaluated once at unit entry."""
        toks = ll.tokens
        ep = ExprParser(toks, 1, ll.line)
        ep.expect_op("(")
        assigns: List[Assign] = []
        while True:
            t = ep.next()
            if t.kind is not TokKind.NAME:
                raise ParseError("PARAMETER needs NAME = value", ll.line)
            name = t.text
            ep.expect_op("=")
            value = ep.parse()
            assigns.append(Assign(target=Var(name), value=value,
                                  line=ll.line))
            t = ep.next()
            if t.is_op(")"):
                break
            if not t.is_op(","):
                raise ParseError("expected ',' or ')' in PARAMETER",
                                 ll.line)
        if len(assigns) == 1:
            return assigns[0]
        return MultiStmt(stmts=list(assigns), line=ll.line)

    def _parse_data(self, unit, ll: LogicalLine):
        """``DATA var /value/ [, var2 /value2/ ...]`` -- initializers
        become assignments at the point of declaration."""
        toks = ll.tokens
        i = 1
        assigns: List[Assign] = []
        while i < len(toks):
            if toks[i].kind is not TokKind.NAME:
                raise ParseError("DATA needs var /value/ pairs", ll.line)
            name = toks[i].text
            i += 1
            if i >= len(toks) or not toks[i].is_op("/"):
                raise ParseError("DATA needs /value/ after the name",
                                 ll.line)
            # The value is a (possibly signed) literal -- a full
            # expression parse would eat the closing '/' as division.
            ep = ExprParser(toks, i + 1, ll.line)
            sign = None
            if ep.peek() is not None and ep.peek().is_op("-", "+"):
                sign = ep.next().text
            value = ep.parse_primary()
            if sign == "-":
                value = UnOp("-", value)
            i = ep.pos
            if i >= len(toks) or not toks[i].is_op("/"):
                raise ParseError("unterminated /value/ in DATA", ll.line)
            i += 1
            assigns.append(Assign(target=Var(name), value=value,
                                  line=ll.line))
            if i < len(toks):
                if not toks[i].is_op(","):
                    raise ParseError("expected ',' between DATA items",
                                     ll.line)
                i += 1
        if not assigns:
            raise ParseError("empty DATA statement", ll.line)
        if len(assigns) == 1:
            return assigns[0]
        return MultiStmt(stmts=list(assigns), line=ll.line)

    def _parse_print(self, ll: LogicalLine) -> PrintStmt:
        toks = ll.tokens
        i = 1
        if i < len(toks) and toks[i].is_op("*"):
            i += 1
        if i < len(toks) and toks[i].is_op(","):
            i += 1
        items: List = []
        if i < len(toks):
            ep = ExprParser(toks, i, ll.line)
            while True:
                items.append(ep.parse())
                if ep.peek() is None:
                    break
                ep.expect_op(",")
        return PrintStmt(items=items, line=ll.line)

    def _parse_assign(self, ll: LogicalLine) -> Assign:
        toks = ll.tokens
        ep = ExprParser(toks, 0, ll.line)
        target = ep.parse_primary()
        if not isinstance(target, (Var, ArrayRef)):
            raise ParseError(f"bad assignment target in {ll.text!r}",
                             ll.line)
        t = ep.next()
        if not t.is_op("="):
            raise ParseError(f"cannot parse statement {ll.text!r} "
                             f"(expected '=')", ll.line)
        value = ep.parse()
        if ep.peek() is not None:
            raise ParseError(f"trailing tokens after assignment: "
                             f"{ep.peek().text!r}", ll.line)
        return Assign(target=target, value=value, line=ll.line)

    def _parse_expr(self, toks, start: int, line: int):
        ep = ExprParser(toks, start, line)
        e = ep.parse()
        return e
