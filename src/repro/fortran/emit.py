"""Expression and run-time-call emission for the Pisces Fortran
preprocessor.

:class:`OpEmitter` is the base class of
:class:`~repro.fortran.preprocessor.CodeGenerator` that spells
expressions, assignment targets and the statements that are one
run-time-library call each (SEND, ACCEPT and the window built-ins) as
Python source.  A call that returns a KernelOp generator is emitted as
``yield from ctx.<op>(...)``, so the unit it appears in is a generator.
Its methods write through ``self.em`` and, for an ACCEPT's DELAY
statements, ``self._gen_stmts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..errors import TranslationError
from . import runtime as _rt_mod
from .ast_nodes import (
    AcceptStmt, ArrayRef, BinOp, CallStmt, LogicalConst, Num, ProgramUnit,
    SendStmt, Str, UnOp, Var,
)

#: TASKID-valued (and force-related) special names usable in
#: expressions unless shadowed by a declaration: ``KIDS(I) = SENDER``.
#: MEMBER and FORCESIZE follow the paper's 1-based member numbering.
_SPECIAL_VARS = {
    "PARENT": "ctx.parent",
    "SENDER": "ctx.sender",
    "SELFID": "ctx.self_id",
    "MEMBER": "(ctx.member + 1)",
    "FORCESIZE": "ctx.force_size",
}

#: Built-in window subroutines (section 8 from Fortran):
#:   CALL WEXPORT('NAME', A)     export local array A under 'NAME'
#:   CALL WCREATE(W, 'NAME')     whole-array window on own 'NAME'
#:   CALL WFILE(W, 'NAME')       window on a file-store array
#:   CALL WSHRINK(W2, W, lo, hi [, lo2, hi2 ...])  1-based inclusive
#:   CALL WREAD(A, W)            read window contents into array A
#:   CALL WWRITE(W, A)           write array A through the window
WINDOW_BUILTINS = {"WEXPORT", "WCREATE", "WFILE", "WSHRINK", "WREAD",
                   "WWRITE"}
#: The window built-ins that move data through the window service, and
#: so suspend; the others only build or export window descriptors.
SUSPENDING_BUILTINS = {"WFILE", "WREAD", "WWRITE"}

_BINOP_PY = {
    "+": "+", "-": "-", "*": "*", "**": "**",
    ".EQ.": "==", ".NE.": "!=", ".LT.": "<", ".LE.": "<=",
    ".GT.": ">", ".GE.": ">=",
    ".AND.": "and", ".OR.": "or",
    "//": "+",        # character concatenation
}


@dataclass
class UnitInfo:
    """Name environment of one program unit, built from declarations."""

    unit: ProgramUnit
    types: Dict[str, str] = field(default_factory=dict)   # name -> ftype
    arrays: Set[str] = field(default_factory=set)
    shared_arrays: Set[str] = field(default_factory=set)
    shared_scalars: Set[str] = field(default_factory=set)
    array_dims: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, unit: ProgramUnit) -> "UnitInfo":
        info = cls(unit=unit)
        for d in unit.decls:
            for e in d.entities:
                info.types[e.name] = d.ftype
                if e.dims:
                    info.arrays.add(e.name)
                    info.array_dims[e.name] = _const_dims(e.dims, d.line)
        for sc in unit.shared:
            for e in sc.entities:
                if e.dims:
                    info.shared_arrays.add(e.name)
                    info.array_dims[e.name] = _const_dims(e.dims, sc.line)
                else:
                    info.shared_scalars.add(e.name)
        return info


def _const_dims(dims, line) -> Tuple[int, ...]:
    out = []
    for d in dims:
        if not isinstance(d, Num) or "." in d.text or "E" in d.text:
            raise TranslationError(
                f"line {line}: array dimensions must be integer constants")
        out.append(int(d.text))
    if len(out) > 2:
        raise TranslationError(
            f"line {line}: arrays have at most 2 dimensions (a window is "
            f"a rectangle of a row-major array)")
    return tuple(out)


class Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0
        self._gensym = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text if text else "")

    def gensym(self, stem: str) -> str:
        self._gensym += 1
        return f"_{stem}{self._gensym}"

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class OpEmitter:
    """Expressions and one-call statements (a base class of
    ``CodeGenerator``)."""

    def _gen_window_call(self, s: CallStmt, info: UnitInfo) -> None:
        """The CALL-spelled window built-ins (section 8)."""
        em = self.em
        a = s.args

        def need(n: int) -> None:
            if len(a) < n:
                raise TranslationError(
                    f"line {s.line}: {s.name} needs {n} arguments")

        def array_arg(e) -> str:
            if not isinstance(e, Var) or (e.name not in info.arrays
                                          and e.name not in info.shared_arrays):
                raise TranslationError(
                    f"line {s.line}: {s.name} needs a declared array, "
                    f"got {e!r}")
            return f"V.{e.name}"

        if s.name == "WEXPORT":
            need(2)
            em.emit(f"ctx.export_array({self._expr(a[0], info)}, "
                    f"{array_arg(a[1])}.data)")
        elif s.name == "WCREATE":
            need(2)
            em.emit(f"{self._lvalue(a[0], info)} = "
                    f"ctx.window({self._expr(a[1], info)})")
        elif s.name == "WFILE":
            need(2)
            em.emit(f"{self._lvalue(a[0], info)} = "
                    f"yield from ctx.file_window({self._expr(a[1], info)})")
        elif s.name == "WSHRINK":
            need(4)
            if len(a) % 2 != 0:
                raise TranslationError(
                    f"line {s.line}: WSHRINK needs lo/hi bound pairs")
            pairs = ", ".join(self._expr(x, info) for x in a[2:])
            em.emit(f"{self._lvalue(a[0], info)} = "
                    f"_rt.wshrink({self._expr(a[1], info)}, {pairs})")
        elif s.name == "WREAD":
            need(2)
            em.emit(f"yield from _rt.wread(ctx, {array_arg(a[0])}, "
                    f"{self._expr(a[1], info)})")
        elif s.name == "WWRITE":
            need(2)
            em.emit(f"yield from ctx.window_write({self._expr(a[0], info)}, "
                    f"{array_arg(a[1])}.data)")

    def _gen_send(self, s: SendStmt, info: UnitInfo) -> None:
        em = self.em
        if s.dest_kind in ("PARENT", "SELF", "SENDER", "USER"):
            dest = f"_rt.{s.dest_kind}"
        elif s.dest_kind == "TCONTR":
            dest = f"_rt.TContr(int({self._expr(s.dest_expr, info)}))"
        elif s.dest_kind == "ALL":
            if s.dest_expr is None:
                dest = "_rt.Broadcast(None)"
            else:
                dest = f"_rt.Broadcast(int({self._expr(s.dest_expr, info)}))"
        else:
            dest = self._expr(s.dest_expr, info)
        args = ", ".join(self._expr(a, info) for a in s.args)
        em.emit(f"ctx.send({dest}, {s.mtype!r}"
                f"{', ' if args else ''}{args})")

    def _gen_accept(self, s: AcceptStmt, info: UnitInfo) -> None:
        em = self.em
        specs = []
        for item in s.items:
            if item.count is None:
                specs.append(repr(item.mtype))
            elif item.count == "ALL":
                specs.append(f"({item.mtype!r}, _rt.ALL_RECEIVED)")
            else:
                specs.append(f"({item.mtype!r}, "
                             f"int({self._expr(item.count, info)}))")
        kw = []
        if s.total is not None:
            kw.append(f"count=int({self._expr(s.total, info)})")
        if s.delay is not None:
            kw.append(f"delay=int({self._expr(s.delay, info)})")
            kw.append("timeout_ok=True")
        call = f"yield from ctx.accept({', '.join(specs + kw)})"
        if not s.delay_body:
            em.emit(call)
            return
        # The DELAY statements run in this frame once the ACCEPT has
        # timed out, so they may suspend and RETURN like any others.
        res = em.gensym("accepted")
        em.emit(f"{res} = {call}")
        em.emit(f"if {res}.timed_out:")
        em.indent += 1
        self._gen_stmts(s.delay_body, info)
        em.indent -= 1

    # ------------------------------------------------------- expressions --

    def _lvalue(self, target, info: UnitInfo) -> str:
        if isinstance(target, Var):
            if target.name in info.shared_scalars:
                return f"V.{target.name}[()]"
            return f"V.{target.name}"
        if isinstance(target, ArrayRef):
            if (target.name not in info.arrays
                    and target.name not in info.shared_arrays):
                raise TranslationError(
                    f"assignment to undeclared array {target.name}")
            idx = ", ".join(self._expr(a, info) for a in target.args)
            return f"V.{target.name}[({idx},)]"
        raise TranslationError(f"bad assignment target {target!r}")

    def _expr(self, e, info: UnitInfo) -> str:
        if isinstance(e, Num):
            return e.text
        if isinstance(e, Str):
            return repr(e.value)
        if isinstance(e, LogicalConst):
            return "True" if e.value else "False"
        if isinstance(e, Var):
            if e.name in info.shared_scalars:
                return f"V.{e.name}[()]"
            if (e.name in _SPECIAL_VARS
                    and e.name not in info.types
                    and e.name not in info.unit.params
                    and e.name not in info.shared_arrays):
                return _SPECIAL_VARS[e.name]
            return f"V.{e.name}"
        if isinstance(e, ArrayRef):
            if e.name in info.arrays or e.name in info.shared_arrays:
                idx = ", ".join(self._expr(a, info) for a in e.args)
                return f"V.{e.name}[({idx},)]"
            if e.name in _rt_mod.INTRINSICS:
                args = ", ".join(self._expr(a, info) for a in e.args)
                return f"_rt.intrinsic({e.name!r})({args})"
            raise TranslationError(
                f"{e.name} is neither a declared array nor an intrinsic "
                f"(F77 user functions are not supported; use SUBROUTINE)")
        if isinstance(e, UnOp):
            operand = self._expr(e.operand, info)
            if e.op == ".NOT.":
                return f"(not {operand})"
            return f"({e.op}{operand})"
        if isinstance(e, BinOp):
            left, right = self._expr(e.left, info), self._expr(e.right, info)
            if e.op == "/":
                return f"_rt.div({left}, {right})"
            op = _BINOP_PY[e.op]
            return f"({left} {op} {right})"
        raise TranslationError(f"cannot translate expression {e!r}")
