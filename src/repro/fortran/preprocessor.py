"""The Pisces Fortran preprocessor: AST -> Python source -> registry.

Section 10/11: "The Preprocessor.  A separate Unix program that
translates Pisces Fortran into standard Fortran 77 with calls on
routines in the Pisces run-time library."  Here the emitted host code
is Python; every Pisces statement becomes the corresponding
run-time-library call, and the generated module finishes by registering
its tasktypes in a :class:`~repro.core.task.TaskRegistry` ready to run
on a :class:`~repro.core.vm.PiscesVM`.

Use :func:`preprocess` for source -> program object, or the lower-level
:func:`generate_python` to inspect the emitted code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.task import TaskRegistry
from ..errors import TranslationError
from . import runtime as _rt_mod
from .ast_nodes import (
    AcceptStmt, ArrayRef, Assign, BarrierStmt, BinOp, CallStmt, ComputeStmt,
    ContinueStmt, CriticalStmt, Declaration, DoLoop, ForceSplitStmt, IfBlock,
    InitiateStmt, LogicalConst, LogicalIf, MultiStmt, Num, ParsegStmt,
    PrintStmt, Program, ProgramUnit, ReturnStmt, SendStmt, StopStmt, Str,
    UnOp, Var, WhileLoop,
)
from .parser import parse_source

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
_WINDOW_BUILTINS = {"WEXPORT", "WCREATE", "WFILE", "WSHRINK", "WREAD",
                    "WWRITE"}

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


class CodeGenerator:
    """Translates one parsed Program into a Python module source."""

    def __init__(self, program: Program):
        self.program = program
        self.em = Emitter()
        self.infos: Dict[str, UnitInfo] = {
            u.name: UnitInfo.build(u) for u in program.units}
        self.subroutines = {u.name for u in program.units
                            if u.kind == "SUBROUTINE"}
        self.handler_units = {u.name for u in program.units
                              if u.kind == "HANDLER"}

    # --------------------------------------------------------------- top --

    def generate(self) -> str:
        em = self.em
        em.emit("# Generated by the Pisces Fortran preprocessor; do not edit.")
        em.emit("from repro.fortran import runtime as _rt")
        em.emit()
        for unit in self.program.units:
            self._gen_unit(unit)
            em.emit()
        self._gen_registrations()
        return em.source()

    def _fn_name(self, unit: ProgramUnit) -> str:
        prefix = {"TASK": "_task_", "SUBROUTINE": "_sub_",
                  "HANDLER": "_hnd_"}[unit.kind]
        return prefix + unit.name

    # -------------------------------------------------------------- unit --

    def _gen_unit(self, unit: ProgramUnit) -> None:
        em = self.em
        info = self.infos[unit.name]
        em.emit(f"def {self._fn_name(unit)}(ctx, *_args):")
        em.indent += 1
        em.emit("V = _rt.Namespace()")
        for i, p in enumerate(unit.params):
            em.emit(f"V.{p} = _args[{i}]")
        # Local array allocation and scalar zero-initialization.
        for d in unit.decls:
            for e in d.entities:
                if e.name in unit.params:
                    continue
                if e.dims:
                    dims = info.array_dims[e.name]
                    em.emit(f"V.{e.name} = _rt.FArray({d.ftype!r}, {dims!r})")
                else:
                    em.emit(f"V.{e.name} = {_rt_mod.zero_for(d.ftype)!r}")
        # SHARED COMMON bindings (blocks were allocated at initiation).
        for sc in unit.shared:
            blk = em.gensym("blk")
            em.emit(f"{blk} = ctx.common({sc.block!r})")
            for e in sc.entities:
                if e.dims:
                    em.emit(f"V.{e.name} = _rt.FArray.wrap({blk}.{e.name})")
                else:
                    em.emit(f"V.{e.name} = {blk}.{e.name}")
        if not unit.body:
            em.emit("pass")
        else:
            self._gen_stmts(unit.body, info)
        em.indent -= 1

    def _gen_registrations(self) -> None:
        em = self.em
        em.emit("def _register(_registry):")
        em.indent += 1
        any_task = False
        for unit in self.program.units:
            if unit.kind != "TASK":
                continue
            any_task = True
            handlers = {}
            for t in unit.handler_types:
                if t not in self.handler_units:
                    raise TranslationError(
                        f"task {unit.name}: HANDLER type {t} has no "
                        f"HANDLER {t} definition (the handler subroutine "
                        f"has the same name as the message type)")
                handlers[t] = f"_hnd_{t}"
            hsrc = ("{" + ", ".join(f"{k!r}: {v}"
                                    for k, v in handlers.items()) + "}")
            shared_src = self._shared_spec_src(unit)
            em.emit(f"_registry.tasktype({unit.name!r}, handlers={hsrc}, "
                    f"signals={tuple(unit.signal_types)!r}, "
                    f"shared={shared_src}, "
                    f"locks={tuple(unit.locks)!r})"
                    f"(_task_{unit.name})")
        if not any_task:
            em.emit("pass")
        em.indent -= 1

    def _shared_spec_src(self, unit: ProgramUnit) -> str:
        info = self.infos[unit.name]
        blocks = []
        for sc in unit.shared:
            entries = []
            for e in sc.entities:
                ftype = info.types.get(e.name, "REAL")
                dtype = _rt_mod.dtype_for(ftype)
                dims = info.array_dims.get(e.name, ()) if e.dims else ()
                entries.append(f"{e.name!r}: ({dtype!r}, {dims!r})")
            blocks.append(f"{sc.block!r}: {{" + ", ".join(entries) + "}")
        return "{" + ", ".join(blocks) + "}"

    # -------------------------------------------------------- statements --

    def _gen_stmts(self, stmts: List, info: UnitInfo) -> None:
        if not stmts:
            self.em.emit("pass")
            return
        for s in stmts:
            self._gen_stmt(s, info)

    def _gen_stmt(self, s, info: UnitInfo) -> None:
        em = self.em
        if isinstance(s, Assign):
            em.emit(f"{self._lvalue(s.target, info)} = "
                    f"{self._expr(s.value, info)}")
        elif isinstance(s, MultiStmt):
            for sub in s.stmts:
                self._gen_stmt(sub, info)
        elif isinstance(s, IfBlock):
            for i, (cond, arm) in enumerate(zip(s.conditions, s.arms)):
                kw = "if" if i == 0 else "elif"
                em.emit(f"{kw} {self._expr(cond, info)}:")
                em.indent += 1
                self._gen_stmts(arm, info)
                em.indent -= 1
            if s.else_arm is not None:
                em.emit("else:")
                em.indent += 1
                self._gen_stmts(s.else_arm, info)
                em.indent -= 1
        elif isinstance(s, LogicalIf):
            em.emit(f"if {self._expr(s.condition, info)}:")
            em.indent += 1
            self._gen_stmt(s.stmt, info)
            em.indent -= 1
        elif isinstance(s, DoLoop):
            rng = (f"_rt.frange({self._expr(s.first, info)}, "
                   f"{self._expr(s.last, info)}"
                   + (f", {self._expr(s.step, info)}" if s.step else "")
                   + ")")
            if s.sched == "PRESCHED":
                rng = f"ctx.presched({rng})"
            elif s.sched == "SELFSCHED":
                rng = f"ctx.selfsched({rng})"
            lv = em.gensym("i")
            em.emit(f"for {lv} in {rng}:")
            em.indent += 1
            em.emit(f"V.{s.var} = {lv}")
            self._gen_stmts(s.body, info)
            em.indent -= 1
        elif isinstance(s, WhileLoop):
            em.emit(f"while {self._expr(s.condition, info)}:")
            em.indent += 1
            self._gen_stmts(s.body, info)
            em.indent -= 1
        elif isinstance(s, CallStmt):
            if s.name in _WINDOW_BUILTINS:
                self._gen_window_call(s, info)
            elif s.name in self.subroutines:
                args = ", ".join(self._expr(a, info) for a in s.args)
                em.emit(f"_sub_{s.name}(ctx{', ' if args else ''}{args})")
            else:
                raise TranslationError(
                    f"line {s.line}: CALL of undefined subroutine {s.name}")
        elif isinstance(s, PrintStmt):
            args = ", ".join(self._expr(e, info) for e in s.items)
            em.emit(f"ctx.print(_rt.fmt({args}))")
        elif isinstance(s, (ReturnStmt, StopStmt)):
            em.emit("return")
        elif isinstance(s, ContinueStmt):
            em.emit("pass")
        elif isinstance(s, ComputeStmt):
            em.emit(f"ctx.compute(int({self._expr(s.ticks, info)}))")
        elif isinstance(s, InitiateStmt):
            if isinstance(s.placement, str):
                on = f"_rt.{s.placement}"
            else:
                on = f"int({self._expr(s.placement, info)})"
            args = ", ".join(self._expr(a, info) for a in s.args)
            em.emit(f"ctx.initiate({s.tasktype!r}"
                    f"{', ' if args else ''}{args}, on={on})")
        elif isinstance(s, SendStmt):
            self._gen_send(s, info)
        elif isinstance(s, AcceptStmt):
            self._gen_accept(s, info)
        elif isinstance(s, ForceSplitStmt):
            fn = em.gensym("force_region")
            em.emit(f"def {fn}(ctx, _V0):")
            em.indent += 1
            em.emit("V = _V0.copy()")
            self._gen_stmts(s.rest, info)
            em.indent -= 1
            em.emit(f"ctx.forcesplit({fn}, V)")
        elif isinstance(s, BarrierStmt):
            if s.body:
                fn = em.gensym("barrier_body")
                em.emit(f"def {fn}():")
                em.indent += 1
                self._gen_stmts(s.body, info)
                em.indent -= 1
                em.emit(f"ctx.barrier({fn})")
            else:
                em.emit("ctx.barrier()")
        elif isinstance(s, CriticalStmt):
            em.emit(f"with ctx.critical({s.lock!r}):")
            em.indent += 1
            self._gen_stmts(s.body, info)
            em.indent -= 1
        elif isinstance(s, ParsegStmt):
            names = []
            for seg in s.segments:
                fn = em.gensym("seg")
                names.append(fn)
                em.emit(f"def {fn}():")
                em.indent += 1
                self._gen_stmts(seg, info)
                em.indent -= 1
            em.emit(f"ctx.parseg({', '.join(names)})")
        else:
            raise TranslationError(f"cannot translate {type(s).__name__}")

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
                    f"ctx.file_window({self._expr(a[1], info)})")
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
            em.emit(f"_rt.wread(ctx, {array_arg(a[0])}, "
                    f"{self._expr(a[1], info)})")
        elif s.name == "WWRITE":
            need(2)
            em.emit(f"ctx.window_write({self._expr(a[0], info)}, "
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
        if s.delay_body:
            fn = em.gensym("delay_body")
            em.emit(f"def {fn}():")
            em.indent += 1
            self._gen_stmts(s.delay_body, info)
            em.indent -= 1
            kw.append(f"on_timeout={fn}")
        elif s.delay is not None:
            # DELAY with an empty statement sequence: continue silently.
            kw.append("timeout_ok=True")
        em.emit(f"ctx.accept({', '.join(specs + kw)})")

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


@dataclass
class PiscesFortranProgram:
    """The preprocessor's output: emitted Python plus a live registry."""

    fortran_source: str
    python_source: str
    registry: TaskRegistry
    program: Program

    def task_names(self) -> List[str]:
        return [u.name for u in self.program.tasks()]


def generate_python(source: str) -> Tuple[str, Program]:
    """Parse and translate; returns (python_source, ast)."""
    program = parse_source(source)
    return CodeGenerator(program).generate(), program


def preprocess(source: str) -> PiscesFortranProgram:
    """Full pipeline: Pisces Fortran source -> runnable registry."""
    python_source, program = generate_python(source)
    namespace: Dict[str, Any] = {}
    code = compile(python_source, "<pisces-fortran>", "exec")
    exec(code, namespace)  # noqa: S102 - the code was generated just above
    registry = TaskRegistry()
    namespace.pop("_register")(registry)
    return PiscesFortranProgram(fortran_source=source,
                                python_source=python_source,
                                registry=registry, program=program)
