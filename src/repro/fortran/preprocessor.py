"""The Pisces Fortran preprocessor: AST -> Python source -> registry.

Section 10/11: "The Preprocessor.  A separate Unix program that
translates Pisces Fortran into standard Fortran 77 with calls on
routines in the Pisces run-time library."  Here the emitted host code
is Python; every Pisces statement becomes the corresponding
run-time-library call, and the generated module finishes by registering
its tasktypes in a :class:`~repro.core.task.TaskRegistry` ready to run
on a :class:`~repro.core.vm.PiscesVM`.

The emitted units are coroutine bodies: a run-time call that can
suspend (COMPUTE, ACCEPT, FORCESPLIT, BARRIER, CRITICAL, SELFSCHED,
PARSEG, the window transfers) is ``yield from ctx.<op>(...)``.  Every
TASK and force region is a generator, so each task and force member
runs as a coroutine process with no thread of its own; a SUBROUTINE,
HANDLER, segment or loop body is a generator only when it can suspend,
directly or through a CALL.

Use :func:`preprocess` for source -> program object, or the lower-level
:func:`generate_python` to inspect the emitted code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.task import TaskRegistry
from ..errors import TranslationError
from . import runtime as _rt_mod
from .ast_nodes import (
    AcceptStmt, Assign, BarrierStmt, CallStmt, ComputeStmt, ContinueStmt,
    CriticalStmt, DoLoop, ForceSplitStmt, IfBlock, InitiateStmt, LogicalIf,
    MultiStmt, ParsegStmt, PrintStmt, Program, ProgramUnit, ReturnStmt,
    SendStmt, StopStmt, WhileLoop,
)
from .emit import (
    SUSPENDING_BUILTINS, WINDOW_BUILTINS, Emitter, OpEmitter, UnitInfo,
)
from .parser import parse_source

#: Statements that always suspend: each is a run-time-library call that
#: returns a KernelOp generator.
_SUSPENDING = (AcceptStmt, BarrierStmt, ComputeStmt, CriticalStmt,
               ForceSplitStmt, ParsegStmt)


def _nested(s) -> List[List]:
    """The statement lists inside ``s`` that run in the same frame as
    ``s`` (a nested function's body runs in a frame of its own)."""
    if isinstance(s, IfBlock):
        return [*s.arms, s.else_arm or []]
    if isinstance(s, (DoLoop, WhileLoop, CriticalStmt)):
        return [s.body]
    if isinstance(s, LogicalIf):
        return [[s.stmt]]
    if isinstance(s, AcceptStmt):
        return [s.delay_body or []]
    return []


def _returns(stmts) -> bool:
    """Whether ``stmts`` hold a RETURN or STOP in their own frame."""
    return any(isinstance(s, (ReturnStmt, StopStmt))
               or any(map(_returns, _nested(s))) for s in stmts)


class CodeGenerator(OpEmitter):
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
        # The names a CALL suspends through: the window transfers, then
        # every SUBROUTINE or HANDLER whose body can suspend, to a
        # fixed point over the call graph.
        self.suspending = set(SUSPENDING_BUILTINS)
        callees = [u for u in program.units if u.kind != "TASK"]
        grew = True
        while grew:
            grew = False
            for u in callees:
                if u.name not in self.suspending and self._suspends(u.body):
                    self.suspending.add(u.name)
                    grew = True

    def _suspends(self, stmts) -> bool:
        """Whether running ``stmts`` can suspend their frame."""
        return any(isinstance(s, _SUSPENDING)
                   or (isinstance(s, CallStmt) and s.name in self.suspending)
                   or (isinstance(s, DoLoop) and s.sched == "SELFSCHED")
                   or any(map(self._suspends, _nested(s)))
                   for s in stmts)

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
        self._gen_body(unit.body, info, coroutine=unit.kind == "TASK")
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

    def _gen_body(self, stmts: List, info: UnitInfo,
                  coroutine: bool = False) -> None:
        """A function body.  ``coroutine`` makes it a generator even when
        nothing in it suspends: a TASK or force member then runs as a
        coroutine process, with no thread."""
        self._gen_stmts(stmts, info)
        if coroutine and not self._suspends(stmts):
            self.em.emit("return")
            self.em.emit("yield")

    def _gen_def(self, construct: str, line: int, stem: str, params: str,
                 stmts: List, info: UnitInfo, *prologue: str) -> str:
        """A nested function over ``stmts``, the body of the
        ``construct`` at ``line`` (a generator when they can suspend);
        returns its name.  A RETURN or STOP there would leave only this
        function and the unit would go on, so it is refused."""
        if _returns(stmts):
            raise TranslationError(
                f"line {line}: RETURN or STOP inside a {construct}")
        em = self.em
        fn = em.gensym(stem)
        em.emit(f"def {fn}({params}):")
        em.indent += 1
        for line in prologue:
            em.emit(line)
        self._gen_stmts(stmts, info)
        em.indent -= 1
        return fn

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
            lv = em.gensym("i")
            if s.sched == "SELFSCHED":
                # Each claim is a preemption point, so the body runs as
                # a function per claimed iteration.
                fn = self._gen_def("SELFSCHED DO", s.line, "selfsched_body",
                                   lv, s.body, info, f"V.{s.var} = {lv}")
                em.emit(f"yield from ctx.selfsched_do({rng}, {fn})")
                return
            if s.sched == "PRESCHED":
                rng = f"ctx.presched({rng})"
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
            if s.name in WINDOW_BUILTINS:
                self._gen_window_call(s, info)
            elif s.name in self.subroutines:
                args = ", ".join(self._expr(a, info) for a in s.args)
                call = f"_sub_{s.name}(ctx{', ' if args else ''}{args})"
                em.emit(f"yield from {call}" if s.name in self.suspending
                        else call)
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
            ticks = self._expr(s.ticks, info)
            em.emit(f"yield from ctx.compute(int({ticks}))")
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
            self._gen_body(s.rest, info, coroutine=True)
            em.indent -= 1
            em.emit(f"yield from ctx.forcesplit({fn}, V)")
        elif isinstance(s, BarrierStmt):
            if s.body:
                fn = self._gen_def("BARRIER body", s.line, "barrier_body",
                                   "", s.body, info)
                em.emit(f"yield from ctx.barrier({fn})")
            else:
                em.emit("yield from ctx.barrier()")
        elif isinstance(s, CriticalStmt):
            em.emit(f"with (yield from ctx.critical({s.lock!r})):")
            em.indent += 1
            self._gen_stmts(s.body, info)
            em.indent -= 1
        elif isinstance(s, ParsegStmt):
            names = [self._gen_def("PARSEG segment", s.line, "seg", "",
                                   seg, info) for seg in s.segments]
            em.emit(f"yield from ctx.parseg({', '.join(names)})")
        else:
            raise TranslationError(f"cannot translate {type(s).__name__}")


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
