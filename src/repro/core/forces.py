"""Forces (section 7).

"A force ... is a set of simultaneously initiated tasks, all of the
same tasktype.  The members of a force are guaranteed to run
concurrently on different PE's.  Force members communicate through
shared variables and synchronize through barriers and critical regions."

In PISCES 2 any task may split into a force with FORCESPLIT; the member
count and the PEs running them are fixed by the *configuration* (one
member per secondary PE of the cluster, plus the primary), never by the
program text -- "the same program text may be executed without change by
a force of any number of members".
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import RuntimeLibraryError
from ..mmos.process import KernelProcess, co_block
from .loops import (
    SelfSchedCounter,
    parseg as _parseg,
    presched as _presched,
    selfsched as _selfsched,
    selfsched_do as _selfsched_do,
)
from .shared import LockState
from .sizes import COST_FORCESPLIT_BASE, COST_FORCESPLIT_PER_MEMBER
from .sync import (
    BarrierGeneration,
    _RUN_BODY,
    barrier as _barrier,
    critical as _critical,
    critical_gen as _critical_gen,
)
from .task import Task, TaskContext
from .tracing import TraceEventType


class Force:
    """Run-time state of one force (one FORCESPLIT execution)."""

    def __init__(self, task: Task, size: int):
        self.task = task
        self.size = size
        self.barrier_gen = 0
        self.current_barrier = BarrierGeneration(size)
        self.remaining = size
        self.results: Dict[int, Any] = {}
        self.primary_proc: Optional[KernelProcess] = None
        self.primary_waiting = False
        self.member_procs: Dict[int, KernelProcess] = {}
        # SELFSCHED loop counters, identified by per-member loop ordinal
        # (all members execute the same text, so ordinals line up).
        self._ss_counters: List[SelfSchedCounter] = []
        self._member_loop_ordinal: Dict[int, int] = {}

    def advance_barrier(self) -> None:
        self.barrier_gen += 1
        self.current_barrier = BarrierGeneration(self.size)

    def member_died(self, proc: KernelProcess) -> None:
        """A member was killed mid-region: shrink the membership so the
        survivors' barriers stop waiting for an arrival that will never
        come.  Runs from the dying member's exit hook.
        """
        self.size -= 1
        gen = self.current_barrier
        gen.size -= 1
        if proc in gen.waiting:
            # It was parked at the barrier: retract its arrival.
            gen.waiting.remove(proc)
            gen.arrived -= 1
        if (not gen.complete and gen.size > 0
                and gen.arrived >= gen.size
                and gen.primary_proc is not None):
            # The dead member was the straggler: every survivor is
            # parked, so complete the generation through the primary
            # (it runs the body and releases the others).
            self.advance_barrier()
            self.task.vm.engine.wake(gen.primary_proc, info=_RUN_BODY)

    def selfsched_counter(self, member: "ForceContext",
                          total: int) -> SelfSchedCounter:
        ordinal = self._member_loop_ordinal.get(member.member, 0)
        self._member_loop_ordinal[member.member] = ordinal + 1
        if ordinal == len(self._ss_counters):
            self._ss_counters.append(SelfSchedCounter(total))
        counter = self._ss_counters[ordinal]
        if counter.total != total:
            raise RuntimeLibraryError(
                f"SELFSCHED loop {ordinal}: members disagree on iteration "
                f"count ({counter.total} vs {total})")
        return counter

    def snapshot(self) -> dict:
        """Digestable force state for checkpoints: sizes, barrier
        generation, the in-flight :class:`BarrierGeneration`, and the
        SELFSCHED loop cursors (all run-stable at a given schedule
        position)."""
        return {"size": int(self.size),
                "remaining": int(self.remaining),
                "barrier_gen": int(self.barrier_gen),
                "current": self.current_barrier.snapshot(),
                "selfsched": [[int(c.total), int(c.next_index)]
                              for c in self._ss_counters]}


class ForceContext(TaskContext):
    """A force member's view: the full task API plus force operations."""

    def __init__(self, task: Task, process: KernelProcess, force: Force,
                 member: int, coroutine: bool = False):
        super().__init__(task, process, coroutine=coroutine)
        self._force = force
        self.member = member

    @property
    def force(self) -> Force:
        return self._force

    @property
    def is_primary(self) -> bool:
        """Member 0 is the original task continuing as the primary."""
        return self.member == 0

    @property
    def force_size(self) -> int:
        return self._force.size

    # ------------------------------------------------------------- sync --

    def barrier(self, body: Optional[Callable[[], None]] = None):
        """``BARRIER ... END BARRIER``: all members pause; when all have
        arrived the *primary* runs ``body``; then all continue.  In
        coroutine mode: ``yield from m.barrier(...)`` (``body`` may be
        a generator function)."""
        return self._run(_barrier(self.vm.engine, self._force, self, body))

    def critical(self, lock: Union[LockState, str]):
        """``CRITICAL <lock> ... END CRITICAL``.

        Callable mode: an ordinary context manager (``with
        m.critical("RED"): ...``).  Coroutine mode: the acquire wait
        suspends at the KernelOp seam, so the member writes ``with
        (yield from m.critical("RED")): ...`` -- the yielded-from
        generator resolves to a held-lock context manager whose exit
        releases synchronously.
        """
        lk = self.lock(lock) if isinstance(lock, str) else lock
        if self.coroutine:
            return _critical_gen(self.vm.engine, self._force, self, lk)
        return _critical(self.vm.engine, self._force, self, lk)

    # ------------------------------------------------------------ loops --

    def presched(self, iterations: Union[int, range, Sequence]) -> Iterator:
        """``PRESCHED DO``: cyclic static partition of the iterations."""
        return _presched(self, iterations)

    def selfsched(self, iterations: Union[int, range, Sequence]) -> Iterator:
        """``SELFSCHED DO``: members grab the next iteration dynamically.

        Callable mode only: the iterator form cannot carry each fetch's
        suspension out of a ``for`` body.  Coroutine members use
        :meth:`selfsched_do`.
        """
        if self.coroutine:
            raise RuntimeLibraryError(
                "SELFSCHED's iterator form cannot suspend from inside a "
                "for loop; coroutine members use "
                "yield from m.selfsched_do(iterations, body)")
        return _selfsched(self.vm.engine, self, iterations)

    def selfsched_do(self, iterations: Union[int, range, Sequence],
                     body: Callable[[Any], Any]):
        """``SELFSCHED DO`` driving ``body(item)`` per claimed
        iteration; returns this member's results.  Works in both modes
        (coroutine members: ``yield from m.selfsched_do(n, body)``)."""
        return self._run(
            _selfsched_do(self.vm.engine, self, iterations, body))

    def parseg(self, *segments: Callable[[], Any]):
        """``PARSEG / NEXTSEG / ENDSEG``: parallel statement sequences.
        In coroutine mode: ``yield from m.parseg(...)`` (segments may
        be generator functions)."""
        return self._run(_parseg(self, segments))


def do_forcesplit(ctx: TaskContext, region: Callable[..., Any],
                  args: Tuple[Any, ...]):
    """Implementation of ``TaskContext.forcesplit``.

    A KernelOp generator (the primary's join wait is a suspension
    point).  A generator-function ``region`` runs in coroutine mode:
    the primary ``yield from``s it in place, and every secondary member
    spawns as a coroutine process -- unless the task-body vehicle is
    forced to "callable", in which case members drive the identical op
    stream through blocking calls on worker threads.
    """
    if isinstance(ctx, ForceContext):
        raise RuntimeLibraryError("nested FORCESPLIT is not supported")
    task = ctx.task
    if task.force is not None:
        raise RuntimeLibraryError("task is already split into a force")
    vm = task.vm
    eng = vm.engine
    cluster = task.cluster
    size = cluster.force_size
    eng.charge(COST_FORCESPLIT_BASE + size * COST_FORCESPLIT_PER_MEMBER)
    task.trace(TraceEventType.FORCE_SPLIT, info=f"size={size}")
    vm.counts.forcesplits[cluster.number].value += 1
    metrics = vm.metrics
    if metrics.enabled:
        metrics.histogram("force_size", cluster=cluster.number).observe(size)

    creg = inspect.isgeneratorfunction(region)
    force = Force(task, size)
    task.force = force
    force.primary_proc = ctx.process
    try:
        if size > 1:
            for i, pe in enumerate(cluster.secondary_pes, start=1):
                body = _member_body(vm, task, force, i, region, args)
                p = vm.kernel.create_process(
                    f"{task.ttype.name}@{task.tid}#f{i}", pe, body)
                p.on_exit = _member_exit(vm, force)
                force.member_procs[i] = p
        # The primary is member 0 and executes the region itself.
        mctx = ForceContext(task, ctx.process, force, 0, coroutine=creg)
        if creg:
            force.results[0] = yield from region(mctx, *args)
        else:
            force.results[0] = region(mctx, *args)
        force.remaining -= 1
        while force.remaining > 0:
            force.primary_waiting = True
            yield co_block("force-join")
            force.primary_waiting = False
        # A member killed mid-region leaves no result: its slot is None.
        return [force.results.get(i) for i in range(size)]
    finally:
        task.force = None


def _member_body(vm, task: Task, force: Force, member: int,
                 region: Callable[..., Any], args: Tuple[Any, ...]):
    if inspect.isgeneratorfunction(region):
        def genbody():
            eng = vm.engine
            mctx = ForceContext(task, eng.current(), force, member,
                                coroutine=True)
            force.results[member] = yield from region(mctx, *args)
        return genbody

    def body() -> None:
        eng = vm.engine
        mctx = ForceContext(task, eng.current(), force, member)
        force.results[member] = region(mctx, *args)
    return body


def _member_exit(vm, force: Force):
    """on_exit hook: runs even when the member is killed before/after
    its region, so the primary's join never hangs."""
    def hook(proc) -> None:
        if proc.killed:
            # Abnormal death: unstrand siblings parked at a barrier.
            force.member_died(proc)
        force.remaining -= 1
        if force.remaining == 0 and force.primary_waiting:
            vm.engine.wake(force.primary_proc)
    return hook
