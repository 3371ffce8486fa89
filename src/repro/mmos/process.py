"""Kernel process objects for the MMOS simulation.

Each PISCES task (and each force member) is one :class:`KernelProcess`.
The paper (section 11) says MMOS provides exactly this:
"multiprogramming, I/O to files and terminals, storage allocation, and a
few other services"; PISCES calls the kernel "primarily for process
creation and termination, input/output to the terminal, and swapping the
CPU among ready processes".

A process has one of two body forms (see ``docs/architecture.md``,
"The engine"):

* a *coroutine* body -- a generator function that yields
  :class:`KernelOp` values from :func:`co_charge` / :func:`co_preempt` /
  :func:`co_block` -- is resumed by a plain function call on the engine
  thread, with no OS thread at all;
* an ordinary callable body runs on a pinned worker thread that the
  engine admits one-at-a-time through a raw-lock handoff, switching
  only at kernel points.

:func:`drive_kernel_ops` runs the same op stream through the blocking
calls, so one program text is executable (and bit-identical) in both
forms.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Generator, Optional

#: Default ticks charged by a kernel point when the caller gives none.
#: (Re-exported by :mod:`repro.mmos.scheduler` for compatibility.)
DEFAULT_KERNEL_COST = 5


class ProcState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class KernelOp:
    """One kernel point yielded by a coroutine process body.

    Build them with :func:`co_charge`, :func:`co_preempt` and
    :func:`co_block`; the engine interprets the op and resumes the
    generator with the op's result (the waker's ``info`` for a block,
    ``None`` otherwise).  Ops are plain data so both body forms
    interpret the identical stream.
    """

    __slots__ = ("kind", "cost", "reason", "deadline")

    def __init__(self, kind: str, cost: int, reason: str = "",
                 deadline: Optional[int] = None):
        self.kind = kind
        self.cost = cost
        self.reason = reason
        self.deadline = deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.kind == "block":
            extra = f" reason={self.reason!r} deadline={self.deadline}"
        return f"<KernelOp {self.kind} cost={self.cost}{extra}>"


def co_charge(ticks: int) -> KernelOp:
    """Charge compute ticks to the current slice without yielding the
    PE (the coroutine form of ``engine.charge``)."""
    if ticks < 0:
        raise ValueError("cannot charge negative ticks")
    return KernelOp("charge", ticks)


#: Interned preempt ops for the common costs.  A KernelOp is read-only
#: data to both drivers (they only ever read kind/cost), and the
#: hot path yields one preempt per dispatch, so small costs share a
#: singleton instead of allocating a fresh op every time.
_PREEMPT_OPS = {c: KernelOp("preempt", c) for c in range(33)}


def co_preempt(cost: int = DEFAULT_KERNEL_COST) -> KernelOp:
    """A kernel point: charge ``cost`` and let the scheduler switch
    (the coroutine form of ``engine.preempt``)."""
    op = _PREEMPT_OPS.get(cost)
    return KernelOp("preempt", cost) if op is None else op


def co_block(reason: str, *, deadline: Optional[int] = None,
             cost: int = DEFAULT_KERNEL_COST) -> KernelOp:
    """Block until woken or until ``deadline`` (the coroutine form of
    ``engine.block``); the ``yield`` expression evaluates to the
    waker's ``info`` value."""
    return KernelOp("block", cost, reason, deadline)


def drive_kernel_ops(engine: Any, gen: Generator) -> Any:
    """Run a KernelOp-yielding generator to completion by mapping each
    op onto the engine's classic blocking calls.

    This is the synchronous driver at the KernelOp seam: the run-time
    library writes every suspending operation *once*, as a generator,
    and executes it in two ways -- a coroutine body ``yield from``s it
    (the ops reach the engine's slice loop), while a callable body on a
    worker thread drives it here.  Both interpret the identical op
    stream, which is what keeps the two body forms bit-identical in
    virtual time.

    If a blocking call unwinds (``ProcessKilled`` / ``EngineShutdown``),
    the generator is closed first so its cleanup handlers run at the
    suspension point -- the same ``GeneratorExit`` they observe when a
    coroutine body is killed.
    """
    try:
        val: Any = None
        while True:
            try:
                op = gen.send(val)
            except StopIteration as e:
                return e.value
            if not isinstance(op, KernelOp):
                raise RuntimeError(
                    f"kernel-op generator yielded {op!r}; expected a "
                    "KernelOp from co_charge/co_preempt/co_block")
            kind = op.kind
            if kind == "charge":
                engine.charge(op.cost)
                val = None
            elif kind == "preempt":
                engine.preempt(op.cost)
                val = None
            else:  # block
                val = engine.block(op.reason, deadline=op.deadline,
                                   cost=op.cost)
    except BaseException:
        gen.close()
        raise


_pid_counter = itertools.count(1)


class KernelProcess:
    """One simulated process: body vehicle + scheduling metadata.

    Scheduling fields are only touched by the single admitted runner
    (the engine loop or the process it granted the machine to).
    """

    def __init__(self, name: str, pe: int, target: Callable[[], Any],
                 daemon: bool = False):
        self.pid: int = next(_pid_counter)
        self.name = name
        self.pe = pe
        self.target = target
        #: Daemon processes (controllers) do not keep the run alive and
        #: are not counted as deadlocked parties.
        self.daemon = daemon

        self.state = ProcState.NEW
        #: This PE's clock object (set by ``Engine.spawn``; a process
        #: never migrates, so the engine's per-dispatch accounting reads
        #: it here instead of a clockmap lookup).
        self.clock: Any = None
        #: Virtual time at which the process may next be dispatched.
        self.ready_time: int = 0
        #: Absolute virtual deadline for a blocked-with-timeout process.
        self.deadline: Optional[int] = None
        #: Human-readable reason while blocked (for the deadlock dump).
        self.blocked_on: str = ""
        #: Value handed over by whoever woke us.
        self.wake_info: Any = None
        #: True when the last block ended by timeout, not by a wake.
        self.timed_out: bool = False

        #: Virtual time the current slice started (set by the engine).
        self.slice_start: int = 0
        #: Ticks charged so far in the current slice.
        self.pending_cost: int = 0

        self.killed = False
        self.exc: Optional[BaseException] = None
        self.result: Any = None
        #: Cleanup hook that runs in the process thread after the target
        #: returns, errors, OR is killed -- even if killed before its
        #: first slice.  Must not yield (no kernel blocking calls).
        self.on_exit: Optional[Callable[["KernelProcess"], None]] = None

        #: Worker thread of a callable body; None for coroutine bodies.
        self.thread: Optional[Any] = None
        #: The instantiated coroutine body; None for callable bodies.
        self.gen: Optional[Generator] = None
        #: Raw handoff lock of a callable body's worker: always held;
        #: the engine passes control by releasing it, the worker parks
        #: by re-acquiring.  None for coroutine bodies.
        self.handoff: Optional[Any] = None
        #: Dispatch sequence number of the last slice (for round-robin
        #: tie-breaking among processes sharing a PE).
        self.last_dispatched: int = 0
        #: Scheduling generation, bumped by the engine on every state
        #: change that can affect the dispatch key; heap entries carry
        #: the generation they were pushed with, so stale entries are
        #: recognized and discarded lazily at pop time.
        self.sched_gen: int = 0
        #: Per-engine spawn order (0-based), assigned by Engine.spawn.
        #: Pids come from a process-global counter and vary run to run;
        #: the schedule artifact (.psched) identifies processes by this
        #: run-stable ordinal instead.
        self.spawn_ordinal: int = -1

    # ------------------------------------------------------------------

    @property
    def live(self) -> bool:
        return self.state not in (ProcState.DONE,)

    def sched_snapshot(self) -> list:
        """Run-stable scheduling state for checkpoint digests.

        Identified by spawn ordinal, never pid (pids come from a
        process-global counter and differ across host processes); every
        field listed is bit-reproducible between a restored run and the
        uninterrupted original at the same schedule position.
        """
        return [self.spawn_ordinal, self.name, self.state.value,
                int(self.ready_time),
                None if self.deadline is None else int(self.deadline),
                self.blocked_on, bool(self.killed)]

    def describe(self) -> str:
        extra = ""
        if self.state is ProcState.BLOCKED:
            extra = f" on {self.blocked_on!r}"
            if self.deadline is not None:
                extra += f" (deadline {self.deadline})"
        return (f"pid {self.pid} {self.name!r} pe={self.pe} "
                f"{self.state.value}{extra} ready_time={self.ready_time}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelProcess {self.describe()}>"
