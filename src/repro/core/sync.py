"""Force synchronization: BARRIER and CRITICAL (section 7).

BARRIER: "All members of the force pause on reaching the start of the
barrier.  When all have arrived, the primary force member executes the
statement sequence, and then all force members continue."

CRITICAL <lock>: fetch the lock value; if unlocked, lock it and enter;
otherwise wait until it becomes unlocked.  Waiters are granted FIFO.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Callable, List, Optional, TYPE_CHECKING

from ..errors import ProcessKilled, RuntimeLibraryError
from ..mmos.process import KernelProcess, co_block, drive_kernel_ops
from ..mmos.scheduler import Engine
from .shared import LockState
from .sizes import COST_BARRIER, COST_LOCK, COST_UNLOCK
from .tracing import TraceEvent, TraceEventType

if TYPE_CHECKING:  # pragma: no cover
    from .forces import Force, ForceContext

_RUN_BODY = "barrier:primary-run-body"
_RELEASE = "barrier:release"


class BarrierGeneration:
    """State of one use of the barrier by a force.

    The engine admits one process at a time, so plain counters are safe;
    the subtlety is the release protocol: the *primary* member must run
    the body between the last arrival and the general release, even when
    the primary was not the last to arrive.
    """

    def __init__(self, size: int):
        self.size = size
        self.arrived = 0
        self.waiting: List[KernelProcess] = []
        self.primary_proc: Optional[KernelProcess] = None
        self.complete = False

    def snapshot(self) -> list:
        """Digestable state for checkpoints: counters only -- waiter
        identities are pinned by the process snapshots."""
        return [int(self.size), int(self.arrived), len(self.waiting),
                bool(self.complete)]


def barrier(engine: Engine, force: "Force", member: "ForceContext",
            body: Optional[Callable[[], None]] = None):
    """Execute one BARRIER from ``member``'s execution stream.

    A KernelOp generator: coroutine members ``yield from`` it, callable
    members drive it through the classic blocking calls (see
    :func:`~repro.mmos.process.drive_kernel_ops`).  ``body`` may itself
    be a generator function when it needs to suspend.
    """
    proc = engine.charge(COST_BARRIER)
    force.task.trace(TraceEventType.BARRIER_ENTER,
                     info=f"member={member.member} gen={force.barrier_gen}")
    metrics = force.task.vm.metrics
    entered_at = engine.now() if metrics.enabled else 0

    def observe_wait() -> None:
        if metrics.enabled:
            metrics.histogram(
                "barrier_wait_ticks", cluster=force.task.cluster.number
            ).observe(engine.now() - entered_at)

    gen = force.current_barrier
    det = force.task.vm.race_detector
    if det is not None:
        # Happens-before: every arrival exports its clock into the
        # generation; whoever runs the body joins the full set, and the
        # release wakes carry it to the remaining members transitively.
        det.on_barrier_arrive(gen, proc, force.barrier_gen, member.member)
    if member.is_primary:
        gen.primary_proc = proc
    gen.arrived += 1
    if gen.arrived < gen.size:
        gen.waiting.append(proc)
        info = yield co_block(f"barrier(gen {force.barrier_gen})")
        if info == _RUN_BODY:
            # Last arrival was not the primary; we are, so run the body
            # and release everyone else.
            if det is not None:
                det.on_barrier_body(gen, proc)
            if body is not None:
                if inspect.isgeneratorfunction(body):
                    yield from body()
                else:
                    body()
            _release_others(engine, gen, proc)
        # info == _RELEASE: nothing more to do.
        observe_wait()
        return
    # We are the last to arrive.
    force.advance_barrier()
    if member.is_primary:
        if det is not None:
            det.on_barrier_body(gen, proc)
        if body is not None:
            if inspect.isgeneratorfunction(body):
                yield from body()
            else:
                body()
        _release_others(engine, gen, proc)
    else:
        if gen.primary_proc is None:
            raise RuntimeLibraryError("barrier finished before primary arrived")
        gen.waiting.remove(gen.primary_proc)
        gen.waiting.append(proc)
        engine.wake(gen.primary_proc, info=_RUN_BODY)
        yield co_block(f"barrier-post(gen {force.barrier_gen - 1})")
    observe_wait()


def _release_others(engine: Engine, gen: BarrierGeneration,
                    me: KernelProcess) -> None:
    gen.complete = True
    for p in gen.waiting:
        if p is not me:
            engine.wake(p, info=_RELEASE)
    gen.waiting.clear()


@contextmanager
def critical(engine: Engine, force: "Force", member: "ForceContext",
             lock: LockState):
    """``CRITICAL <lock> ... END CRITICAL`` as a context manager
    (callable mode: the acquire wait blocks in place)."""
    drive_kernel_ops(engine, acquire_lock(engine, force, member, lock))
    try:
        yield
    finally:
        release_lock(engine, force, member, lock)


class HeldLock:
    """A held CRITICAL region, as a plain (non-suspending) context
    manager: coroutine members write ``with (yield from
    m.critical(lk)): ...``.  Release is synchronous -- charge plus a
    FIFO ownership hand-off, never a wait -- so ``__exit__`` is legal
    even while the body unwinds from a kill (``GeneratorExit`` forbids
    further yields)."""

    __slots__ = ("engine", "force", "member", "lock")

    def __init__(self, engine: Engine, force: "Force",
                 member: "ForceContext", lock: LockState):
        self.engine = engine
        self.force = force
        self.member = member
        self.lock = lock

    def __enter__(self) -> LockState:
        return self.lock

    def __exit__(self, *exc) -> bool:
        release_lock(self.engine, self.force, self.member, self.lock)
        return False


def critical_gen(engine: Engine, force: "Force", member: "ForceContext",
                 lock: LockState):
    """Coroutine form of :func:`critical`: a KernelOp generator whose
    value is the :class:`HeldLock` to enter."""
    yield from acquire_lock(engine, force, member, lock)
    return HeldLock(engine, force, member, lock)


def acquire_lock(engine: Engine, force: "Force", member: "ForceContext",
                 lock: LockState):
    """Acquire a CRITICAL lock (a KernelOp generator)."""
    proc = engine.charge(COST_LOCK)
    metrics = force.task.vm.metrics
    wanted_at = engine.now() if metrics.enabled else 0
    lock.acquisitions += 1
    if lock.locked:
        lock.contended_acquisitions += 1
        lock.waiters.append(proc)
        try:
            yield co_block(f"critical({lock.name})")
        except (GeneratorExit, ProcessKilled):
            # Killed while queued for the lock: we never entered the
            # region.  (A killed generator sees GeneratorExit at its
            # suspension point on every vehicle.)  Leave the wait
            # queue, and if a release already transferred ownership to
            # us, hand it straight on so the siblings are not stranded
            # behind a dead owner.
            if proc in lock.waiters:
                lock.waiters.remove(proc)
            if lock.owner_pid == proc.pid:
                _grant_next(engine, lock)
            raise
        # The releaser transferred ownership to us before waking.
        if lock.owner_pid != proc.pid:
            raise RuntimeLibraryError(
                f"lock {lock.name} wake without ownership transfer")
    else:
        lock.locked = True
        lock.owner_pid = proc.pid
    vm = force.task.vm
    det = vm.race_detector
    if det is not None:
        det.on_lock_acquire(lock, proc, member.member)
    sh = vm.sched_hook
    if sh is not None:
        sh.take("L", (member.member, lock.name))
    lock.acquired_at = engine.now()
    if metrics.enabled:
        metrics.counter("lock_acquisitions", lock=lock.name).inc()
        metrics.histogram("lock_wait_ticks", lock=lock.name
                          ).observe(lock.acquired_at - wanted_at)
    force.task.trace(TraceEventType.LOCK,
                     info=f"lock={lock.name} member={member.member}")


def release_lock(engine: Engine, force: "Force", member: "ForceContext",
                 lock: LockState) -> None:
    proc = engine.charge(COST_UNLOCK)
    if not lock.locked or lock.owner_pid != proc.pid:
        raise RuntimeLibraryError(
            f"unlock of {lock.name} by non-owner (owner pid {lock.owner_pid})")
    metrics = force.task.vm.metrics
    if metrics.enabled:
        metrics.histogram("lock_hold_ticks", lock=lock.name
                          ).observe(engine.now() - lock.acquired_at)
    force.task.trace(TraceEventType.UNLOCK,
                     info=f"lock={lock.name} member={member.member}")
    det = force.task.vm.race_detector
    if det is not None:
        # Export before the hand-off so the next holder's acquire join
        # sees everything this region did.
        det.on_lock_release(lock, proc, member.member)
    _grant_next(engine, lock)


def _grant_next(engine: Engine, lock: LockState) -> None:
    """FIFO hand-off to the next *viable* waiter, else unlock.

    Killed or already-dead waiters are skipped: a killed process is
    unwinding (it will never execute the region) and granting it the
    lock would strand every sibling behind a dead owner.
    """
    while lock.waiters:
        nxt: KernelProcess = lock.waiters.pop(0)
        if nxt.killed or not nxt.live:
            continue
        lock.owner_pid = nxt.pid
        engine.wake(nxt)
        return
    lock.locked = False
    lock.owner_pid = None
