"""The callable-body vehicle of the MMOS engine.

A callable task body (an ordinary function) runs on a pinned worker
thread with a raw-lock token handoff: the engine passes control by
releasing the process's ``handoff`` lock and parks by re-acquiring its
own ``_resume`` token; the worker does the reverse at every kernel point
(:meth:`~ThreadVehicle.preempt`, :meth:`~ThreadVehicle.block`).
:class:`ThreadVehicle` is a base class of
:class:`~repro.mmos.scheduler.Engine` and reads its state through
``self``.  Coroutine bodies never come here.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import EngineShutdown, ProcessKilled
from .process import DEFAULT_KERNEL_COST, KernelProcess, ProcState


class ThreadVehicle:
    """Worker-thread bodies and their blocking kernel calls (a base class
    of ``Engine``)."""

    def _thread_body(self, p: KernelProcess) -> None:
        # Raw-lock park until the first grant (level-triggered, so the
        # engine's release may legally precede this acquire).
        p.handoff.acquire()
        try:
            if p.killed:
                raise ProcessKilled(p.name)
            p.result = p.target()
        except ProcessKilled:
            pass
        except BaseException as e:  # surface in the engine thread
            p.exc = e
        finally:
            # The engine is parked on _resume and nothing else runs.
            self._proc_exit(p)
            self._resume.release()

    def preempt(self, cost: int = DEFAULT_KERNEL_COST) -> None:
        """A kernel point: charge ``cost`` and let the scheduler switch."""
        p = self.current()
        p.pending_cost += cost
        self._yield(p, ProcState.READY)

    def block(self, reason: str, *, deadline: Optional[int] = None,
              cost: int = DEFAULT_KERNEL_COST) -> Any:
        """Block the current process until woken (or until ``deadline``).

        Returns the waker's ``info`` value; sets ``timed_out`` on the
        process when the deadline fired first.
        """
        p = self.current()
        p.pending_cost += cost
        p.timed_out = False
        p.wake_info = None
        self._yield(p, ProcState.BLOCKED, reason=reason, deadline=deadline)
        return p.wake_info

    def _yield(self, p: KernelProcess, new_state: ProcState, *,
               reason: str = "", deadline: Optional[int] = None) -> None:
        """Finish a callable body's slice and hand the machine back."""
        if p.gen is not None:
            raise RuntimeError(
                f"coroutine process {p.name!r} called a blocking kernel "
                "primitive; yield co_preempt()/co_block() instead "
                "(charge/now are allowed)")
        self._settle_yield(p, new_state, reason, deadline)
        self._current = None
        self._resume.release()
        p.handoff.acquire()
        if p.killed:
            raise self._kill_exc(p)

    def _kill_exc(self, p: KernelProcess) -> ProcessKilled:
        """The exception a killed process unwinds with."""
        if self._shutdown:
            return EngineShutdown(
                f"engine shut down while {p.name!r} was "
                f"{p.blocked_on or 'running'}")
        return ProcessKilled(p.name)
