"""Shutdown, drain and state dump of the MMOS engine.

:class:`Teardown` is a base class of :class:`~repro.mmos.scheduler.Engine`:
reaping every process at the end of a run (coroutine bodies closed on the
engine thread, worker threads granted their handoff and joined, a leaked
thread reported), and the process listings and state dump that a
deadlock report and the monitor read.  It reads the engine's state
through ``self``.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import List

from .process import KernelProcess, ProcState


class Teardown:
    """Reap processes and describe the engine (a base class of
    ``Engine``)."""

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Kill every live process and reap it.

        A worker thread that does not come back to a kernel point within
        ``join_timeout`` wall-clock seconds (it is stuck in user code,
        or swallowed :class:`ProcessKilled`) is recorded in
        :attr:`leaked_threads` and reported with a ``RuntimeWarning`` --
        a leaked thread is a bug to diagnose, never something to ignore
        silently.  Coroutine bodies have no thread and can never leak.
        """
        if self._shutdown:
            return
        self._shutdown = True
        sh = self.sched_hook
        if sh is not None:
            # Flush a recording's .psched artifact (when it has an
            # autosave path) even when the run ends in an error.
            sh.autosave()
        # Pending ACCEPT waiters are drained, not abandoned: each one is
        # granted below, observes `killed`, and unwinds with a clear
        # EngineShutdown error instead of waiting on messages that can
        # never arrive.
        self.drained_accept_waiters = sorted(
            p.name for p in self._procs.values()
            if p.live and p.state is ProcState.BLOCKED
            and p.blocked_on.startswith("accept("))
        for p in list(self._procs.values()):
            if p.live:
                p.killed = True
        stuck = self._drain_processes(join_timeout)
        leaked: List[str] = []
        for p in self._procs.values():
            t = p.thread
            if t is None:
                continue
            t.join(timeout=join_timeout if p.name not in stuck else 0.01)
            if t.is_alive():
                leaked.append(p.name)
        self.leaked_threads = sorted(set(stuck) | set(leaked))
        # A reaped process keeps its scheduling record for post-run
        # reads but drops its body: the target, generator and exit hook
        # are closures over the VM, and with the pumps and observers
        # they are what ties a finished run into reference cycles.
        for p in self._procs.values():
            if not p.live:
                p.target = p.gen = p.on_exit = None
        self._fault_pump = self._ckpt_pump = None
        self._observers = []
        self._on_spawn = self._on_wake = self._on_kill = self._on_slice = ()
        if self.leaked_threads:
            warnings.warn(
                f"engine shutdown leaked {len(self.leaked_threads)} "
                f"thread(s) (stuck outside kernel points): "
                f"{', '.join(self.leaked_threads)}",
                RuntimeWarning, stacklevel=2)

    def _drain_processes(self, join_timeout: float) -> List[str]:
        """Give every live process the chance to observe ``killed`` and
        unwind; returns names of processes that stayed stuck in user
        code past ``join_timeout``.

        Coroutine bodies are closed on the engine thread (their finally
        clauses and the exit hook run, the process settles DONE).
        Callable bodies are granted their handoff so the worker observes
        ``killed`` and unwinds.
        """
        stuck: List[str] = []
        for p in list(self._procs.values()):
            if not p.live:
                continue
            if p.gen is not None:
                self._current = p
                self._gen_runner = threading.get_ident()
                try:
                    try:
                        p.gen.close()
                    except BaseException:
                        pass
                    p.exc = None
                    self._proc_exit(p)
                finally:
                    self._gen_runner = None
                    self._current = None
                continue
            while p.live and p.thread is not None and p.thread.is_alive():
                if p.state is ProcState.DONE:
                    break
                p.state = ProcState.RUNNING
                self._current = p
                p.handoff.release()
                limit = time.monotonic() + join_timeout
                timed_out = False
                # Re-acquire the engine token; absorb any stray release
                # from a previously-stuck thread (the state check, not
                # the lock, decides whether *this* slice ended).
                while p.state is ProcState.RUNNING:
                    if not self._resume.acquire(timeout=0.05) \
                            and time.monotonic() > limit:
                        timed_out = True
                        break
                self._current = None
                p.exc = None
                if timed_out:
                    stuck.append(p.name)
                    break
        return stuck

    # ------------------------------------------------------- inspection --

    def processes(self) -> List[KernelProcess]:
        return list(self._procs.values())

    def live_processes(self) -> List[KernelProcess]:
        return [p for p in self._procs.values() if p.live]

    def state_dump(self) -> str:
        lines = [f"engine time {self.now()}, "
                 f"{len(self.live_processes())} live processes:"]
        failed = self.machine.failed_pes()
        if failed:
            # A hang caused by a crashed PE must be tellable apart from
            # a true deadlock by the dump alone.
            lines.append(f"  failed PEs: {failed} (processes pinned there "
                         f"were killed; blocked peers may be waiting on "
                         f"messages that will never arrive)")
        for p in sorted(self._procs.values(), key=lambda q: q.pid):
            if p.live:
                lines.append("  " + p.describe())
        return "\n".join(lines)

    @property
    def shutting_down(self) -> bool:
        return self._shutdown
