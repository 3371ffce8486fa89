"""Deterministic discrete-event multiprocessor engine.

This is the substrate substitution for the real MMOS kernel running on
20 FLEX/32 processors (DESIGN.md section 3).  The contract:

* the engine admits **exactly one** simulated process at a time, and
  processes hand control back at *kernel points* -- every PISCES
  run-time library call, plus explicit ``compute(ticks)`` charges;
* each slice executed on PE *p* advances *p*'s virtual clock by the
  ticks charged during the slice; distinct PEs overlap in virtual time,
  processes sharing a PE serialize on it (multiprogramming);
* dispatch order: the runnable process with the least slice start time
  ``max(ready_time, pe_clock)``, then the one that has waited longest
  since its last slice, then pid.  Dispatch starts are therefore
  non-decreasing, which guarantees no causality violation (a wake or
  message can never arrive in a receiver's past);
* a blocked process with a deadline is runnable at its deadline (the
  DELAY clause of ACCEPT); whoever wakes it earlier clears the deadline;
* when nothing is runnable and a non-daemon process is still blocked,
  the engine raises :class:`~repro.errors.DeadlockError` with a state
  dump instead of hanging.

Determinism: given the same program and configuration, every dispatch,
message arrival and timeout happens in the same order with the same
virtual timestamps.  The whole test-suite relies on this.

The engine is a single-threaded discrete-event loop (see
``docs/architecture.md``, "The engine"):

* **coroutine bodies** (generator functions yielding
  :class:`~repro.mmos.process.KernelOp`) run *on the engine thread*; a
  dispatch is one ``gen.send`` and no OS thread exists for them;
* **callable bodies** (ordinary functions) run on a pinned worker
  thread with a raw-lock token handoff: the engine passes control by
  releasing the process's ``handoff`` lock and parks by re-acquiring
  its own ``_resume`` token; the worker does the reverse at every
  kernel point (:class:`~repro.mmos.threads.ThreadVehicle`).

Shutdown, draining and the state dump are
:class:`~repro.mmos.teardown.Teardown`.  Both are base classes of the
one :class:`Engine`, each in a module of its own: like the VM's (see
:mod:`repro.core.vm`), the engine's source is split by concern so that
no one module is large to compile.

Selection is a two-level stale-free heap (``indexed``), or -- while
the ``schedule`` passed in (see :mod:`repro.correctness.recorder`)
holds recorded decisions -- the recorded decision stream (``replay``).
"""

from __future__ import annotations

import heapq
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    DeadlockError,
    NotInProcess,
    ProcessKilled,
    TimeLimitExceeded,
)
from ..flex.machine import FlexMachine
from .process import KernelOp, KernelProcess, ProcState
from .teardown import Teardown
from .threads import ThreadVehicle

#: Slices :meth:`Engine.run` dispatches per batch with the actors and
#: the slice observers read into locals once.
BATCH = 1024


class Engine(ThreadVehicle, Teardown):
    """The MMOS scheduler/dispatcher for one machine."""

    def __init__(self, machine: FlexMachine, time_limit: Optional[int] = None,
                 schedule: Optional[Any] = None):
        self.machine = machine
        #: PE -> PEClock, cached off the ClockBank: the dispatch hot
        #: path touches a clock several times per slice and the mapping
        #: is immutable for the machine's lifetime.
        self._clockmap = {pe: machine.clocks[pe] for pe in machine.pes}
        self.time_limit = time_limit
        self._procs: Dict[int, KernelProcess] = {}
        #: Two-level dispatch index (see "The engine" in
        #: docs/architecture.md), with keys that *never go stale*: per
        #: PE, a "ripe" heap of ``(last_dispatched, pid, gen)`` over
        #: runnable processes whose start time is the PE clock
        #: (``ready_time <= clock``; both components immutable while
        #: queued), and a "future" heap of ``(ready_time|deadline,
        #: last_dispatched, pid, gen)`` over processes that become
        #: runnable at a fixed later tick.  Entries migrate future ->
        #: ripe as the PE clock advances.  A single candidate heap of
        #: ``((start, last_dispatched, pid), pe, pe_gen)`` tracks each
        #: PE's best runnable process; per-PE generations lazily
        #: invalidate superseded candidates, per-process generations
        #: (``sched_gen``) lazily invalidate superseded heap entries.
        self._ripe: Dict[int, list] = {pe: [] for pe in machine.pes}
        self._future: Dict[int, list] = {pe: [] for pe in machine.pes}
        self._pe_gen: Dict[int, int] = {pe: 0 for pe in machine.pes}
        self._cand: List[tuple] = []
        self._current: Optional[KernelProcess] = None
        self._now: int = 0          # start time of the latest dispatch
        self._dispatch_seq: int = 0
        self._shutdown = False
        #: Engine-side token of the raw-lock handoff (callable bodies):
        #: always held while the engine runs; a worker ends its slice by
        #: releasing it, the engine parks by re-acquiring.
        self._resume = threading.Lock()
        self._resume.acquire()
        #: Thread ident driving the current coroutine slice (the engine
        #: thread while inside ``gen.send``), or None.  This is what
        #: makes ``in_process``/``current`` answer correctly for bodies
        #: that have no thread of their own.
        self._gen_runner: Optional[int] = None
        #: Names of processes whose worker threads survived
        #: :meth:`shutdown` (stuck mid-slice or unjoinable) -- see the
        #: RuntimeWarning.
        self.leaked_threads: List[str] = []
        #: Names of processes that were blocked in an ACCEPT when
        #: :meth:`shutdown` drained them (each raised
        #: :class:`~repro.errors.EngineShutdown` while unwinding).
        self.drained_accept_waiters: List[str] = []
        #: Fault-injection hook (see :mod:`repro.faults`): called with
        #: the next slice's start time before every dispatch, and with
        #: None when nothing is runnable; returns True when a fault
        #: fired (scheduling state may have changed).  None means no
        #: fault plan is installed -- the zero-fault cost is one
        #: attribute test per batch.
        self._fault_pump: Optional[Callable[[Optional[int]], bool]] = None
        #: Periodic-checkpoint hook (see :mod:`repro.checkpoint`):
        #: called with this engine before every dispatch, before the
        #: pick and before any fault can fire for it -- the engine is
        #: between slices there, which is exactly the state a restore
        #: reconstructs.  A checkpointer is a pure observer (zero
        #: virtual time).
        self._ckpt_pump: Optional[Callable[["Engine"], None]] = None
        #: Pure observers in registration order (see :meth:`observe`),
        #: and per event the tuple of their bound methods.
        self._observers: List[Any] = []
        self._bind_observers()
        #: Per-run spawn ordinals: kernel pids come from a process-global
        #: counter and are not stable across runs, so the schedule
        #: artifact identifies processes by spawn order instead.
        self._spawn_seq = 0
        self._by_ordinal: List[KernelProcess] = []
        #: The run's decision stream (a correctness ``Schedule``), or
        #: None: every decision is taken from it -- verified while
        #: recorded decisions remain, appended past them when it records.
        self.sched_hook: Optional[Any] = schedule
        if schedule is not None:
            schedule.reset()
        #: True while the recorded stream drives selection; "replay"
        #: then, else "indexed" (manifest stamping and state dumps).
        self._replay = schedule is not None and schedule.replays
        self.dispatcher = "replay" if self._replay else "indexed"

    # ------------------------------------------------------------ spawn --

    def spawn(self, name: str, pe: int, target: Callable[[], Any], *,
              daemon: bool = False, start_time: Optional[int] = None,
              ) -> KernelProcess:
        """Create a process on PE ``pe``.

        ``target`` is called with no arguments: a generator function
        becomes a coroutine body on the engine thread, anything else
        runs on its own worker thread.  The process becomes READY at
        ``start_time`` (default: now).
        """
        if pe not in self.machine.pes:
            raise ValueError(f"no PE {pe}")
        p = KernelProcess(name, pe, target, daemon=daemon)
        p.clock = self._clockmap[pe]
        p.ready_time = self._now if start_time is None else start_time
        p.state = ProcState.READY
        p.spawn_ordinal = self._spawn_seq
        self._spawn_seq += 1
        self._by_ordinal.append(p)
        sh = self.sched_hook
        if sh is not None:
            sh.take("P", (p.spawn_ordinal, p.name))
        if self._on_spawn:
            parent = self._current if self.in_process() else None
            for f in self._on_spawn:
                f(parent, p)
        self._procs[p.pid] = p
        self._requeue(p)
        if inspect.isgeneratorfunction(target):
            # No thread at all: the body is a generator resumed by the
            # engine loop.  Instantiating it runs no user code.
            p.gen = target()
        else:
            p.handoff = threading.Lock()
            p.handoff.acquire()
            t = threading.Thread(target=self._thread_body, args=(p,),
                                 name=f"pisces-{p.name}-{p.pid}", daemon=True)
            p.thread = t
            t.start()
        return p

    # ----------------------------------------------- slice bookkeeping ----

    def _settle_done(self, p: KernelProcess) -> None:
        """Account the final slice and mark ``p`` DONE."""
        cost = p.pending_cost
        end = p.clock.run(p.slice_start, cost)
        p.pending_cost = 0
        p.ready_time = end
        p.state = ProcState.DONE
        self._requeue(p)    # invalidate any queued heap entry

    def _settle_yield(self, p: KernelProcess, new_state: ProcState,
                      reason: str, deadline: Optional[int]) -> None:
        """Account a finished (non-final) slice and park/requeue ``p``.

        The single source of truth for end-of-slice state: both body
        forms go through it, which is what keeps virtual timestamps
        bit-identical across them.
        """
        cost = p.pending_cost
        end = p.clock.run(p.slice_start, cost)
        p.pending_cost = 0
        p.ready_time = end
        if p.killed and new_state is ProcState.BLOCKED:
            # A killed process must not park where nothing will wake
            # it: stay runnable so the next dispatch raises.
            new_state, reason, deadline = ProcState.READY, "killed", None
        p.state = new_state
        p.blocked_on = reason
        p.deadline = deadline
        self._requeue(p)

    # ---------------------------------------------------- process-side ----

    def caller(self) -> Optional[KernelProcess]:
        """The process whose slice is calling, or None for a call from
        outside one (the monitor, another thread, between runs).  This
        is the engine's thread-identity check; an op that needs the
        caller's PE and time asks once and reads both off the process."""
        p = self._current
        if p is not None and (
                self._gen_runner == threading.get_ident()
                if p.gen is not None
                else p.thread is threading.current_thread()):
            return p
        return None

    def current(self) -> KernelProcess:
        """The process whose slice is calling; raises if external."""
        p = self.caller()
        if p is None:
            raise NotInProcess(
                "kernel call from outside a simulated process")
        return p

    def in_process(self) -> bool:
        return self.caller() is not None

    def now(self) -> int:
        """Current virtual time as seen by the caller.

        Inside a process: slice start + ticks charged so far.  Outside
        (the monitor, between runs): the global elapsed time.
        """
        p = self.caller()
        if p is not None:
            return p.slice_start + p.pending_cost
        return max(self._now, self.machine.clocks.elapsed())

    def charge(self, ticks: int) -> KernelProcess:
        """Charge compute ticks to the current slice without yielding;
        returns the charged (calling) process."""
        if ticks < 0:
            raise ValueError("cannot charge negative ticks")
        p = self.current()
        p.pending_cost += ticks
        return p

    def wake(self, p: KernelProcess, info: Any = None,
             at_time: Optional[int] = None) -> bool:
        """Make a blocked process runnable; returns False if not blocked.

        ``at_time`` is the virtual time of the waking event (defaults to
        the caller's current time); the wakee cannot resume earlier than
        both that and the moment it blocked.
        """
        if p.state is not ProcState.BLOCKED:
            return False
        t = self.now() if at_time is None else at_time
        if self._on_wake:
            waker = self._current if self.in_process() else None
            for f in self._on_wake:
                f(waker, p, t)
        p.ready_time = max(p.ready_time, t)
        p.deadline = None
        p.wake_info = info
        p.timed_out = False
        p.blocked_on = ""
        p.state = ProcState.READY
        self._requeue(p)
        return True

    def kill(self, p: KernelProcess) -> None:
        """Mark a process killed; it unwinds at its next dispatch."""
        if not p.live:
            return
        p.killed = True
        if p.state is ProcState.BLOCKED:
            p.deadline = None
            p.blocked_on = "killed"
            p.ready_time = max(p.ready_time, self.now())
            for f in self._on_kill:
                f(p, p.ready_time)
            p.state = ProcState.READY
            self._requeue(p)

    # ------------------------------------------------- coroutine bodies --

    def _step_coroutine(self, p: KernelProcess) -> None:
        """One slice of a coroutine body: resume the generator and
        interpret yielded ops until it parks (preempt/block) or ends.
        A dispatch is this function call, no OS handoff anywhere."""
        gen = p.gen
        # The runner ident covers kill/close cleanup too: a generator's
        # GeneratorExit handlers (lock hand-off, barrier retraction) and
        # the exit hooks run kernel calls like wake()/now(), which must
        # see in_process().
        self._gen_runner = threading.get_ident()
        try:
            if p.killed:
                # A killed coroutine body never observes ProcessKilled:
                # it sees GeneratorExit via close(), the result stays
                # None -- exactly what a callable body driving the same
                # ops through drive_kernel_ops observes.
                try:
                    gen.close()
                except BaseException as e:
                    p.exc = e
                self._proc_exit(p)
                return
            val = p.wake_info
            while True:
                try:
                    op = gen.send(val)
                except StopIteration as e:
                    p.result = e.value
                    self._proc_exit(p)
                    return
                except ProcessKilled:
                    self._proc_exit(p)
                    return
                except BaseException as e:
                    p.exc = e
                    self._proc_exit(p)
                    return
                if not isinstance(op, KernelOp):
                    p.exc = RuntimeError(
                        f"coroutine process {p.name!r} yielded {op!r}; "
                        "expected a KernelOp from co_charge/co_preempt/"
                        "co_block")
                    gen.close()
                    self._proc_exit(p)
                    return
                kind = op.kind
                if kind == "charge":
                    p.pending_cost += op.cost
                    val = None
                    continue
                if kind == "preempt":
                    p.pending_cost += op.cost
                    p.wake_info = None
                    self._settle_yield(p, ProcState.READY, "", None)
                else:  # block
                    p.pending_cost += op.cost
                    p.timed_out = False
                    p.wake_info = None
                    self._settle_yield(p, ProcState.BLOCKED, op.reason,
                                       op.deadline)
                return
        finally:
            self._gen_runner = None

    def _proc_exit(self, p: KernelProcess) -> None:
        """Run the exit hook and settle DONE (both body forms)."""
        if p.on_exit is not None:
            try:
                p.on_exit(p)
            except BaseException as e:
                if p.exc is None:
                    p.exc = e
        self._settle_done(p)

    # ----------------------------------------------------- engine-side ----

    def _runnable_key(self, p: KernelProcess):
        # Round-robin among equals: earliest start first, then the
        # process that has waited longest since its last slice, then pid.
        pe_clock = p.clock.ticks
        if p.state is ProcState.READY:
            return (max(p.ready_time, pe_clock), p.last_dispatched, p.pid)
        # blocked with a deadline: runnable at the deadline
        return (max(p.deadline, pe_clock), p.last_dispatched, p.pid)

    @staticmethod
    def _is_runnable(p: KernelProcess) -> bool:
        return p.state is ProcState.READY or (
            p.state is ProcState.BLOCKED and p.deadline is not None)

    def _requeue(self, p: KernelProcess) -> None:
        """Re-index ``p`` after any scheduling-state change.

        Bumps the process's generation (invalidating every entry it
        already has in the per-PE heaps), inserts one fresh entry if the
        process is runnable, and refreshes its PE's candidate.  No-op
        while a replay drives selection.
        """
        if self._replay:
            return
        p.sched_gen += 1
        pe = p.pe
        # Inlined _is_runnable/_runnable_key: this runs once per state
        # change, which is about once per dispatch.
        state = p.state
        if state is ProcState.READY:
            base = p.ready_time
        elif state is ProcState.BLOCKED and p.deadline is not None:
            base = p.deadline
        else:
            # Not runnable any more -- but its departure may still have
            # changed which queued process is this PE's best candidate.
            base = None
        if base is not None:
            if base <= p.clock.ticks:
                heapq.heappush(self._ripe[pe],
                               (p.last_dispatched, p.pid, p.sched_gen))
            else:
                heapq.heappush(self._future[pe],
                               (base, p.last_dispatched, p.pid,
                                p.sched_gen))
        g = self._pe_gen[pe] + 1
        self._pe_gen[pe] = g
        cand = self._pe_candidate(pe)
        if cand is not None:
            heapq.heappush(self._cand, (cand, pe, g))

    def _pe_candidate(self, pe: int) -> Optional[tuple]:
        """The least current dispatch key among PE ``pe``'s queued
        processes, or None.  Migrates newly-ripe future entries and
        discards stale ones on the way (amortized O(1) per queue event).
        """
        procs = self._procs
        clk = self._clockmap[pe].ticks
        future = self._future[pe]
        ripe = self._ripe[pe]
        while future:
            base, ld, pid, gen = future[0]
            p = procs.get(pid)
            if p is None or gen != p.sched_gen:
                heapq.heappop(future)
                continue
            if base > clk:
                break
            # The PE clock caught up: the start time is now the clock,
            # like every other ripe process.
            heapq.heappop(future)
            heapq.heappush(ripe, (ld, pid, gen))
        while ripe:
            ld, pid, gen = ripe[0]
            p = procs.get(pid)
            if p is None or gen != p.sched_gen:
                heapq.heappop(ripe)
                continue
            return (clk, ld, pid)
        if future:
            base, ld, pid, gen = future[0]
            return (base, ld, pid)
        return None

    def _pop_runnable(self) -> Tuple[Optional[KernelProcess], Optional[tuple]]:
        """Pop the runnable process with the least current key.

        Pops PE candidates in key order; per-PE generations identify the
        (at most one) live candidate per PE.  A live candidate is always
        *fresh*: every event that can change a PE's best pick -- slice
        settle, spawn, wake, kill, fault -- re-indexes through
        :meth:`_requeue`, which refreshes the candidate, and a PE's
        clock only advances during a dispatch on that PE, which settles
        (and so touches) before the next pop.  Keys inside the per-PE
        heaps never go stale at all, so -- unlike a single global heap
        keyed by ``max(ready_time, pe_clock)`` -- a slice on one PE
        never forces a re-key of the other processes queued there.
        """
        cand = self._cand
        pe_gen = self._pe_gen
        while cand:
            key, pe, g = heapq.heappop(cand)
            if g != pe_gen[pe]:
                continue
            pid = key[2]
            # Commit: remove the winner from its per-PE heap.  It is the
            # validated head of ripe (start == clock) or future.  The
            # next candidate for this PE is pushed by the settle/requeue
            # that ends the dispatched slice (or by the horizon/fault
            # requeue when the dispatch is abandoned).
            ripe = self._ripe[pe]
            if ripe and ripe[0][1] == pid:
                heapq.heappop(ripe)
            else:
                heapq.heappop(self._future[pe])
            return self._procs[pid], key
        return None, None

    def _peek_replay(self) -> Tuple[Optional[KernelProcess], Optional[tuple]]:
        """Replay selection: the recorded stream *is* the dispatch order.

        Peeks (does not take) the next D record; the ``take("D", ...)``
        in :meth:`_dispatch` verifies it.  A record naming a process
        that does not exist or is not runnable means the live run
        diverged from the recording.
        """
        from ..errors import ReplayDivergence
        sched = self.sched_hook
        rec = sched.peek_dispatch()
        if rec is None:
            return None, None
        ordinal, start = rec
        if ordinal >= len(self._by_ordinal):
            raise ReplayDivergence(
                f"schedule names spawn #{ordinal} "
                f"({sched.name_of(ordinal)!r}) but only "
                f"{len(self._by_ordinal)} processes have spawned "
                f"({sched.progress()})")
        p = self._by_ordinal[ordinal]
        if not self._is_runnable(p):
            raise ReplayDivergence(
                f"schedule dispatches {p.name!r} (spawn #{ordinal}, "
                f"recorded start {start}) but it is {p.state.value}"
                + (f" on {p.blocked_on!r}" if p.blocked_on else "")
                + f" ({sched.progress()})")
        return p, self._runnable_key(p)

    def _switch_to_live(self) -> None:
        """A live-tail schedule (a restored checkpoint's prefix) ran
        dry: hand selection back to the heap and keep going.

        Only selection changes -- ``sched_hook`` stays installed and
        records the live tail.  During replay the heaps were never fed
        (``_requeue`` no-ops), so requeueing every process in pid order
        rebuilds them exactly as a fresh engine would have.
        """
        self.dispatcher = "indexed"
        self._replay = False
        for p in sorted(self._procs.values(), key=lambda q: q.pid):
            self._requeue(p)
        cb = self.sched_hook.on_prefix_complete
        if cb is not None:
            # Restore validation: the replayed state must match the
            # snapshot digests before the run continues live.
            cb(self)

    def step(self, horizon: Optional[int] = None) -> bool:
        """Dispatch one slice.  Returns False when nothing is runnable.

        With ``horizon``, refuses to dispatch a slice that would start
        after that virtual time -- the monitor uses this so that pumping
        the machine "now" does not fast-forward through long DELAYs.
        """
        return self._dispatch(1, horizon)

    def _dispatch(self, batch: int, horizon: Optional[int] = None) -> bool:
        """Dispatch up to ``batch`` slices; the one dispatch loop.

        The actors and the slice observers are read into locals once per
        batch, so an observer registered mid-batch fires from the next;
        each costs one test per slice when off.  The replay -> live
        switch is the only place selection changes mid-run, so it ends
        the batch.  Returns False when nothing was runnable (or the next
        slice would start after ``horizon``), True otherwise.
        """
        ck = self._ckpt_pump
        fp = self._fault_pump
        sh = self.sched_hook
        limit = self.time_limit
        on_slice = self._on_slice
        wall = self._wants_wall
        replay = self._replay
        pick = self._peek_replay if replay else self._pop_runnable
        resume = self._resume
        for _ in range(batch):
            if ck is not None:
                # Between slices, before the pick and fault pump: the
                # exact state a restore reconstructs (see
                # docs/architecture.md, "Checkpoint/restore").
                ck(self)
            while True:
                p, key = pick()
                if p is None:
                    if replay and sh.live_tail:
                        self._switch_to_live()
                        return True
                    return False
                if horizon is not None and key[0] > horizon:
                    # The pick was valid; re-index it for the next step.
                    self._requeue(p)
                    return False
                if fp is not None and fp(key[0]):
                    # A timed fault fired at or before this slice's
                    # start; it may have killed/woken processes
                    # (including this one), so re-index and re-pick.
                    self._requeue(p)
                    continue
                break
            if p.state is ProcState.BLOCKED:
                # Deadline fired: resume with timed_out set.
                p.timed_out = True
                p.wake_info = None
                p.ready_time = max(p.ready_time, p.deadline)
                p.deadline = None
                p.state = ProcState.READY
            clock = p.clock
            rt = p.ready_time
            ticks = clock.ticks
            start = rt if rt > ticks else ticks
            if limit is not None and start > limit:
                raise TimeLimitExceeded(limit)
            if sh is not None:
                # Recording appends; replay verifies (the start tick
                # doubles as a virtual-time checksum).
                sh.take("D", (p.spawn_ordinal, start), p.name)
            if start > self._now:
                self._now = start
            self._dispatch_seq += 1
            p.last_dispatched = self._dispatch_seq
            if start > ticks:
                clock.ticks = start
            if wall:
                t_wall = time.perf_counter()
            p.slice_start = start
            p.state = ProcState.RUNNING
            self._current = p
            if p.gen is None:
                p.handoff.release()
                resume.acquire()
            else:
                self._step_coroutine(p)
            self._current = None
            if on_slice:
                # The slice just completed: its settle set p.ready_time
                # to its end tick and left the new state/reason/deadline
                # on the process.
                w = time.perf_counter() - t_wall if wall else None
                for f in on_slice:
                    f(p, start, w)
            if p.exc is not None:
                exc, p.exc = p.exc, None
                self.shutdown()
                try:
                    raise exc
                finally:
                    # The traceback holds this frame: a live ``exc``
                    # local would make the two a reference cycle.
                    del exc
        return True

    # -------------------------------------------------------- observers --

    def observe(self, obs: Any) -> None:
        """Register a pure observer, after those already registered.

        ``obs`` defines any subset of ``on_spawn(parent, p)``,
        ``on_wake(waker, p, at)``, ``on_kill(p, at)`` and ``on_slice(p,
        start, wall)`` (see "One dispatch loop" in docs/architecture.md);
        ``wall`` is None unless an observer sets ``wants_wall``.
        """
        self._observers.append(obs)
        self._bind_observers()

    def unobserve(self, obs: Any) -> None:
        """Remove a registered observer (no-op if it is not registered)."""
        if obs in self._observers:
            self._observers.remove(obs)
            self._bind_observers()

    def _bind_observers(self) -> None:
        """One tuple of bound methods per event, so an event nobody
        observes makes no call."""
        obs = self._observers
        (self._on_spawn, self._on_wake, self._on_kill, self._on_slice) = (
            tuple(getattr(o, ev) for o in obs if hasattr(o, ev))
            for ev in ("on_spawn", "on_wake", "on_kill", "on_slice"))
        self._wants_wall = any(getattr(o, "wants_wall", False) for o in obs)

    @property
    def dispatch_count(self) -> int:
        """Total slices dispatched so far (benchmark instrumentation)."""
        return self._dispatch_seq

    def run(self) -> None:
        """Run until no non-daemon process is live, or deadlock.

        On normal completion the remaining daemon (controller) processes
        are left blocked; call :meth:`shutdown` to reap them.
        """
        try:
            while True:
                if self._dispatch(BATCH):
                    continue
                if self._fault_pump is not None and self._fault_pump(None):
                    # Nothing runnable, but a timed fault was pending:
                    # fire it (e.g. the PE crash a blocked receiver was
                    # unknowingly waiting on) and try again.
                    continue
                live_users = [p for p in self._procs.values()
                              if p.live and not p.daemon]
                if live_users:
                    blocked = [(p.name, p.blocked_on, p.deadline)
                               for p in sorted(live_users,
                                               key=lambda q: q.pid)]
                    raise DeadlockError(self.state_dump(), blocked=blocked)
                return
        except Exception:
            self.shutdown()
            raise

    def run_while(self, predicate: Callable[[], bool]) -> None:
        """Run until ``predicate()`` is false or nothing is runnable."""
        while predicate() and self.step():
            pass
