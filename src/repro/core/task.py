"""Tasktypes, tasks and the task-context API (sections 5, 6, 10).

A Pisces program "consists of a set of tasktype definitions"; any number
of tasks of the same tasktype may be initiated.  In this Python binding
a tasktype is a decorated function receiving a :class:`TaskContext` as
its first argument::

    reg = TaskRegistry()

    @reg.tasktype("WORKER", handlers={"DATA": on_data})
    def worker(ctx, n):
        ctx.accept("GO")
        ctx.send(PARENT, "DONE", n * n)

The context exposes the Pisces Fortran extension statements: INITIATE,
SEND/broadcast, ACCEPT (with DELAY and SIGNAL/HANDLER processing),
FORCESPLIT, window creation and access, SHARED COMMON access, and
terminal output.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from ..errors import (
    AcceptTimeout,
    MessageError,
    NotInForce,
    RuntimeLibraryError,
    UnknownTaskType,
)
from ..mmos.process import (
    KernelProcess,
    co_block,
    co_preempt,
    drive_kernel_ops,
)
from .accept import (
    ALL_RECEIVED,
    AcceptResult,
    AcceptState,
    RetryPolicy,
    normalize_specs,
)
from .cluster import ClusterRuntime
from .messages import InQueue, Message, release_message
from .supervision import NONE as SUPERVISION_NONE, Supervision
from .shared import CommonSpec, LockState, SharedCommonBlock, SharedState
from .sizes import (
    COST_ACCEPT,
    COST_HANDLER_DISPATCH,
    DEFAULT_TASKTYPE_CODE_BYTES,
)
from .taskid import ANY, Designator, Placement, SendTarget, TaskId
from .tracing import TraceEvent, TraceEventType
from .windows import ArrayStore, Window, WindowCache, make_window

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .forces import Force, ForceContext
    from .vm import PiscesVM

#: A HANDLER subroutine: called as ``handler(ctx, *message_args)``.
Handler = Callable[..., Any]


@dataclass
class TaskType:
    """A tasktype definition.

    ``handlers`` maps message types to HANDLER subroutines; every other
    accepted type is a SIGNAL (counted only).  ``signals`` is optional
    documentation/validation of the signal types the task expects.
    ``shared`` declares SHARED COMMON blocks (allocated at initiation),
    ``locks`` declares LOCK variables.
    """

    name: str
    fn: Callable[..., Any]
    handlers: Dict[str, Handler] = field(default_factory=dict)
    signals: Tuple[str, ...] = ()
    shared: Dict[str, CommonSpec] = field(default_factory=dict)
    locks: Tuple[str, ...] = ()
    code_bytes: int = DEFAULT_TASKTYPE_CODE_BYTES

    @staticmethod
    def estimate_code_bytes(fn: Callable) -> int:
        """Loadfile contribution of a tasktype: its source size (a
        stand-in for compiled object code size)."""
        try:
            return max(DEFAULT_TASKTYPE_CODE_BYTES // 2, len(inspect.getsource(fn)))
        except (OSError, TypeError):
            return DEFAULT_TASKTYPE_CODE_BYTES


class TaskRegistry:
    """The set of tasktype definitions making up one Pisces program."""

    def __init__(self) -> None:
        self._types: Dict[str, TaskType] = {}

    def tasktype(self, name: str, *, handlers: Optional[Dict[str, Handler]] = None,
                 signals: Tuple[str, ...] = (),
                 shared: Optional[Dict[str, CommonSpec]] = None,
                 locks: Tuple[str, ...] = ()) -> Callable[[Callable], Callable]:
        """Decorator registering a tasktype definition."""
        def deco(fn: Callable) -> Callable:
            tt = TaskType(name=name, fn=fn, handlers=dict(handlers or {}),
                          signals=tuple(signals), shared=dict(shared or {}),
                          locks=tuple(locks),
                          code_bytes=TaskType.estimate_code_bytes(fn))
            self.define(tt)
            return fn
        return deco

    def define(self, tt: TaskType) -> None:
        self._types[tt.name] = tt

    def get(self, name: str) -> TaskType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownTaskType(
                f"tasktype {name!r} is not defined "
                f"(known: {sorted(self._types)})") from None

    def names(self) -> List[str]:
        return sorted(self._types)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def total_code_bytes(self) -> int:
        return sum(t.code_bytes for t in self._types.values())


#: Default registry used by the module-level ``tasktype`` decorator.
GLOBAL_REGISTRY = TaskRegistry()


def tasktype(name: str, **kw) -> Callable[[Callable], Callable]:
    """Register a tasktype in the global registry (see
    :meth:`TaskRegistry.tasktype`)."""
    return GLOBAL_REGISTRY.tasktype(name, **kw)


class Task:
    """One running (or finished) task."""

    def __init__(self, vm: "PiscesVM", ttype: TaskType, tid: TaskId,
                 parent: TaskId, cluster: ClusterRuntime,
                 args: Tuple[Any, ...],
                 supervision: Optional[Supervision] = None,
                 restarts: int = 0):
        self.vm = vm
        self.ttype = ttype
        self.tid = tid
        self.parent = parent
        self.cluster = cluster
        self.args = args
        #: Failure-semantics policy riding with the initiate request.
        self.supervision = (supervision if supervision is not None
                            else SUPERVISION_NONE)
        #: How many times this task has already been re-initiated.
        self.restarts_used = restarts
        #: Why the task died abnormally (None for normal termination).
        self.died_reason: Optional[str] = None
        self.inq = InQueue(tid)
        self.inq.metrics = vm.metrics
        self.inq.metric_labels = {"cluster": cluster.number, "kind": "task"}
        self.process: Optional[KernelProcess] = None
        det = vm.race_detector
        self.shared_state = SharedState(
            vm.machine.shared,
            monitor=None if det is None else det.common_monitor(self))
        self.arrays = ArrayStore(tid)
        self.arrays.metrics = vm.metrics
        #: Reader-side window cache (fast data-plane path only); force
        #: members share it, which is safe under the engine's
        #: one-at-a-time admission.
        self.window_cache = WindowCache()
        self.force: Optional["Force"] = None
        self.alive = False
        self.result: Any = None
        self.initiated_at = 0
        self.terminated_at: Optional[int] = None

    # ------------------------------------------------------------ trace --

    def trace(self, etype: TraceEventType, info: str = "",
              other: Optional[TaskId] = None) -> None:
        eng = self.vm.engine
        pe = (eng.current().pe if eng.in_process()
              else self.cluster.primary_pe)
        self.vm.tracer.emit(TraceEvent(
            etype=etype, task=self.tid, pe=pe,
            ticks=self.vm.machine.clocks[pe].ticks
            if not eng.in_process() else eng.now(),
            info=info, other=other))

    def describe(self) -> str:
        state = "alive" if self.alive else "done"
        return (f"task {self.tid} type={self.ttype.name} parent={self.parent} "
                f"{state}, inq={len(self.inq)}")


class TaskContext:
    """The user-facing run-time API handed to every tasktype body.

    One context exists per *execution stream*: the task itself, and one
    per force member after a FORCESPLIT (see :class:`ForceContext`).

    A context runs in one of two **modes** over the same runtime code
    (every suspending operation is written once, as a generator of
    :class:`~repro.mmos.process.KernelOp` values):

    * **callable mode** (``coroutine=False``, the classic form): each
      suspending method drives its generator to completion on the spot
      through the engine's blocking calls, so the body is ordinary
      sequential code on a worker thread.
    * **coroutine mode** (``coroutine=True``): each suspending method
      *returns* its generator for the body to ``yield from``, so the
      whole task suspends at the KernelOp seam and runs with no worker
      thread at all.

    Both modes interpret the identical op stream and are bit-identical
    in virtual time (see docs/architecture.md, "Task runtime").
    """

    def __init__(self, task: Task, process: KernelProcess,
                 coroutine: bool = False):
        self.task = task
        self.process = process
        #: True when this context belongs to a coroutine-style body:
        #: suspending methods return KernelOp generators to ``yield
        #: from`` instead of blocking in place.
        self.coroutine = coroutine
        #: Taskid of the sender of the last message received (SENDER).
        self.sender: Optional[TaskId] = None
        #: Run-time handler table: tasktype handlers plus any registered
        #: dynamically with :meth:`handler`.
        self._handlers: Dict[str, Handler] = dict(task.ttype.handlers)

    def _run(self, gen):
        """Execute one suspending runtime operation written as a
        KernelOp generator: a coroutine-mode context hands the
        generator back for the body to ``yield from``; a callable-mode
        context drives it to completion here."""
        if self.coroutine:
            return gen
        return drive_kernel_ops(self.vm.engine, gen)

    # -------------------------------------------------------- identity ----

    @property
    def vm(self) -> "PiscesVM":
        return self.task.vm

    @property
    def self_id(self) -> TaskId:
        """SELF: this task's taskid."""
        return self.task.tid

    @property
    def parent(self) -> TaskId:
        """PARENT: the taskid of the initiating task."""
        return self.task.parent

    @property
    def cluster_number(self) -> int:
        return self.task.cluster.number

    def now(self) -> int:
        """Current virtual time (this PE's clock reading)."""
        return self.vm.engine.now()

    # --------------------------------------------------------- INITIATE ----

    def initiate(self, tasktype_name: str, *args: Any,
                 on: Placement = ANY,
                 supervision: Optional[Supervision] = None) -> None:
        """``ON <cluster> INITIATE <tasktype>(<args>)``.

        Sends an initiate request to the chosen cluster's task
        controller; per section 6 this does *not* return the new task's
        taskid -- the child knows its parent and sends its taskid back
        in a message if the parent needs it.

        ``supervision`` selects the failure-semantics policy for the
        child (:mod:`repro.core.supervision`): what the system does if
        the child dies abnormally.  Default: notify this task with a
        system ``TASK_DIED`` message.
        """
        self.vm.request_initiate(tasktype_name, args, parent=self.self_id,
                                 placement=on,
                                 current_cluster=self.cluster_number,
                                 supervision=supervision)

    # ------------------------------------------------------------- SEND ----

    def send(self, dest, mtype: str, *args: Any,
             require_delivery: bool = False) -> None:
        """``TO <dest> SEND <mtype>(<args>)``.

        ``require_delivery=True`` turns the silent drop of a send to a
        dead taskid into a typed :class:`~repro.errors.SendFailed`.
        """
        self.vm.send_message(dest, mtype, args, origin=self,
                             require_delivery=require_delivery)

    def broadcast(self, mtype: str, *args: Any,
                  cluster: Optional[int] = None) -> int:
        """``TO ALL [CLUSTER <n>] SEND ...``; returns deliveries made."""
        from .taskid import Broadcast
        return self.vm.send_message(Broadcast(cluster), mtype, args,
                                    origin=self)

    # ----------------------------------------------------------- ACCEPT ----

    def handler(self, mtype: str, fn: Handler) -> None:
        """Declare/replace a HANDLER for a message type at run time."""
        self._handlers[mtype] = fn

    def accept(self, *specs, count: Optional[int] = None,
               delay: Optional[int] = None,
               on_timeout: Optional[Callable[[], Any]] = None,
               timeout_ok: bool = False,
               retry: Optional[RetryPolicy] = None) -> AcceptResult:
        """The ACCEPT statement.  See :mod:`repro.core.accept`.

        ``delay`` is the DELAY clause in ticks (default: the system
        timeout, configurable via ``PISCES_ACCEPT_TIMEOUT`` or the
        configuration's ``default_accept_delay``).  On timeout:
        ``on_timeout`` is called if given (the DELAY statement
        sequence); otherwise, with ``timeout_ok`` the partial result is
        returned with ``timed_out`` set; otherwise
        :class:`~repro.errors.AcceptTimeout` is raised (the
        "system-generated timeout message").

        ``retry`` escalates the timeout through extra backed-off waits
        before it is surfaced (default: the configuration's
        ``accept_retries``/``accept_backoff`` policy).

        In coroutine mode this returns a generator; the body writes
        ``res = yield from ctx.accept(...)``.
        """
        return self._run(self._accept_gen(
            specs, count, delay, on_timeout, timeout_ok, retry))

    def _accept_gen(self, specs, count, delay, on_timeout, timeout_ok,
                    retry):
        vm = self.vm
        eng = vm.engine
        spec = normalize_specs(specs, count)
        state = AcceptState(spec)
        eng.charge(COST_ACCEPT)
        vm.stats.accepts += 1
        base_delay = (vm.default_accept_delay if delay is None
                      else int(delay))
        policy = vm.accept_retry if retry is None else retry
        attempt = 0
        deadline = eng.now() + base_delay
        inq = self.task.inq
        while True:
            # Take everything already arrived that the spec still wants.
            while True:
                wanted = state.wanted_now()
                if not wanted:
                    break
                m = inq.first_matching(wanted, not_after=eng.now())
                if m is None:
                    break
                inq.remove(m)
                if m.checksum is not None and not m.verify():
                    self._discard_corrupt(m)
                    continue
                yield from self._process_message(m, state)
            if state.satisfied():
                # Final drain of ALL-count types that have already
                # arrived (per-type mode only: in total-count mode the
                # per-type values are None but mean "any", not ALL).
                all_types = ([] if spec.total is not None else
                             [t for t, c in spec.per_type.items() if c is None])
                if all_types:
                    while True:
                        m = inq.first_matching(all_types, not_after=eng.now())
                        if m is None:
                            break
                        inq.remove(m)
                        if m.checksum is not None and not m.verify():
                            self._discard_corrupt(m)
                            continue
                        yield from self._process_message(m, state)
                yield co_preempt(0)
                return state.result
            # Unsatisfied: wait for in-flight matches or new sends.
            now = eng.now()
            if now >= deadline:
                if policy is not None and attempt < policy.retries:
                    # Escalate: wait again, backed off, before giving
                    # the caller the timeout.
                    attempt += 1
                    deadline = now + policy.wait_ticks(base_delay, attempt,
                                                       rng=vm.run_rng)
                    vm.counts.accept_retries[self.task.ttype.name].value += 1
                    continue
                return self._timeout(state, on_timeout, timeout_ok)
            open_types = state.wanted_types_open()
            next_arr = inq.earliest_arrival(open_types, after=now)
            eff = deadline if next_arr is None else min(deadline, next_arr)
            # Retry waits carry a marker inside the accept( prefix: the
            # prefix is what receiver wake-up and shutdown draining
            # match on, while the profiler charges retry waits to
            # fault-recovery rather than ordinary message latency.
            retry = f"retry{attempt}:" if attempt else ""
            yield co_block(f"accept({retry}{','.join(open_types)})",
                           deadline=eff)
            # Woken by a send, or the deadline fired; loop re-scans.

    def _discard_corrupt(self, m: Message) -> None:
        """Drop a message whose payload fails its integrity checksum."""
        vm = self.vm
        det = vm.race_detector
        if det is not None:
            det.forget_message(m)
        release_message(vm.machine.shared, m)
        vm.counts.messages_corrupt_detected[self.task.ttype.name].value += 1
        if vm.faults is not None:
            vm.faults.record("corrupt_detected",
                             f"type={m.mtype} from={m.sender}",
                             task=self.task.tid,
                             pe=self.task.cluster.primary_pe)

    def _process_message(self, m: Message, state: AcceptState):
        # A KernelOp generator (driven via ``yield from`` inside
        # _accept_gen): HANDLER subroutines may themselves suspend when
        # written as generator functions.
        vm = self.vm
        det = vm.race_detector
        if det is not None:
            # Happens-before: everything the sender did before SEND is
            # ordered before everything this task does after ACCEPT.
            det.on_accept(m)
        sh = vm.sched_hook
        if sh is not None:
            sh.on_accept_match(str(self.task.tid), str(m.sender), m.mtype)
        release_message(vm.machine.shared, m)
        ttype = self.task.ttype.name
        vm.counts.messages_accepted[ttype, m.mtype].value += 1
        if vm.metrics.enabled:
            # Send->accept latency: queueing delay plus transit, the
            # quantity a user tunes message patterns against.
            vm.accept_latency[ttype].observe(
                max(0, vm.engine.now() - m.send_time))
        self.sender = m.sender
        state.take(m)
        self.task.trace(TraceEventType.MSG_ACCEPT,
                        info=f"type={m.mtype} bytes={m.nbytes}",
                        other=m.sender)
        h = self._handlers.get(m.mtype)
        if h is not None:
            vm.engine.charge(COST_HANDLER_DISPATCH)
            if inspect.isgeneratorfunction(h):
                yield from h(self, *m.args)
            else:
                h(self, *m.args)

    def _timeout(self, state: AcceptState, on_timeout, timeout_ok) -> AcceptResult:
        self.vm.counts.accept_timeouts[self.task.ttype.name].value += 1
        state.result.timed_out = True
        if on_timeout is not None:
            on_timeout()
            return state.result
        if timeout_ok:
            return state.result
        raise AcceptTimeout(
            f"ACCEPT in {self.self_id} timed out waiting for "
            f"{state.wanted_types_open()} (got {state.result.by_type()})")

    # ------------------------------------------------------------ compute --

    def compute(self, ticks: int):
        """Charge pure computation time (a preemption point).  In
        coroutine mode: ``yield from ctx.compute(...)``.

        The most frequent suspension point, so it skips the generator
        seam: coroutine mode hands back the kernel's (interned) op
        tuple to ``yield from``; callable mode issues the blocking
        kernel call directly."""
        kernel = self.vm.kernel
        if self.coroutine:
            return kernel.compute_ops(ticks)
        kernel.compute(ticks)
        return None

    def print(self, text: str) -> None:
        """Terminal output via the user controller / MMOS terminal I/O."""
        self.vm.kernel.write_terminal(f"[{self.self_id}] {text}")

    # ---------------------------------------------------------- FORCESPLIT --

    def forcesplit(self, region: Callable[..., Any], *args: Any) -> List[Any]:
        """``FORCESPLIT``: replicate this task into a force.

        ``region`` is the code executed by every member from the split
        point on: ``region(member_ctx, *args)``.  The member count is a
        configuration-time property of the cluster (1 + its secondary
        PEs); the same program text runs unchanged for any force size.
        Returns the list of member results (index = member number;
        member 0 is the primary).

        In coroutine mode: ``results = yield from ctx.forcesplit(...)``;
        a generator-function region runs as a coroutine member body.
        """
        from .forces import do_forcesplit
        return self._run(do_forcesplit(self, region, args))

    @property
    def force(self) -> "Force":
        raise NotInForce("not inside a FORCESPLIT region")

    # ------------------------------------------------------------ windows --

    def export_array(self, name: str, array: np.ndarray,
                     cacheable: bool = True) -> Window:
        """Make a local array window-addressable; returns the full window.

        ``cacheable=False`` opts the array out of reader-side caching;
        pass it when this task will mutate the array directly instead of
        through window writes (or call :meth:`touch_array` after each
        direct mutation)."""
        self.task.arrays.export(name, array, cacheable=cacheable)
        return make_window(self.self_id, name, array)

    def window(self, name: str, *, region=None,
               rows=None, cols=None) -> Window:
        """Create a window on (a region of) one of this task's arrays.

        The region is the keyword ``region=`` or the ``rows=``/``cols=``
        selectors (slice, (start, stop) pair, or int along axis 0 /
        axis 1)."""
        base = self.task.arrays.get(name)
        return make_window(self.self_id, name, base, region,
                           rows=rows, cols=cols)

    def window_read(self, w: Window, *, rows=None, cols=None):
        """Read a copy of the data visible in a window (remote access);
        ``rows=``/``cols=`` shrink the window for this one access.  In
        coroutine mode: ``data = yield from ctx.window_read(w)``."""
        return self._run(self.vm.window_read_gen(self, w, rows=rows,
                                                 cols=cols))

    def window_write(self, w: Window, data: np.ndarray, *,
                     rows=None, cols=None, if_unchanged: bool = False):
        """Write data through a window into the owner's array;
        ``rows=``/``cols=`` shrink the window for this one access.
        ``if_unchanged=True`` refuses with :class:`WindowConflict` if the
        region changed since this task last read it.  In coroutine
        mode: ``yield from ctx.window_write(w, data)``."""
        return self._run(self.vm.window_write_gen(
            self, w, data, rows=rows, cols=cols, if_unchanged=if_unchanged))

    def file_window(self, name: str, *, region=None,
                    rows=None, cols=None):
        """Request a window on a file-system array (via file controller).
        In coroutine mode: ``w = yield from ctx.file_window(name)``."""
        return self._run(self.vm.file_window_gen(self, name, region=region,
                                                 rows=rows, cols=cols))

    def touch_array(self, name: str) -> None:
        """Declare a direct (non-window) mutation of an exported array,
        so remote cached blocks of it revalidate as stale."""
        self.task.arrays.touch(name)

    # ------------------------------------------------------------- shared --

    def common(self, name: str) -> SharedCommonBlock:
        """Access a SHARED COMMON block declared by this tasktype."""
        return self.task.shared_state.common(name)

    def lock(self, name: str) -> LockState:
        """Access (or lazily declare) a LOCK variable."""
        return self.task.shared_state.lock(name)

    def declare_common(self, name: str, spec) -> SharedCommonBlock:
        """Declare a SHARED COMMON block at run time (beyond the static
        tasktype declaration -- e.g. re-declaring after
        :meth:`free_common` with a different shape)."""
        return self.task.shared_state.declare_common(name, spec)

    def free_common(self, name: str) -> None:
        """FREE COMMON: release a block's shared-memory storage now.

        Task termination releases every still-declared block anyway;
        explicit freeing matters for long-lived tasks that cycle through
        differently-shaped blocks (the paper's static allocation is per
        task initiation, and this is the matching deallocation).  The
        name becomes declarable again."""
        self.task.shared_state.free_common(name)


__all__ = [
    "GLOBAL_REGISTRY",
    "Task",
    "TaskContext",
    "TaskRegistry",
    "TaskType",
    "tasktype",
]
