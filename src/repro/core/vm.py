"""The PISCES 2 virtual machine (sections 4-6, 11).

A :class:`PiscesVM` instance is one booted run: a configured set of
clusters on a FLEX machine, controllers running, system tables resident
in shared memory, ready to initiate user tasks.  The VM owns:

* destination resolution and message delivery (SEND / broadcast);
* initiate-request routing (ON <cluster> INITIATE ...);
* the window read/write service;
* task life-cycle (start in slot, terminate, kill);
* the storage accounting that the section-13 benchmarks measure.
"""

from __future__ import annotations

import inspect
import itertools
import os
import random
from types import SimpleNamespace
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, List, Optional,
                    Tuple, Union)

from ..errors import (
    MessageError,
    NoSuchCluster,
    RuntimeLibraryError,
    SendFailed,
    UnknownTask,
    WindowConflict,
    WindowError,
)
from ..flex.machine import FlexMachine
from ..flex.presets import nasa_langley_flex32
from ..mmos.kernel import MMOSKernel
from ..mmos.process import ProcState, co_block, co_preempt, drive_kernel_ops
from ..obs.metrics import MetricsRegistry, SliceMeter
from ..results import RunRecord
from ..mmos.loader import (
    CAT_MMOS_KERNEL,
    CAT_PISCES_CODE,
    CAT_PISCES_DATA,
    CAT_USER_CODE,
    Loadfile,
)
from ..config.configuration import ClusterSpec, Configuration
from .accept import RetryPolicy
from .grid import ITEMSIZE, Grid, as_grid
from .cluster import ClusterRuntime, PendingInitiate, Slot
from .controllers import (
    Controller,
    FileController,
    MSG_INITIATE,
    MSG_TASK_DIED,
    MSG_TERMINATED,
    TaskController,
    UserController,
)
from .messages import (
    InQueue,
    Message,
    allocate_message,
    payload_checksum,
    release_message,
)
from .sizes import (
    COST_INITIATE_REQUEST,
    COST_PER_PACKET,
    COST_SEND,
    COST_TASK_TERMINATE,
    MMOS_KERNEL_BYTES,
    MSG_LATENCY_INTER_CLUSTER,
    MSG_LATENCY_INTRA_CLUSTER,
    PISCES_SYSTEM_CODE_BYTES,
    PISCES_SYSTEM_DATA_BYTES,
    message_bytes,
    slot_table_bytes,
    window_transfer_cost,
)
from .task import GLOBAL_REGISTRY, Task, TaskContext, TaskRegistry, TaskType
from .taskid import (
    ANY,
    Broadcast,
    Cluster,
    Designator,
    OTHER,
    Placement,
    SAME,
    SendTarget,
    TaskId,
    TContr,
    USER_TERMINAL_ID,
)
from .supervision import Supervision
from .tracing import TraceEvent, TraceEventType, Tracer
from .windows import (
    ArrayStore,
    MSG_WINDOW_ROW,
    MSG_WINDOW_TXN,
    MSG_WINDOW_TXN_REPLY,
    Window,
    WindowTxn,
    WindowTxnReply,
)


def resolve_schedule(schedule: Any, checkpointing: bool) -> Optional[Any]:
    """The run's one decision stream (see
    :mod:`repro.correctness.recorder`): the ``schedule`` argument (a
    ``.psched`` path replays that recording), else a new recording when
    checkpointing (a checkpoint carries the decision prefix).  None when
    nothing asks for one."""
    if schedule is None and not checkpointing:
        return None
    from ..correctness.recorder import Schedule
    if schedule is None:
        return Schedule()
    if isinstance(schedule, (str, os.PathLike)):
        return Schedule.load(schedule)
    return schedule


#: Controller slots per cluster counted in the static system table
#: (task controller, user controller, file controller).
N_CONTROLLER_SLOTS = 3


#: The run-count families and their label names: each event RunStats
#: and the metrics registry both describe is counted once, metrics on or
#: off, as ``vm.counts.<family>[key].value += 1`` (keys: see ``Family``).
RUN_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "messages_sent": ("cluster", "route"),
    "message_bytes_sent": ("cluster",),
    "messages_accepted": ("tasktype", "mtype"),
    "accept_timeouts": ("tasktype",),
    "accept_retries": ("tasktype",),
    "messages_corrupt_detected": ("tasktype",),
    "initiate_requests": ("cluster",),
    "initiates_held": (),
    "tasks_started": ("cluster", "tasktype"),
    "tasks_finished": ("cluster", "tasktype"),
    "tasks_died": ("tasktype",),
    "tasks_restarted": ("tasktype",),
    "forcesplits": ("cluster",),
    "window_ops": ("op",),
    "window_bytes_moved": ("op",),
    "window_cache_hits": (),
    "window_cache_misses": (),
    "window_overlap_waits": (),
    "window_conflicts": (),
    "faults_injected": ("kind",),
    "races_detected": ("kind", "severity"),
    "checkpoints_written": (),
}


def _injected(kind: str) -> bool:
    """Whether a ``faults_injected`` key is an injected fault rather than
    a failure-semantics action.  Only a run with a fault plan counts
    these keys, so the injector is loaded by then."""
    from ..faults.injector import FAILURE_KINDS
    return kind not in FAILURE_KINDS


#: RunStats fields named unlike their family or reading only some of its
#: keys: field -> (family, key predicate or None for all keys).  Every
#: other family is read whole by the field of its own name.
_VIEWS: Dict[str, Tuple[str, Optional[Callable[[Any], bool]]]] = {
    "corruptions_detected": ("messages_corrupt_detected", None),
    "initiates_requested": ("initiate_requests", None),
    "window_reads": ("window_ops", lambda op: op == "read"),
    "window_writes": ("window_ops", lambda op: op == "write"),
    # Injected faults exclude the failure-semantics actions.
    "faults_injected": ("faults_injected", _injected),
    "messages_dropped": ("faults_injected", lambda k: k == "drop"),
    "messages_duplicated": ("faults_injected", lambda k: k == "duplicate"),
    "messages_delayed": ("faults_injected", lambda k: k == "delay"),
    "messages_corrupted": ("faults_injected", lambda k: k == "corrupt"),
    "races_detected": ("races_detected", lambda key: key[1] != "warning"),
}
_FAMILY_FIELDS = {
    **{name: (name, None) for name in RUN_FAMILIES
       if name not in {family for family, _ in _VIEWS.values()}},
    **_VIEWS}


class RunStats:
    """Counters accumulated over a run (read by displays and benches).

    A read-only view: a field with a run-count family sums that family's
    labels (or some, see :data:`_VIEWS`); the fields with no family are
    plain ints, counted where their event happens.
    """

    __slots__ = ("counts", "broadcast_deliveries", "accepts",
                 "messages_to_dead", "messages_deleted", "tasks_killed",
                 "window_bytes_read", "window_bytes_written", "window_txns",
                 "send_failures", "checkpoint_bytes")

    def __init__(self, counts: Any):
        self.counts = counts
        for name in self.__slots__[1:]:
            setattr(self, name, 0)

    def __getattr__(self, name: str) -> int:
        try:
            family, pick = _FAMILY_FIELDS[name]
        except KeyError:
            raise AttributeError(name) from None
        return sum(c.value for key, c in getattr(self.counts, family).items()
                   if pick is None or pick(key))

    def as_dict(self) -> Dict[str, int]:
        """Every field, sorted by name."""
        return {name: getattr(self, name) for name in
                sorted((*_FAMILY_FIELDS, *self.__slots__[1:]))}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return "RunStats(" + ", ".join(
            f"{k}={v}" for k, v in self.as_dict().items()) + ")"


@dataclass
class RunResult(RunRecord):
    """Outcome of ``PiscesVM.run``."""

    value: Any
    task: TaskId
    elapsed: int
    console: str
    stats: RunStats
    vm: "PiscesVM"


@dataclass(frozen=True)
class AppPlan:
    """Everything needed to boot and run one app: the task registry, the
    configuration (section 9), the root ``(tasktype, args)`` and the
    fault plan.  An app module's plan function is the one place its
    configuration is decided; its ``run_*`` entry point and the service
    catalog both run the plan it returns."""

    registry: TaskRegistry
    config: Configuration
    tasktype: str
    args: Tuple[Any, ...] = ()
    #: An explicit FaultPlan, or None for the ambient one (if any).
    fault_plan: Optional[Any] = None

    def boot(self, machine: Optional[FlexMachine] = None,
             **config: Any) -> "PiscesVM":
        """A VM for the plan; ``config`` overrides configuration fields."""
        return PiscesVM(replace(self.config, **config) if config
                        else self.config, self.registry, machine=machine,
                        fault_plan=self.fault_plan)

    def run(self, machine: Optional[FlexMachine] = None) -> RunResult:
        """Boot the plan and run its root task to completion."""
        return self.boot(machine).run(self.tasktype, *self.args)


class PiscesVM:
    """One booted PISCES 2 virtual machine."""

    #: Test seams, never set by a product caller.  ``window_path``:
    #: "fast" (batched window transfers plus the reader cache) or
    #: "reference" (one message per row, uncached).  ``task_bodies``:
    #: "auto" (generator bodies suspend as coroutines at the KernelOp
    #: seam) or "callable" (the same op stream driven through blocking
    #: calls on a worker thread).  Each non-default value is an oracle
    #: with the identical virtual history; ``tests/oracles.py`` holds
    #: them.
    window_path = "fast"
    task_bodies = "auto"

    def __init__(self, config: Configuration,
                 registry: Optional[TaskRegistry] = None,
                 machine: Optional[FlexMachine] = None,
                 autoboot: bool = True,
                 fault_plan: Optional[Any] = None,
                 detect_races: Optional[Any] = None,
                 schedule: Optional[Any] = None):
        self.config = config
        self.registry = registry if registry is not None else GLOBAL_REGISTRY
        self.machine = machine if machine is not None else nasa_langley_flex32()
        config.validate(self.machine.spec)
        self.kernel = MMOSKernel(
            self.machine, time_limit=config.time_limit,
            schedule=resolve_schedule(schedule,
                                      bool(config.checkpoint_every)))
        self.engine = self.kernel.engine
        #: The run's decision stream (a correctness ``Schedule``) or
        #: None, mirrored from the engine so the run-time library's
        #: decision sites (lock grants, SELFSCHED grabs, accept matches)
        #: pay one attribute test when off.
        self.sched_hook = self.engine.sched_hook
        self.tracer = Tracer()
        for name in config.trace_events:
            self.tracer.enable(TraceEventType(name))
        #: Happens-before race detector, or None (off): the explicit
        #: argument, else the configuration flag.  A True value means
        #: "record" mode; a string selects record/warn/raise.
        self.race_detector: Optional[Any] = None
        if detect_races is None:
            detect_races = config.detect_races
        if detect_races:
            self.enable_race_detection(
                mode=detect_races if isinstance(detect_races, str)
                else "record")
        #: Causal profiler (see :mod:`repro.obs.profile`), or None
        #: (off): the configuration flag turns it on at boot, and
        #: ``enable_profiling()`` turns it on explicitly (api.profile_run
        #: does).
        self.profiler: Optional[Any] = None
        if config.profile:
            self.enable_profiling()
        #: Observability registry (see :mod:`repro.obs`).  Disabled by
        #: default: the metrics-only sites guard on ``.enabled``, while
        #: the run-count families behind ``stats`` always count.
        self.metrics = MetricsRegistry(enabled=config.metrics_enabled)
        self.counts = SimpleNamespace(**{
            name: self.metrics.counter_family(name, *labels, run=True)
            for name, labels in RUN_FAMILIES.items()})
        self.stats = RunStats(self.counts)
        #: Per-message metrics-only families, bound once.
        self.msg_traffic = self.metrics.counter_family(
            "msg_traffic", "src", "dst", "mtype")
        self.accept_latency = self.metrics.histogram_family(
            "send_accept_latency_ticks", "tasktype")
        #: The engine's slice metrics, observing while metrics are on.
        self._slice_meter = SliceMeter(self.metrics)
        if self.metrics.enabled:
            self.engine.observe(self._slice_meter)
        self.tracer.metrics = self.metrics
        self.default_accept_delay = config.default_accept_delay
        #: System-wide ACCEPT timeout escalation (satellite 2); None
        #: keeps the paper's single-wait semantics with zero overhead.
        self.accept_retry: Optional[RetryPolicy] = (
            RetryPolicy(config.accept_retries, config.accept_backoff,
                        config.accept_jitter)
            if config.accept_retries else None)
        #: The seeded run RNG: the only source of randomness consumed at
        #: virtual-time-ordered points (backoff jitter).  Because every
        #: consumption site executes in deterministic dispatch order, a
        #: seeded run -- and a checkpoint-restored replay of its prefix
        #: -- draws the same variates in the same order.
        self.run_rng = random.Random(config.run_seed)
        #: Fault injector, or None for a fault-free run.  The explicit
        #: ``fault_plan`` argument wins; otherwise a plan installed by
        #: ``faults.plan_scope`` applies (entry points that build their
        #: own VM).  Non-empty plans hook the engine's dispatch loop;
        #: a fault-free run pays one ``is not None`` test per site.
        from .. import faults as _faults
        plan = fault_plan if fault_plan is not None else _faults.ambient_plan()
        if plan is not None and not plan.empty:
            self.faults = _faults.FaultInjector(self, plan)
            self.engine._fault_pump = self.faults.pump
        else:
            self.faults = None
        #: The top-level run request ``(tasktype, args, placement)``
        #: recorded by :meth:`run` -- what a checkpoint manifest needs
        #: to rebuild this VM's workload in a fresh process.
        self._run_request: Optional[Tuple[str, Tuple[Any, ...], Any]] = None
        #: Periodic checkpointer (see :mod:`repro.checkpoint.policy`),
        #: or None (off).  It needs the full decision stream, which
        #: :func:`resolve_schedule` installed.
        self.checkpointer: Optional[Any] = None
        if config.checkpoint_every:
            from ..checkpoint.policy import PeriodicCheckpointer
            self.checkpointer = PeriodicCheckpointer(
                self, every=config.checkpoint_every,
                directory=config.checkpoint_dir or ".",
                keep=config.checkpoint_keep)
            self.engine._ckpt_pump = self.checkpointer.pump

        self.clusters: Dict[int, ClusterRuntime] = {}
        self.tasks: Dict[TaskId, Task] = {}
        self.controllers: Dict[TaskId, Controller] = {}
        self.task_controllers: Dict[int, TaskController] = {}
        self.user_controller: Optional[UserController] = None
        self.file_controller: Optional[FileController] = None
        #: Messages delivered to USER: (mtype, args, sender, arrival).
        self.user_messages: List[Tuple[str, Tuple[Any, ...], TaskId, int]] = []
        self.loadfile: Optional[Loadfile] = None
        self._req_counter = itertools.count(1)
        #: initiate request id -> TaskId once the controller started it.
        self.initiations: Dict[int, TaskId] = {}
        self._booted = False
        if autoboot:
            self.boot()

    # ------------------------------------------------------------- metrics --

    def enable_metrics(self) -> None:
        """Turn on the observability registry (live, e.g. from the
        monitor); already-running components see it immediately, the
        engine's slice metrics from its next dispatch batch."""
        if not self.metrics.enabled:
            self.metrics.enabled = True
            self.engine.observe(self._slice_meter)

    def disable_metrics(self) -> None:
        self.metrics.enabled = False
        self.engine.unobserve(self._slice_meter)

    # ------------------------------------------------------------- races --

    def enable_race_detection(self, mode: Optional[str] = None):
        """Turn on the happens-before race detector (idempotent).

        Best enabled before the run starts: tasks created while it is
        off hold plain (untracked) SHARED COMMON arrays, so only
        synchronization edges -- not their accesses -- are observed for
        them.  ``mode=None`` keeps an existing detector's mode
        (``"record"`` for a fresh one).  Detection charges no virtual
        time; see :mod:`repro.correctness`.
        """
        if self.race_detector is not None:
            if mode is not None:
                self.race_detector.mode = mode
            return self.race_detector
        from ..correctness.detector import RaceDetector
        det = RaceDetector(self, mode=mode or "record")
        self.race_detector = det
        self.engine.observe(det)
        return det

    # ---------------------------------------------------------- profiling --

    def enable_profiling(self):
        """Turn on the causal profiler (idempotent).

        Best enabled before the run starts: waits that began while it
        was off cannot be attributed.  Profiling charges no virtual
        time -- elapsed ticks and trace streams are bit-identical with
        it on or off (the profile-overhead benchmark asserts this);
        see :mod:`repro.obs.profile`.
        """
        if self.profiler is None:
            from ..obs.profile import CausalProfiler
            self.profiler = CausalProfiler()
            self.engine.observe(self.profiler)
        return self.profiler

    def _metric_name_of(self, tid: TaskId) -> str:
        """Tasktype / controller-kind name of a taskid (metric label)."""
        task = self.tasks.get(tid)
        if task is not None:
            return task.ttype.name
        ctrl = self.controllers.get(tid)
        if ctrl is not None:
            return f"<{ctrl.kind}>"
        if tid == USER_TERMINAL_ID or tid.cluster == 0:
            return "<user>"
        return "<unknown>"

    # ---------------------------------------------------------------- boot --

    def boot(self) -> None:
        """Download the loadfile and start the controllers (section 11)."""
        if self._booted:
            return
        cfg = self.config
        # 1. Build and download the loadfile to every PE the run uses.
        lf = Loadfile()
        lf.add(CAT_MMOS_KERNEL, MMOS_KERNEL_BYTES)
        lf.add(CAT_PISCES_CODE, PISCES_SYSTEM_CODE_BYTES)
        lf.add(CAT_PISCES_DATA, PISCES_SYSTEM_DATA_BYTES)
        lf.add(CAT_USER_CODE, self.registry.total_code_bytes())
        lf.load_onto(self.machine, cfg.used_pes())
        self.loadfile = lf
        # 2. Allocate the static system tables in shared memory.
        for spec in cfg.clusters:
            cr = ClusterRuntime(spec.number, spec.primary_pe,
                                spec.secondary_pes, spec.slots)
            cr.table_alloc = self.machine.shared.alloc(
                slot_table_bytes(spec.slots, N_CONTROLLER_SLOTS),
                tag="system_table")
            self.clusters[spec.number] = cr
        # 3. Start the controllers.
        for num, cr in sorted(self.clusters.items()):
            tc = TaskController(self, cr)
            tc.start()
            self.task_controllers[num] = tc
            self.controllers[tc.tid] = tc
        ucr = self.clusters[cfg.effective_user_cluster()]
        self.user_controller = UserController(self, ucr)
        self.user_controller.start()
        self.controllers[self.user_controller.tid] = self.user_controller
        fcr = self.clusters[cfg.effective_file_cluster()]
        self.file_controller = FileController(self, fcr)
        self.file_controller.start()
        self.controllers[self.file_controller.tid] = self.file_controller
        self._booted = True

    # ------------------------------------------------------------ initiate --

    def request_initiate(self, tasktype_name: str, args: Tuple[Any, ...],
                         parent: TaskId, placement: Placement = ANY,
                         current_cluster: Optional[int] = None,
                         supervision: Optional[Supervision] = None,
                         restarts: int = 0,
                         extra_latency: int = 0) -> int:
        """Route an initiate request to a task controller; returns a
        request id (resolvable to the taskid via ``initiations`` once
        the controller has started the task).

        ``supervision`` is the failure-semantics policy for the new
        task; ``restarts`` counts prior incarnations (used by RESTART
        re-initiations to bound the budget)."""
        self.registry.get(tasktype_name)  # fail fast on unknown types
        target = self._resolve_placement(placement, current_cluster)
        req_id = next(self._req_counter)
        self.counts.initiate_requests[target].value += 1
        if self.engine.in_process():
            self.engine.charge(COST_INITIATE_REQUEST)
        tc = self.task_controllers[target]
        tc.cluster.inflight_initiates += 1
        self._deliver(tc.inq, tc.cluster.number, tc.process, MSG_INITIATE,
                      (req_id, tasktype_name, tuple(args), parent,
                       supervision, restarts),
                      sender=parent,
                      sender_cluster=current_cluster or target,
                      extra_latency=extra_latency)
        return req_id

    def _resolve_placement(self, placement: Placement,
                           current_cluster: Optional[int]) -> int:
        """ANY / OTHER / SAME / CLUSTER <n> -> a cluster number.

        Failed clusters (their primary PE crashed) are never chosen by
        the system (ANY/OTHER); naming one explicitly is an error."""
        numbers = sorted(n for n, c in self.clusters.items() if not c.failed)
        if isinstance(placement, Cluster):
            placement = placement.number
        if isinstance(placement, int):
            if placement not in self.clusters:
                raise NoSuchCluster(f"no cluster {placement} in this run "
                                    f"(have {sorted(self.clusters)})")
            if self.clusters[placement].failed:
                raise NoSuchCluster(f"cluster {placement} has failed "
                                    f"(its primary PE is dead)")
            return placement
        if not numbers:
            raise NoSuchCluster("every cluster in this run has failed")
        if placement is SAME:
            if current_cluster is None:
                raise NoSuchCluster("SAME used outside a task")
            return current_cluster
        if placement is OTHER:
            candidates = [n for n in numbers if n != current_cluster]
            if not candidates:
                raise NoSuchCluster("OTHER: there is no other cluster")
            return self._least_loaded(candidates)
        if placement is ANY:
            return self._least_loaded(numbers)
        raise NoSuchCluster(f"bad cluster designator {placement!r}")

    def _least_loaded(self, candidates: List[int]) -> int:
        """System choice: most free slots net of held requests, then
        lowest cluster number (deterministic)."""
        def key(n: int) -> Tuple[int, int]:
            cr = self.clusters[n]
            free = (cr.free_slot_count() - len(cr.pending)
                    - cr.inflight_initiates)
            return (-free, n)
        return min(candidates, key=key)

    # ------------------------------------------------------ task lifecycle --

    def start_task_in_slot(self, cluster: ClusterRuntime, slot: Slot,
                           tasktype_name: str, args: Tuple[Any, ...],
                           parent: TaskId,
                           req_id: Optional[int] = None,
                           supervision: Optional[Supervision] = None,
                           restarts: int = 0) -> Task:
        """Called by a task controller to place a task into a free slot."""
        ttype = self.registry.get(tasktype_name)
        tid = slot.claim()
        task = Task(self, ttype, tid, parent, cluster, args,
                    supervision=supervision, restarts=restarts)
        slot.task = task
        self.tasks[tid] = task
        self.counts.tasks_started[cluster.number, ttype.name].value += 1
        task.initiated_at = self.engine.now()
        m = self.metrics
        if m.enabled:
            m.gauge("slot_occupancy", cluster=cluster.number).set(
                cluster.n_slots - cluster.free_slot_count())
        # Declared SHARED COMMON blocks and LOCK variables are allocated
        # at initiation ("allocated statically in shared memory").
        for name, spec in ttype.shared.items():
            task.shared_state.declare_common(name, spec)
        for lname in ttype.locks:
            task.shared_state.declare_lock(lname)
        task.alive = True
        task.process = self.kernel.create_process(
            f"{ttype.name}@{tid}", cluster.primary_pe,
            self._make_task_target(task))
        # Cleanup runs via on_exit so it happens even when the task is
        # killed before its first slice ever runs.
        task.process.on_exit = lambda proc: self._task_cleanup(task)
        if req_id is not None:
            self.initiations[req_id] = tid
        task.trace(TraceEventType.TASK_INIT,
                   info=f"type={ttype.name}", other=parent)
        return task

    def _make_task_target(self, task: Task) -> Callable[[], Any]:
        """Choose the process target for a task body.

        A generator-function body is a *coroutine body*: it ``yield
        from``s the ctx operations, so the whole task suspends at the
        KernelOp seam, with no worker thread at all.  Under the
        "callable" vehicle the identical op stream is instead driven
        through the engine's blocking calls on a worker thread -- the
        oracle leg of the body-form equivalence suite.  A plain
        callable body keeps the classic path unchanged.
        """
        if inspect.isgeneratorfunction(task.ttype.fn):
            if self.task_bodies == "callable":
                return lambda: drive_kernel_ops(
                    self.engine, self._task_body_gen(task))

            def target():
                # Inlined _task_body_gen: one less delegation frame on
                # every resume of the per-dispatch hot path.
                ctx = TaskContext(task, self.engine.current(),
                                  coroutine=True)
                task.result = yield from task.ttype.fn(ctx, *task.args)
                return task.result
            return target
        return lambda: self._task_body(task)

    def _task_body(self, task: Task) -> Any:
        ctx = TaskContext(task, self.engine.current())
        task.result = task.ttype.fn(ctx, *task.args)
        return task.result

    def _task_body_gen(self, task: Task):
        ctx = TaskContext(task, self.engine.current(), coroutine=True)
        task.result = yield from task.ttype.fn(ctx, *task.args)
        return task.result

    def _task_cleanup(self, task: Task) -> None:
        """Terminate a task: free its messages and shared storage, then
        notify the task controller (which frees the slot).

        Must not yield -- it also runs while unwinding a killed task.
        """
        if not task.alive:
            return
        task.alive = False
        task.terminated_at = self.engine.now()
        self.counts.tasks_finished[task.cluster.number,
                                   task.ttype.name].value += 1
        m = self.metrics
        if m.enabled:
            m.histogram("task_lifetime_ticks", tasktype=task.ttype.name
                        ).observe(task.terminated_at - task.initiated_at)
        heap = self.machine.shared
        for m in task.inq.remove_type(None):
            release_message(heap, m)
        task.shared_state.release_all()
        # A task whose process was killed died abnormally -- unless the
        # whole engine is being reaped, which is a normal end of run.
        died = bool(task.process is not None and task.process.killed
                    and not self.engine.shutting_down)
        reason = task.died_reason or ("killed" if died else "")
        term_info = f"type={task.ttype.name}"
        if died:
            # Aborted tasks say so in their TASK_TERM record, so span
            # derivation closes their lifetime with status=aborted
            # instead of leaking an open span (reason tokens stay
            # whitespace-free: the info field is token=value pairs).
            term_info += f" status=aborted reason={reason.replace(' ', '-')}"
        task.trace(TraceEventType.TASK_TERM, info=term_info)
        self.engine.charge(COST_TASK_TERMINATE) if self.engine.in_process() else None
        if died:
            self.counts.tasks_died[task.ttype.name].value += 1
        tc = self.task_controllers[task.cluster.number]
        if tc.cluster.failed:
            # The home controller died with its PE; a surviving
            # controller (lowest live cluster) cleans up on its behalf.
            live = sorted(n for n, c in self.clusters.items() if not c.failed)
            if not live:
                return  # nobody left to notify; the run is over
            tc = self.task_controllers[live[0]]
        # The slot is NOT freed here: the task controller frees it when
        # it processes @TERMINATED, which keeps held initiate requests
        # strictly FIFO with later ones (section 6).
        try:
            self._deliver(tc.inq, tc.cluster.number, tc.process,
                          MSG_TERMINATED, (task.tid, died, reason),
                          sender=task.tid,
                          sender_cluster=task.cluster.number)
        except Exception:
            pass  # heap exhaustion during unwind must not mask the cause

    def kill_task(self, tid: TaskId, reason: str = "killed") -> bool:
        """KILL A TASK (monitor option 2).  Returns False if not live."""
        task = self.tasks.get(tid)
        if task is None or not task.alive:
            return False
        self.stats.tasks_killed += 1
        task.died_reason = reason
        if task.force is not None:
            for p in task.force.member_procs.values():
                self.engine.kill(p)
        if task.process is not None:
            self.engine.kill(task.process)
        return True

    def find_task(self, tid: TaskId) -> Task:
        task = self.tasks.get(tid)
        if task is None:
            raise UnknownTask(f"no task {tid} was ever initiated")
        return task

    # ------------------------------------------------- failure semantics --

    def on_pe_failure(self, pe_number: int, reason: str = "pe-crash") -> None:
        """A processing element dies (fault injection, or a hang the
        monitor declares dead).

        Consequences, in deterministic order: the PE is marked failed;
        every cluster whose *primary* PE it was goes down with it (its
        held initiate requests are re-routed to survivors); every live
        task of a failed cluster is killed (``ProcessKilled`` unwinds
        it mid-statement); any remaining kernel process pinned to the
        PE -- controller daemons, force members placed there -- is
        killed too.
        """
        pe = self.machine.pe(pe_number)
        if pe.failed:
            return
        self.machine.fail_pe(pe_number)
        if self.faults is not None:
            self.faults.record("pe_crash",
                               f"pe={pe_number} reason={reason}",
                               pe=pe_number)
        rerouted: List[PendingInitiate] = []
        for num in sorted(self.clusters):
            cr = self.clusters[num]
            if cr.primary_pe == pe_number and not cr.failed:
                cr.failed = True
                while cr.pending:
                    rerouted.append(cr.pending.popleft())
        doomed = sorted(
            (t for t in self.tasks.values()
             if t.alive and t.cluster.failed),
            key=lambda t: (t.tid.cluster, t.tid.slot, t.tid.unique))
        for task in doomed:
            self.kill_task(task.tid, reason=reason)
        for p in sorted(self.engine.live_processes(), key=lambda q: q.pid):
            if p.pe == pe_number and not p.killed:
                self.engine.kill(p)
        survivors = sorted(n for n, c in self.clusters.items()
                           if not c.failed)
        for req in rerouted:
            if not survivors:
                break
            target = self._least_loaded(survivors)
            tc = self.task_controllers[target]
            tc.cluster.inflight_initiates += 1
            self._deliver(tc.inq, tc.cluster.number, tc.process,
                          MSG_INITIATE,
                          (None, req.tasktype, req.args, req.parent,
                           req.supervision, req.restarts),
                          sender=req.parent, sender_cluster=target)
            if self.faults is not None:
                self.faults.record(
                    "initiate_rerouted",
                    f"type={req.tasktype} to=cluster{target}")

    def handle_task_death(self, tid: TaskId, reason: str,
                          origin: Union[Controller, None] = None) -> None:
        """Apply the dead task's supervision policy (called by the task
        controller that processed its abnormal ``@TERMINATED``).

        RESTART with budget left re-initiates the tasktype with the
        original arguments on a surviving cluster (backed off by the
        policy's ``backoff_ticks`` per prior incarnation).  Otherwise
        the parent is notified with a system ``TASK_DIED <taskid,
        reason>`` message -- re-routed to USER when the parent is the
        terminal or itself dead -- and, under NOTIFY, USER always
        hears about it too.
        """
        task = self.tasks.get(tid)
        if task is None:
            return
        sup = task.supervision
        if sup is not None and sup.restarts \
                and task.restarts_used < sup.max_restarts:
            try:
                incarnation = task.restarts_used + 1
                extra = sup.backoff_ticks * incarnation
                if sup.jitter and extra:
                    # Jitter from the seeded run RNG: consumed at a
                    # virtual-time-ordered point, so determinism holds.
                    spread = int(extra * sup.jitter)
                    if spread:
                        extra = max(0, extra + self.run_rng.randrange(
                            -spread, spread + 1))
                self.request_initiate(
                    task.ttype.name, task.args, parent=task.parent,
                    placement=ANY, supervision=sup, restarts=incarnation,
                    extra_latency=extra)
            except NoSuchCluster:
                pass  # nowhere left to restart; fall through to notify
            else:
                self.counts.tasks_restarted[task.ttype.name].value += 1
                if self.faults is not None:
                    self.faults.record(
                        "restart",
                        f"type={task.ttype.name} of={tid} "
                        f"incarnation={incarnation}",
                        task=tid)
                return
        if self.faults is not None:
            self.faults.record("task_died", f"task={tid} reason={reason}",
                               task=tid)
        notify = []
        parent_task = self.tasks.get(task.parent)
        if task.parent != USER_TERMINAL_ID and parent_task is not None \
                and parent_task.alive:
            notify.append(task.parent)
        else:
            notify.append(USER_TERMINAL_ID)
        if sup is not None and sup.policy == "notify" \
                and USER_TERMINAL_ID not in notify:
            notify.append(USER_TERMINAL_ID)
        for dest in notify:
            try:
                self.send_message(dest, MSG_TASK_DIED, (tid, reason),
                                  origin=origin)
            except MessageError:
                pass  # the notification must never take the system down

    # ------------------------------------------------------------ messages --

    def send_message(self, dest, mtype: str, args: Tuple[Any, ...],
                     origin: Union[TaskContext, Controller, None],
                     require_delivery: bool = False) -> int:
        """Deliver a message; returns the number of deliveries made.

        ``origin`` identifies the sender: a task context, a controller,
        or None for the user at the terminal (the monitor's SEND A
        MESSAGE).  ``require_delivery=True`` raises
        :class:`~repro.errors.SendFailed` instead of silently dropping
        a send to a dead taskid.
        """
        sender, sender_cluster = self._origin_identity(origin)
        if self.engine.in_process():
            _, npackets = message_bytes(args)
            self.engine.charge(COST_SEND + npackets * COST_PER_PACKET)
        targets = self._resolve_dest(dest, origin,
                                     require_delivery=require_delivery)
        n = 0
        for inq, rcluster, proc, rtid in targets:
            self._deliver(inq, rcluster, proc, mtype, args,
                          sender=sender, sender_cluster=sender_cluster,
                          receiver=rtid)
            n += 1
        if isinstance(dest, Broadcast):
            self.stats.broadcast_deliveries += n
        return n

    def _origin_identity(self, origin) -> Tuple[TaskId, int]:
        if origin is None:
            return USER_TERMINAL_ID, self.config.effective_user_cluster()
        if isinstance(origin, TaskContext):
            return origin.task.tid, origin.task.cluster.number
        if isinstance(origin, Controller):
            return origin.tid, origin.cluster.number
        raise MessageError(f"bad message origin {origin!r}")

    def _resolve_dest(self, dest, origin, require_delivery: bool = False
                      ) -> List[Tuple[InQueue, int, Any, TaskId]]:
        """Resolve a destination to (in-queue, cluster, process, tid) list."""
        if isinstance(dest, SendTarget):
            if dest is SendTarget.USER:
                uc = self.user_controller
                return [(uc.inq, uc.cluster.number, uc.process, uc.tid)]
            if not isinstance(origin, TaskContext):
                raise MessageError(f"{dest.value} is only valid inside a task")
            if dest is SendTarget.PARENT:
                tid = origin.parent
            elif dest is SendTarget.SELF:
                tid = origin.self_id
            elif dest is SendTarget.SENDER:
                if origin.sender is None:
                    raise MessageError("SENDER: no message received yet")
                tid = origin.sender
            else:  # pragma: no cover - enum is exhaustive
                raise MessageError(f"bad send target {dest}")
            dest = tid
        if isinstance(dest, TContr):
            if dest.cluster not in self.task_controllers:
                raise NoSuchCluster(f"TCONTR {dest.cluster}: no such cluster")
            tc = self.task_controllers[dest.cluster]
            return [(tc.inq, tc.cluster.number, tc.process, tc.tid)]
        if isinstance(dest, Broadcast):
            if dest.cluster is None:
                members = sorted(self.clusters)
            elif dest.cluster in self.clusters:
                members = [dest.cluster]
            else:
                raise NoSuchCluster(f"broadcast to unknown cluster "
                                    f"{dest.cluster}")
            sender_tid, _ = self._origin_identity(origin)
            out = []
            for n in members:
                for task in self.clusters[n].running_tasks():
                    if task.alive and task.tid != sender_tid:
                        out.append((task.inq, n, task.process, task.tid))
            return out
        if isinstance(dest, TaskId):
            if dest == USER_TERMINAL_ID:
                uc = self.user_controller
                return [(uc.inq, uc.cluster.number, uc.process, uc.tid)]
            ctrl = self.controllers.get(dest)
            if ctrl is not None:
                return [(ctrl.inq, ctrl.cluster.number, ctrl.process,
                         ctrl.tid)]
            task = self.tasks.get(dest)
            if task is None:
                raise UnknownTask(f"send to unknown taskid {dest}")
            if not task.alive:
                # Stale taskid (the unique number exists for this): the
                # message is undeliverable and silently dropped -- unless
                # the sender opted into strict delivery (per-send, or a
                # fault plan's ``strict_sends`` for all task origins).
                self.stats.messages_to_dead += 1
                strict = (self.faults is not None
                          and self.faults.plan.strict_sends
                          and isinstance(origin, TaskContext))
                if require_delivery or strict:
                    self.stats.send_failures += 1
                    if self.faults is not None:
                        self.faults.record("send_failed", f"dest={dest}",
                                           task=dest)
                    raise SendFailed(dest)
                return []
            return [(task.inq, task.cluster.number, task.process, task.tid)]
        raise MessageError(f"bad send destination {dest!r}")

    def _deliver(self, inq: InQueue, receiver_cluster: int, receiver_proc,
                 mtype: str, args: Tuple[Any, ...], *, sender: TaskId,
                 sender_cluster: int,
                 receiver: Optional[TaskId] = None,
                 extra_latency: int = 0) -> Optional[Message]:
        """Allocate, enqueue and wake; the single delivery primitive.

        With a fault plan active, eligible deliveries pass through the
        injector here: a dropped message is never allocated (returns
        None), a delayed one arrives late, a corrupted one carries a
        payload that fails its checksum at accept, a duplicated one is
        enqueued twice.
        """
        now = self.engine.now()
        latency = (MSG_LATENCY_INTRA_CLUSTER
                   if sender_cluster == receiver_cluster
                   else MSG_LATENCY_INTER_CLUSTER) + extra_latency
        faults = self.faults
        action = None
        if faults is not None:
            action = faults.on_message(mtype)
            if action is not None:
                to = receiver or inq.owner
                faults.record(action, f"type={mtype} from={sender} to={to}")
                if action == "drop":
                    return None
                if action == "delay":
                    latency += faults.delay_ticks
        msg = allocate_message(self.machine.shared, mtype, tuple(args),
                               sender=sender,
                               receiver=receiver or inq.owner,
                               send_time=now, arrival_time=now + latency)
        if faults is not None and faults.checksums \
                and faults.message_eligible(mtype):
            msg.checksum = payload_checksum(mtype, msg.args)
            if action == "corrupt":
                # Mutate the payload *after* allocation: the heap bytes
                # are unchanged (a bit flip, not a resize) and the stale
                # checksum makes the damage detectable at accept.
                from ..faults.injector import corrupt_args
                msg.args = corrupt_args(msg.args)
        inq.enqueue(msg)
        det = self.race_detector
        if det is not None:
            det.on_send(msg)
        counts = self.counts
        sent = counts.messages_sent[
            receiver_cluster,
            "intra" if sender_cluster == receiver_cluster else "inter"]
        sent.value += 1
        sent_bytes = counts.message_bytes_sent[receiver_cluster]
        sent_bytes.value += msg.nbytes
        if self.metrics.enabled:
            self.msg_traffic[self._metric_name_of(sender),
                              self._metric_name_of(msg.receiver),
                              mtype].value += 1
        sender_task = self.tasks.get(sender)
        if sender_task is not None:
            sender_task.trace(TraceEventType.MSG_SEND,
                              info=f"type={mtype} bytes={msg.nbytes}",
                              other=inq.owner)
        self._wake_receiver(receiver_proc, msg.arrival_time)
        if action == "duplicate":
            # At-least-once transport: a second identical copy arrives
            # right behind the first (same latency, later queue seq).
            dup = allocate_message(self.machine.shared, mtype, msg.args,
                                   sender=sender, receiver=msg.receiver,
                                   send_time=now,
                                   arrival_time=msg.arrival_time)
            dup.checksum = msg.checksum
            inq.enqueue(dup)
            if det is not None:
                det.on_send(dup)
            sent.value += 1
            sent_bytes.value += dup.nbytes
            self._wake_receiver(receiver_proc, dup.arrival_time)
        return msg

    def _wake_receiver(self, proc, arrival: int) -> None:
        """Wake a receiver blocked in accept/controller-wait, unless its
        own deadline fires before the message would arrive.

        Processes blocked for any *other* reason (barrier, critical,
        force-join, disk I/O) must NOT be woken by message arrival --
        the message waits in the in-queue until the next ACCEPT.
        """
        if proc is None:
            return
        if proc.state is not ProcState.BLOCKED:
            return
        if not (proc.blocked_on.startswith("accept(")
                or proc.blocked_on.endswith("-wait")):
            return
        if proc.deadline is not None and proc.deadline < arrival:
            return  # let the earlier timeout fire; message stays queued
        self.engine.wake(proc, at_time=arrival)

    def delete_messages(self, tid: TaskId, mtype: Optional[str] = None) -> int:
        """DELETE MESSAGES (monitor option 4); returns messages dropped."""
        task = self.find_task(tid)
        dropped = task.inq.remove_type(mtype)
        for m in dropped:
            release_message(self.machine.shared, m)
        self.stats.messages_deleted += len(dropped)
        return len(dropped)

    # -------------------------------------------------------------- windows --

    def _owner_store(self, tid: TaskId) -> ArrayStore:
        ctrl = self.controllers.get(tid)
        if isinstance(ctrl, FileController):
            return ctrl.arrays
        task = self.tasks.get(tid)
        if task is None:
            raise WindowError(f"window owner {tid} does not exist")
        if not task.alive:
            raise WindowError(f"window owner {tid} has terminated")
        return task.arrays

    def _file_io_wait(self, w: Window, write: bool):
        """For windows owned by the file controller: occupy the disks
        and block the requester until the (striped) transfer lands.

        A KernelOp generator (the disk waits are suspension points;
        see :class:`~repro.core.task.TaskContext`).  Section 8's
        overlapping-access contract is enforced here: a transfer that
        conflicts with one still in flight (any overlap where either
        side writes) waits for it to land first; disjoint transfers --
        and overlapping reads -- proceed in parallel across the disk
        stripes.
        """
        fc = self.file_controller
        if fc is None or w.owner != fc.tid:
            return
        while True:
            now = self.engine.now()
            until = fc.conflicting_transfer(w, write, now)
            if until is None:
                break
            self.counts.window_overlap_waits[()].value += 1
            yield co_block("window-overlap-wait", deadline=until, cost=0)
        base = fc.arrays.get(w.array)
        # File offset of the window's first element in the byte stream.
        offset = 0
        stride = base.size * ITEMSIZE
        for (lo, _), dim in zip(w.bounds, base.shape):
            stride //= dim
            offset += lo * stride
        now = self.engine.now()
        done = fc.disks.transfer(now, offset, w.nbytes, write)
        fc.note_transfer(w, write, done)
        if done > now:
            yield co_block("disk-io", deadline=done, cost=0)

    # Both data-plane paths below charge the identical virtual-time
    # cost (one window_transfer_cost, the same disk wait, one preempt),
    # so fast and reference runs are bit-identical in virtual time; the
    # paths differ only in host-level data movement.

    def _requester_id(self, ctx, store: ArrayStore) -> TaskId:
        return getattr(ctx, "self_id", None) or store.owner

    def _requester_cache(self, ctx):
        task = getattr(ctx, "task", None)
        return None if task is None else task.window_cache

    def _window_txn(self, store: ArrayStore, txn: WindowTxn,
                    requester: TaskId) -> WindowTxnReply:
        """Carry one WindowTxn to the owner on its typed transaction
        queue and serve it (a one-sided shared-memory access: the
        engine's one-at-a-time admission makes it atomic, so request,
        service and reply land at the same virtual instant).  Request
        and reply claim real heap extents, so window traffic shows up
        in the message-heap high-water mark like any other traffic."""
        heap = self.machine.shared
        now = self.engine.now()
        q = store.txns
        if q.metrics is None:
            q.metrics = self.metrics
            q.metric_labels = {"kind": "wtxn"}
        req = allocate_message(heap, MSG_WINDOW_TXN, (txn,),
                               sender=requester, receiver=store.owner,
                               send_time=now, arrival_time=now)
        q.enqueue(req)
        try:
            m = q.first_matching((MSG_WINDOW_TXN,), not_after=now)
            q.remove(m)
            reply = store.serve_txn(m.args[0], now)
            rep = allocate_message(heap, MSG_WINDOW_TXN_REPLY, (reply,),
                                   sender=store.owner, receiver=requester,
                                   send_time=now, arrival_time=now)
            release_message(heap, rep)
        finally:
            release_message(heap, req)
        self.stats.window_txns += 1
        return reply

    def _window_read_reference(self, store: ArrayStore, w: Window,
                               requester: TaskId) -> Grid:
        """The unbatched oracle: one transient message per leading-axis
        row, each allocated and freed on the shared heap."""
        heap = self.machine.shared
        now = self.engine.now()
        out = Grid.zeros(w.shape, w.dtype)
        rest = tuple((0, n) for n in w.shape[1:])
        i = 0
        for row in store.read_rows(w, now):
            msg = allocate_message(heap, MSG_WINDOW_ROW, (w, row),
                                   sender=store.owner, receiver=requester,
                                   send_time=now, arrival_time=now)
            out.write(((i, i + 1),) + rest, row)
            release_message(heap, msg)
            i += 1
        return out

    def _window_write_reference(self, store: ArrayStore, w: Window,
                                data, requester: TaskId) -> None:
        heap = self.machine.shared
        now = self.engine.now()

        def per_row(row: Grid) -> None:
            msg = allocate_message(heap, MSG_WINDOW_ROW, (w, row),
                                   sender=requester, receiver=store.owner,
                                   send_time=now, arrival_time=now)
            release_message(heap, msg)

        store.write_rows(w, data, now, per_row=per_row)

    def window_read_gen(self, ctx: TaskContext, w: Window, *,
                        rows=None, cols=None):
        """Remote read of the data visible in a window (a KernelOp
        generator; value: the data).

        ``rows=`` / ``cols=`` shrink the window for this one access.
        Charges the requester the transfer cost and moves the block
        through the shared-memory message heap; reads of file-controller
        windows additionally wait for the simulated disks (requests to
        distinct stripes overlap; conflicting overlapping requests
        serialize).  On the fast path a repeated read of an unchanged
        region validates against the owner's generation counter and
        hits the reader-side cache -- no payload moves.
        """
        if rows is not None or cols is not None:
            w = w.shrink(rows=rows, cols=cols)
        store = self._owner_store(w.owner)
        det = self.race_detector
        if det is not None:
            det.on_window_access(w, False)
        nbytes = int(w.nbytes)
        self.engine.charge(window_transfer_cost(nbytes))
        yield from self._file_io_wait(w, write=False)
        hit = False
        cache = None
        if self.window_path == "reference":
            data = self._window_read_reference(
                store, w, self._requester_id(ctx, store))
            moved = nbytes
        else:
            cache = self._requester_cache(ctx)
            entry = cache.lookup(w) if cache is not None else None
            txn = WindowTxn(op="read", window=w,
                            cached_generation=None if entry is None
                            else entry[0])
            reply = self._window_txn(store, txn,
                                     self._requester_id(ctx, store))
            if reply.status == "valid":
                data = entry[1].copy()
                moved, hit = 0, True
            else:
                data = reply.data
                moved = nbytes
                if cache is not None and reply.cacheable:
                    cache.store(w, reply.generation, data.copy())
        self.stats.window_bytes_read += nbytes
        counts = self.counts
        counts.window_ops["read"].value += 1
        counts.window_bytes_moved["read"].value += moved
        if cache is not None:
            (counts.window_cache_hits if hit
             else counts.window_cache_misses)[()].value += 1
        m = self.metrics
        if m.enabled:
            m.histogram("window_transfer_bytes", op="read").observe(nbytes)
        yield co_preempt(0)
        return data

    def window_write_gen(self, ctx: TaskContext, w: Window,
                         data, *, rows=None, cols=None,
                         if_unchanged: bool = False):
        """Remote write through a window into the owner's array (a
        KernelOp generator).

        ``rows=`` / ``cols=`` shrink the window for this one access.
        ``if_unchanged=True`` makes the write conditional: it is refused
        with :class:`WindowConflict` if the region was written through
        the data plane after this task last read it (requires the
        cached fast path, which tracks observed generations).
        """
        if rows is not None or cols is not None:
            w = w.shrink(rows=rows, cols=cols)
        store = self._owner_store(w.owner)
        det = self.race_detector
        if det is not None:
            det.on_window_access(w, True)
        nbytes = int(w.nbytes)
        self.engine.charge(window_transfer_cost(nbytes))
        yield from self._file_io_wait(w, write=True)
        path = self.window_path
        cache = self._requester_cache(ctx) if path == "fast" else None
        require = None
        if if_unchanged:
            if cache is None:
                raise WindowConflict(
                    w, "conditional writes need the cached (fast) window "
                       "path and a task context")
            require = cache.observed_generation(w)
            if require is None:
                raise WindowConflict(
                    w, "no cached observation to validate against "
                       "(window_read the region first)")
        if path == "reference":
            self._window_write_reference(
                store, w, data, self._requester_id(ctx, store))
        else:
            payload = as_grid(data, w.dtype)
            txn = WindowTxn(op="write", window=w, data=payload,
                            require_unchanged_since=require)
            reply = self._window_txn(store, txn,
                                     self._requester_id(ctx, store))
            if reply.status == "conflict":
                self.counts.window_conflicts[()].value += 1
                yield co_preempt(0)
                raise WindowConflict(w, reply.detail)
        if cache is not None:
            cache.invalidate_overlapping(w)
        self.stats.window_bytes_written += nbytes
        counts = self.counts
        counts.window_ops["write"].value += 1
        counts.window_bytes_moved["write"].value += nbytes
        m = self.metrics
        if m.enabled:
            m.histogram("window_transfer_bytes", op="write").observe(nbytes)
        yield co_preempt(0)

    def configure_file_disks(self, n_disks: int,
                             stripe_unit: Optional[int] = None) -> None:
        """Give the file controller a striped disk array (the PISCES 3
        parallel-I/O direction; call before the run starts)."""
        from .fileio import DEFAULT_STRIPE_UNIT, DiskArray
        if self.file_controller is None:
            raise WindowError("no file controller in this configuration")
        self.file_controller.disks = DiskArray(
            n_disks, stripe_unit or DEFAULT_STRIPE_UNIT)
        self.file_controller.disks.metrics = self.metrics

    def file_window_gen(self, ctx: TaskContext, name: str, *,
                        region=None, rows=None, cols=None):
        """Window request on a file-store array (a KernelOp generator;
        value: the window)."""
        fc = self.file_controller
        if fc is None:
            raise WindowError("no file controller in this configuration")
        self.engine.charge(COST_SEND)
        yield co_preempt(0)
        return fc.window_for(name, region=region, rows=rows, cols=cols)

    def export_file(self, name: str, array,
                    cacheable: bool = True) -> None:
        """Put an array into the simulated file system (pre-run setup):
        a Grid, or any f8/i8 array-like (a numpy array is served in
        place, see :func:`repro.core.grid.as_grid`)."""
        if self.file_controller is None:
            raise WindowError("no file controller in this configuration")
        self.file_controller.export_file(name, array, cacheable=cacheable)

    # ----------------------------------------------------------------- run --

    def run(self, tasktype_name: str, *args: Any,
            on: Placement = None, shutdown: bool = True) -> RunResult:
        """Initiate a top-level task as the user and run to completion.

        By default the remaining daemon controllers are reaped once the
        run finishes (their threads would otherwise outlive the VM); all
        measured state (clocks, heap, stats, traces) survives shutdown.
        Pass ``shutdown=False`` to keep the VM live for monitor use, and
        call :meth:`shutdown` yourself.
        """
        self.boot()
        placement = on if on is not None else min(self.clusters)
        self._run_request = (tasktype_name, tuple(args), placement)
        req = self.request_initiate(tasktype_name, args,
                                    parent=USER_TERMINAL_ID,
                                    placement=placement)
        try:
            self.engine.run()
        finally:
            if shutdown:
                self.shutdown()
        tid = self.initiations.get(req)
        if tid is None:
            raise RuntimeLibraryError(
                f"top-level task {tasktype_name!r} was never started "
                f"(held for a slot that never freed?)")
        task = self.tasks[tid]
        return RunResult(value=task.result, task=tid,
                         elapsed=self.machine.elapsed(),
                         console=self.kernel.console_text(),
                         stats=self.stats, vm=self)

    def run_to_idle(self) -> None:
        """Run until every non-daemon task has finished (monitor use)."""
        self.boot()
        self.engine.run()

    # ------------------------------------------------------------- cleanup --

    def shutdown(self) -> None:
        """End the run: reap every process, then drop every edge that
        points back at this VM, so a finished VM is freed by reference
        counting as soon as its last holder lets go (see "Run memory
        lifetime" in docs/architecture.md).  What post-run reads use --
        tracer, metrics, stats, clocks, heap, tasks, processes -- stays;
        the VM is inspect-only afterwards.  Idempotent."""
        self.engine.shutdown()
        for cluster in self.clusters.values():
            for slot in cluster.slots:
                slot.release()
        for owner in (*self.tasks.values(), *self.controllers.values(),
                      self.faults, self.checkpointer, self.race_detector):
            if owner is not None:
                owner.vm = None

    def __enter__(self) -> "PiscesVM":
        self.boot()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------ storage ----

    def storage_report(self) -> Dict[str, Any]:
        """The section-13 measurements, as a dict (see benchmarks)."""
        shared = self.machine.shared
        by_tag = shared.live_bytes_by_tag()
        spec = self.machine.spec
        local_fracs = {}
        for pe_num in self.config.used_pes():
            pe = self.machine.pe(pe_num)
            sys_bytes = (pe.local.resident_bytes(CAT_PISCES_CODE)
                         + pe.local.resident_bytes(CAT_PISCES_DATA))
            local_fracs[pe_num] = sys_bytes / spec.local_memory_bytes
        return {
            "local_system_fraction": local_fracs,
            "shared_table_bytes": by_tag.get("system_table", 0),
            "shared_table_fraction":
                by_tag.get("system_table", 0) / spec.shared_memory_bytes,
            "message_bytes_live": by_tag.get("message", 0),
            "shared_common_bytes": by_tag.get("shared_common", 0),
            "heap_high_water": shared.stats.high_water,
            "heap_live_total": shared.stats.live_total,
        }
