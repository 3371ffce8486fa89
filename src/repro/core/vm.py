"""The PISCES 2 virtual machine (sections 4-6, 11).

A :class:`PiscesVM` instance is one booted run: a configured set of
clusters on a FLEX machine, controllers running, system tables resident
in shared memory, ready to initiate user tasks.  The VM owns:

* destination resolution and message delivery (SEND / broadcast):
  :class:`~repro.core.delivery.MessageDelivery`;
* initiate-request routing (ON <cluster> INITIATE ...);
* the window read/write service:
  :class:`~repro.core.window_service.WindowService`;
* task life-cycle (start in slot, terminate, kill) and supervision:
  :class:`~repro.core.lifecycle.TaskLifecycle`;
* the storage accounting that the section-13 benchmarks measure.

``PiscesVM`` is one class; the three concerns named above are its base
classes, one module each.  A process without a bytecode cache compiles
every module it imports, and compiling one large module raises a
service's peak RSS, so the VM's source is split by concern.
"""

from __future__ import annotations

import itertools
import os
import random
from types import SimpleNamespace
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import NoSuchCluster, RuntimeLibraryError
from ..flex.machine import FlexMachine
from ..flex.presets import nasa_langley_flex32
from ..mmos.kernel import MMOSKernel
from ..obs.metrics import MetricsRegistry, SliceMeter
from ..results import RunRecord
from ..mmos.loader import (
    CAT_MMOS_KERNEL,
    CAT_PISCES_CODE,
    CAT_PISCES_DATA,
    CAT_USER_CODE,
    Loadfile,
)
from ..config.configuration import Configuration
from .accept import RetryPolicy
from .cluster import ClusterRuntime
from .controllers import (
    Controller,
    FileController,
    MSG_INITIATE,
    TaskController,
    UserController,
)
from .delivery import MessageDelivery
from .lifecycle import TaskLifecycle
from .sizes import (
    COST_INITIATE_REQUEST,
    MMOS_KERNEL_BYTES,
    PISCES_SYSTEM_CODE_BYTES,
    PISCES_SYSTEM_DATA_BYTES,
    slot_table_bytes,
)
from .task import GLOBAL_REGISTRY, Task, TaskRegistry
from .taskid import (
    ANY,
    Cluster,
    OTHER,
    Placement,
    SAME,
    TaskId,
    USER_TERMINAL_ID,
)
from .supervision import Supervision
from .tracing import TraceEventType, Tracer
from .window_service import WindowService


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


class PiscesVM(TaskLifecycle, MessageDelivery, WindowService):
    """One booted PISCES 2 virtual machine."""

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
        #: Happens-before race detector, or None (off), as the explicit
        #: argument asks: a True value means "record" mode; a string
        #: selects record/warn/raise.
        self.race_detector: Optional[Any] = None
        if detect_races:
            self.enable_race_detection(
                mode=detect_races if isinstance(detect_races, str)
                else "record")
        #: Causal profiler (see :mod:`repro.obs.profile`), or None
        #: (off): ``enable_profiling()`` turns it on (api.profile_run
        #: does).
        self.profiler: Optional[Any] = None
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
            RetryPolicy(config.accept_retries, config.accept_backoff)
            if config.accept_retries else None)
        #: The seeded run RNG: the only source of randomness consumed at
        #: virtual-time-ordered points (RESTART backoff jitter).  Because every
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
