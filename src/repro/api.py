"""One-stop facade over the PISCES 2 reproduction.

Programs, examples and notebooks used to import from five deep modules
(``repro.core.vm``, ``repro.config.configuration``, ``repro.obs``,
``repro.faults``, ``repro.flex.presets``) to do four things: build a
VM, run an application task, inject faults, and export the run record.
This module is the stable surface for exactly those things::

    from repro import api

    reg = TaskRegistry()
    ...
    result = api.run_app("MAIN", registry=reg, n_clusters=2, slots=4)
    api.export_run(result.vm, "out/")

Everything here is a thin composition of public pieces -- the deep
modules remain importable for anything not covered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

from . import lazy_exports
from .config.configuration import Configuration, simple_configuration
from .core.task import TaskRegistry
from .core.taskid import Placement
from .core.tracing import ALL_TRACE_EVENTS
from .core.vm import PiscesVM, RunResult
from .core.windows import Window
from .errors import ConfigurationError, WindowError
from .flex.machine import FlexMachine
from .results import RunRecord

if TYPE_CHECKING:  # pragma: no cover
    from .correctness.detector import RaceDetector, RaceReport
    from .correctness.recorder import Schedule
    from .obs.profile import CausalProfiler, CriticalPath

__all__ = [
    "ProfiledRun",
    "RaceCheck",
    "RecordedRun",
    "RestoredRun",
    "RunRecord",
    "RunResult",
    "check_races",
    "checkpoint_vm",
    "export_run",
    "find_latest_checkpoint",
    "make_vm",
    "open_window",
    "plan_scope",
    "profile_run",
    "record_run",
    "replay_run",
    "restore_vm",
    "run_app",
]

#: Re-exports from the checkpoint, export and fault layers, imported on
#: first access (PEP 562), so ``from repro import api`` loads none of
#: them.  The race detector, the profiler and the schedule recorder load
#: in the function that first needs them.
_LAZY = {
    **dict.fromkeys(("RestoredRun", "checkpoint_vm", "restore_vm"),
                    "checkpoint.restore"),
    "find_latest_checkpoint": "checkpoint.format",
    "export_run": "obs.export",
    "plan_scope": "faults",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)


def make_vm(n_clusters: int = 2, slots: int = 4, *,
            force_pes_per_cluster: int = 0,
            config: Optional[Configuration] = None,
            registry: Optional[TaskRegistry] = None,
            machine: Optional[FlexMachine] = None,
            metrics: bool = False,
            time_limit: Optional[int] = None,
            trace_events: Tuple[str, ...] = (),
            fault_plan: Optional[Any] = None,
            detect_races: Optional[Any] = None,
            schedule: Union[Schedule, str, Path, None] = None,
            name: str = "api") -> PiscesVM:
    """Build a booted VM without touching the configuration layer.

    A ready-made ``config`` wins over the shape arguments; otherwise a
    :func:`simple_configuration` of ``n_clusters`` x ``slots`` (plus
    ``force_pes_per_cluster`` secondary PEs each) is built and the
    keyword toggles (metrics, time limit, tracing) applied to it.
    ``detect_races`` / ``schedule`` reach the correctness subsystem
    (:mod:`repro.correctness`); ``schedule`` is the run's decision
    stream: an empty :class:`Schedule` records, a parsed one (or a
    ``.psched`` path) replays.
    """
    if config is None:
        config = replace(
            simple_configuration(n_clusters=n_clusters, slots=slots,
                                 force_pes_per_cluster=force_pes_per_cluster,
                                 name=name),
            metrics_enabled=metrics, time_limit=time_limit,
            trace_events=tuple(trace_events))
    return PiscesVM(config, registry=registry, machine=machine,
                    fault_plan=fault_plan, detect_races=detect_races,
                    schedule=schedule)


def run_app(tasktype: str, *args: Any,
            registry: Optional[TaskRegistry] = None,
            vm: Optional[PiscesVM] = None,
            on: Placement = None,
            shutdown: bool = True,
            **vm_kwargs: Any) -> RunResult:
    """Run one application task to completion and return its result.

    Builds a VM via :func:`make_vm` (forwarding ``vm_kwargs``) unless an
    existing ``vm`` is supplied.
    """
    if vm is None:
        vm = make_vm(registry=registry, **vm_kwargs)
    elif registry is not None or vm_kwargs:
        raise ConfigurationError(
            "run_app: pass either vm=... or VM-construction keywords")
    return vm.run(tasktype, *args, on=on, shutdown=shutdown)


@dataclass
class RecordedRun(RunRecord):
    """A run plus everything needed to replay and compare it."""

    result: RunResult
    #: In-memory schedule (replayable directly via ``replay_run``).
    schedule: Schedule
    #: Where the ``.psched`` artifact was written (None: memory only).
    psched_path: Optional[Path]
    #: The textual trace stream (bit-identity evidence for replays).
    trace_lines: List[str]


@dataclass
class RaceCheck(RunRecord):
    """Outcome of :func:`check_races`."""

    result: RunResult
    reports: List[RaceReport]      # races (severity "race")
    warnings: List[RaceReport]     # window read/write warnings
    detector: RaceDetector

    @property
    def clean(self) -> bool:
        return not self.reports

    def report_text(self) -> str:
        return self.detector.report_text()


def _trace_lines(vm: PiscesVM) -> List[str]:
    return [e.line() for e in vm.tracer.events]


def record_run(tasktype: str, *args: Any,
               path: Union[str, Path, None] = None,
               registry: Optional[TaskRegistry] = None,
               on: Placement = None,
               trace: bool = True,
               **vm_kwargs: Any) -> RecordedRun:
    """Run an application while recording its schedule (tentpole API).

    Captures the dispatcher's complete decision stream into a
    ``.psched`` artifact (written to ``path`` when given, else kept in
    memory) so :func:`replay_run` can re-execute the run bit-identically.
    ``trace=True`` (default) also enables the full trace stream in
    strict-overflow mode -- the stream is replay-comparison evidence, so
    silent truncation must fail loudly.
    """
    from .correctness.recorder import Schedule

    schedule = Schedule(path=path, meta={"app": tasktype})
    if trace:
        vm_kwargs.setdefault("trace_events", ALL_TRACE_EVENTS)
    vm = make_vm(registry=registry, schedule=schedule, **vm_kwargs)
    if trace:
        vm.tracer.strict_overflow = True
    result = vm.run(tasktype, *args, on=on)
    # The recording is complete: from here on it replays strictly.
    schedule.live_tail = False
    return RecordedRun(result=result, schedule=schedule,
                       psched_path=None if path is None else Path(path),
                       trace_lines=_trace_lines(vm))


def replay_run(tasktype: str, *args: Any,
               schedule: Union[RecordedRun, Schedule, str, Path],
               registry: Optional[TaskRegistry] = None,
               on: Placement = None,
               trace: bool = True,
               **vm_kwargs: Any) -> RunResult:
    """Re-execute a recorded run under the replay dispatcher.

    ``schedule`` is a :class:`RecordedRun`, an in-memory
    :class:`Schedule`, or a ``.psched`` path.  Every scheduling decision
    is verified against the recording
    (:class:`~repro.errors.ReplayDivergence` on the first mismatch) and
    the whole recording must be consumed; the replayed run is
    bit-identical -- same elapsed ticks, same trace stream, same
    RunStats.
    """
    if isinstance(schedule, RecordedRun):
        schedule = schedule.schedule
    if trace:
        vm_kwargs.setdefault("trace_events", ALL_TRACE_EVENTS)
    vm = make_vm(registry=registry, schedule=schedule, **vm_kwargs)
    if trace:
        vm.tracer.strict_overflow = True
    result = vm.run(tasktype, *args, on=on)
    vm.sched_hook.check_complete()
    return result


def check_races(tasktype: str, *args: Any,
                registry: Optional[TaskRegistry] = None,
                on: Placement = None,
                mode: str = "record",
                **vm_kwargs: Any) -> RaceCheck:
    """Run an application under the happens-before race detector.

    ``mode``: ``"record"`` collects reports (default), ``"warn"`` also
    emits :class:`~repro.errors.RaceWarning`, ``"raise"`` raises
    :class:`~repro.errors.RaceError` at the first racing access.
    """
    vm = make_vm(registry=registry, detect_races=mode, **vm_kwargs)
    result = vm.run(tasktype, *args, on=on)
    det = vm.race_detector
    return RaceCheck(result=result, reports=list(det.reports),
                     warnings=list(det.warnings), detector=det)


@dataclass
class ProfiledRun(RunRecord):
    """Outcome of :func:`profile_run`: the run, its causal profile and
    the extracted critical path."""

    result: RunResult
    profiler: CausalProfiler
    critical_path: CriticalPath

    def report(self) -> str:
        """The full text panel (wait states, utilization, path)."""
        from .obs.profile.profiler import profile_report
        return profile_report(self.profiler, elapsed=self.elapsed)

    def export(self, directory: Union[str, Path],
               prefix: str = "profile") -> dict:
        """Write the run record plus the flamegraph/Chrome/critical-path
        bundle (the bundle re-uses this run's extracted path rather than
        re-deriving it without the elapsed total)."""
        from .obs.profile.export import write_profile
        paths = super().export(directory, prefix=prefix)
        bundle = write_profile(self.profiler, directory,
                               prefix=f"{prefix}.profile",
                               elapsed=self.elapsed,
                               critical_path=self.critical_path)
        paths.update({f"profile_{k}": p for k, p in bundle.items()})
        return paths


def profile_run(tasktype: str, *args: Any,
                registry: Optional[TaskRegistry] = None,
                on: Placement = None,
                **vm_kwargs: Any) -> ProfiledRun:
    """Run one application under the causal profiler (tentpole API).

    Enables the profiler (and the metrics registry, so the wait-state
    rollups land there) before the run, then extracts the critical
    path.  Profiling charges zero virtual time: elapsed ticks and trace
    streams are bit-identical to an unprofiled run.
    """
    from .obs.profile.critical_path import extract_critical_path

    vm_kwargs.setdefault("metrics", True)
    vm = make_vm(registry=registry, **vm_kwargs)
    prof = vm.enable_profiling()
    result = vm.run(tasktype, *args, on=on)
    prof.publish_metrics(vm.metrics, elapsed=result.elapsed)
    cp = extract_critical_path(prof, elapsed=result.elapsed)
    return ProfiledRun(result=result, profiler=prof, critical_path=cp)


def open_window(vm: PiscesVM, name: str, *, region=None,
                rows=None, cols=None) -> Window:
    """A window on a file-store array, from outside any task (monitor /
    analysis use; inside a task use ``ctx.file_window``)."""
    fc = vm.file_controller
    if fc is None:
        raise WindowError("no file controller in this configuration")
    return fc.window_for(name, region=region, rows=rows, cols=cols)
