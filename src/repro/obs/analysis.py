"""Off-line analysis of a finished run (section 12's "timing analyses").

The tools a PISCES user applies to what a run recorded, to
"performance tune" the program by editing its configuration mapping
(sections 4 and 9): run metrics, the message traffic by tasktype, the
section-13 storage measurement, configuration sweeps, and
:func:`run_report`, which joins them with the span and profile views.

Section 13's quantitative claims, which :func:`measure` checks:

* "the PISCES 2 system uses less than 2.5% of each PE's local memory
  (for system code and data)";
* "and less than 0.3% of shared memory (for system tables)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config.configuration import ClusterSpec, Configuration
from ..core.task import TaskRegistry
from ..core.tracing import TraceEventType
from ..core.vm import PiscesVM, RunStats
from ..flex.machine import FlexMachine
from ..util.tables import format_table
from .profile import pe_gantt, profile_report
from .spans import derive_spans, task_gantt

# ------------------------------------------------------------ metrics --


@dataclass
class RunMetrics:
    """Summary measurements of one completed run; the event counts are
    read from the run's :class:`~repro.core.vm.RunStats`."""

    elapsed: int
    pe_busy: Dict[int, int]
    pe_utilization: Dict[int, float]
    stats: RunStats
    heap_high_water: int
    #: From the send->accept latency histogram (None when metrics were
    #: off for the run).
    mean_send_accept_latency: Optional[float] = None

    @property
    def mean_utilization(self) -> float:
        if not self.pe_utilization:
            return 0.0
        return sum(self.pe_utilization.values()) / len(self.pe_utilization)

    def table(self) -> str:
        st = self.stats
        rows = [
            ["elapsed (ticks)", self.elapsed],
            ["PEs used", len(self.pe_busy)],
            ["mean PE utilization", f"{100 * self.mean_utilization:.1f}%"],
            ["messages sent", st.messages_sent],
            ["message bytes", st.message_bytes_sent],
            ["accepts / timeouts", f"{st.accepts} / {st.accept_timeouts}"],
            ["tasks started", st.tasks_started],
            ["force splits", st.forcesplits],
            ["window bytes requested",
             st.window_bytes_read + st.window_bytes_written],
            ["window bytes moved (data plane)", st.window_bytes_moved],
            ["window cache hits / misses",
             f"{st.window_cache_hits} / {st.window_cache_misses}"],
            ["heap high-water (bytes)", self.heap_high_water],
            ["messages accepted", st.messages_accepted],
        ]
        if self.mean_send_accept_latency is not None:
            rows.append(["mean send->accept latency",
                         f"{self.mean_send_accept_latency:.1f} ticks"])
        return format_table(["metric", "value"], rows, title="RUN METRICS")


def collect_metrics(vm: PiscesVM) -> RunMetrics:
    """Measure a VM after (or during) a run."""
    elapsed = max(1, vm.machine.elapsed())
    used = vm.config.used_pes()
    busy = {pe: vm.machine.clocks[pe].busy_ticks for pe in used}
    latency: Optional[float] = None
    lat = vm.metrics.histogram_merged("send_accept_latency_ticks")
    if lat is not None and lat.count:
        latency = lat.mean
    return RunMetrics(
        elapsed=vm.machine.elapsed(),
        pe_busy=busy,
        pe_utilization={pe: b / elapsed for pe, b in busy.items()},
        stats=vm.stats,
        heap_high_water=vm.machine.shared.stats.high_water,
        mean_send_accept_latency=latency,
    )


def traffic_matrix(vm: PiscesVM) -> Dict[Tuple[str, str], int]:
    """Message counts between *tasktypes*.

    Preferred source: the observability registry's ``msg_traffic``
    counters (labelled src/dst/mtype at send time, so names are exact
    even for tasks long terminated).  Fallback: MSG_SEND trace events,
    which requires MSG_SEND tracing to have been enabled for the run;
    there the receiver is resolved through the VM's task table, and
    controllers and the user terminal appear under their kind names.
    """
    out: Dict[Tuple[str, str], int] = {}
    if vm.msg_traffic:
        for (src, dst, _), c in vm.msg_traffic.items():
            out[src, dst] = out.get((src, dst), 0) + c.value
        return out
    name_of = vm._metric_name_of
    for e in vm.tracer.of_type(TraceEventType.MSG_SEND):
        if e.other is None:
            continue
        key = (name_of(e.task), name_of(e.other))
        out[key] = out.get(key, 0) + 1
    return out


def traffic_table(vm: PiscesVM) -> str:
    """The traffic matrix as a table, heaviest flows first."""
    m = traffic_matrix(vm)
    if not m:
        return "(no MSG_SEND events traced)"
    rows = [[src, dst, n]
            for (src, dst), n in sorted(m.items(),
                                        key=lambda kv: -kv[1])]
    return format_table(["from", "to", "messages"], rows,
                        title="MESSAGE TRAFFIC (by tasktype)")

# ------------------------------------------------------------ storage --


#: The paper's stated bounds.
PAPER_LOCAL_BOUND = 0.025
PAPER_SHARED_TABLE_BOUND = 0.003


@dataclass
class StorageMeasurement:
    """One configuration's storage-overhead measurements."""

    config_name: str
    n_clusters: int
    slots_per_cluster: Tuple[int, ...]
    local_fraction_max: float       # worst PE: pisces code+data / local
    shared_table_bytes: int
    shared_table_fraction: float
    message_bytes_live: int
    heap_high_water: int

    @property
    def meets_local_bound(self) -> bool:
        return self.local_fraction_max < PAPER_LOCAL_BOUND

    @property
    def meets_shared_bound(self) -> bool:
        return self.shared_table_fraction < PAPER_SHARED_TABLE_BOUND


def measure(vm: PiscesVM) -> StorageMeasurement:
    """Take a VM's section-13 storage measurements."""
    rep = vm.storage_report()
    local = rep["local_system_fraction"]
    return StorageMeasurement(
        config_name=vm.config.name,
        n_clusters=len(vm.config.clusters),
        slots_per_cluster=tuple(c.slots for c in sorted(
            vm.config.clusters, key=lambda c: c.number)),
        local_fraction_max=max(local.values()) if local else 0.0,
        shared_table_bytes=rep["shared_table_bytes"],
        shared_table_fraction=rep["shared_table_fraction"],
        message_bytes_live=rep["message_bytes_live"],
        heap_high_water=rep["heap_high_water"],
    )


def storage_table(ms: List[StorageMeasurement]) -> str:
    """The measurements against the paper's bounds, one row each."""
    rows = []
    for m in ms:
        rows.append([
            m.config_name,
            m.n_clusters,
            "/".join(map(str, m.slots_per_cluster)),
            f"{100 * m.local_fraction_max:.2f}%",
            f"< {100 * PAPER_LOCAL_BOUND:.1f}%"
            + (" OK" if m.meets_local_bound else " EXCEEDED"),
            m.shared_table_bytes,
            f"{100 * m.shared_table_fraction:.3f}%",
            f"< {100 * PAPER_SHARED_TABLE_BOUND:.1f}%"
            + (" OK" if m.meets_shared_bound else " EXCEEDED"),
        ])
    return format_table(
        ["config", "clusters", "slots", "local sys", "paper bound",
         "table bytes", "shared tables", "paper bound"],
        rows, title="SECTION 13 STORAGE OVERHEAD (measured)")

# ------------------------------------------------------------- tuning --


#: A factory returning a fresh machine per trial (clocks are per-run).
MachineFactory = Callable[[], FlexMachine]


@dataclass
class TuningTrial:
    label: str
    configuration: Configuration
    elapsed: int
    value: Any


@dataclass
class TuningResult:
    trials: List[TuningTrial]

    @property
    def best(self) -> TuningTrial:
        return min(self.trials, key=lambda t: t.elapsed)

    def table(self) -> str:
        base = self.trials[0].elapsed
        rows = []
        for t in self.trials:
            mark = " <-- best" if t is self.best else ""
            rows.append([t.label, t.elapsed,
                         f"{base / t.elapsed:.2f}x{mark}"])
        return format_table(["mapping", "elapsed (ticks)", "vs first"],
                            rows, title="CONFIGURATION TUNING")


def sweep(tasktype_name: str, registry: TaskRegistry,
          configurations: Sequence[Tuple[str, Configuration]],
          machine_factory: MachineFactory, *args: Any) -> TuningResult:
    """Run one tasktype under each (label, configuration); returns the
    comparison.  Each trial gets a fresh machine (fresh clocks)."""
    trials = []
    for label, cfg in configurations:
        vm = PiscesVM(cfg, registry=registry, machine=machine_factory())
        r = vm.run(tasktype_name, *args)
        trials.append(TuningTrial(label=label, configuration=cfg,
                                  elapsed=r.elapsed, value=r.value))
    return TuningResult(trials=trials)


def force_size_sweep(tasktype_name: str, registry: TaskRegistry,
                     machine_factory: MachineFactory, *args: Any,
                     sizes: Sequence[int] = (1, 2, 4, 8),
                     primary_pe: int = 3, slots: int = 2,
                     first_secondary_pe: int = 4) -> TuningResult:
    """The most common tuning question: how many force PEs?

    Builds single-cluster configurations whose force sizes are
    ``sizes`` and sweeps them.
    """
    configs = []
    for size in sizes:
        sec = tuple(range(first_secondary_pe, first_secondary_pe + size - 1))
        cfg = Configuration(
            clusters=(ClusterSpec(1, primary_pe, slots,
                                  secondary_pes=sec),),
            name=f"force-{size}")
        configs.append((f"force of {size}", cfg))
    return sweep(tasktype_name, registry, configs, machine_factory, *args)

# ------------------------------------------------------------- report --


def run_report(vm: PiscesVM, gantt_width: int = 64,
               include_gantt: bool = True) -> str:
    """A post-run report a user would read after a traced execution.

    Includes whatever the run recorded: metrics and storage always; a
    by-tasktype traffic matrix when MSG_SEND tracing was on; a per-task
    gantt when any tracing was on; a per-PE occupancy chart and the
    causal profile when the run was profiled.
    """
    parts = [collect_metrics(vm).table()]
    parts.append("")
    parts.append(storage_table([measure(vm)]))
    traffic = traffic_table(vm)
    if "no MSG_SEND" not in traffic:
        parts.append("")
        parts.append(traffic)
    events = vm.tracer.events
    if include_gantt and events:
        parts.append("")
        parts.append(task_gantt(derive_spans(events),
                                horizon=max(e.ticks for e in events),
                                width=gantt_width))
    prof = vm.profiler
    profiled = prof is not None and bool(prof.slices())
    if profiled:
        parts.append("")
        parts.append(pe_gantt(prof, width=gantt_width))
    if vm.metrics.families():
        parts.append("")
        parts.append(vm.metrics.snapshot_text())
    if vm.race_detector is not None:
        parts.append("")
        parts.append(vm.race_detector.report_text())
    if profiled:
        parts.append("")
        parts.append(profile_report(prof))
    return "\n".join(parts)
