"""Run metrics: utilization, speedup, message and lock statistics.

The tools a PISCES user would apply to trace output to "performance
tune" a program by editing its configuration mapping (section 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.vm import PiscesVM, RunResult, RunStats
from ..util.tables import format_table


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


@dataclass
class ScalingPoint:
    """One point of a scaling study: configuration size vs elapsed time."""

    label: str
    parallelism: int
    elapsed: int


def speedup_table(points: Sequence[ScalingPoint]) -> str:
    """Speedup/efficiency table relative to the first (baseline) point."""
    if not points:
        return "(no scaling points)"
    base = points[0].elapsed
    rows = []
    for p in points:
        sp = base / p.elapsed if p.elapsed else float("inf")
        eff = sp / p.parallelism if p.parallelism else 0.0
        rows.append([p.label, p.parallelism, p.elapsed,
                     f"{sp:.2f}x", f"{100 * eff:.0f}%"])
    return format_table(["config", "parallelism", "elapsed", "speedup",
                         "efficiency"], rows, title="SCALING")


def lock_contention(vm: PiscesVM) -> List[Tuple[str, int, int]]:
    """(lock name, acquisitions, contended) over all live+dead tasks."""
    out = []
    for task in vm.tasks.values():
        for name, lk in task.shared_state.locks.items():
            out.append((f"{task.tid}/{name}", lk.acquisitions,
                        lk.contended_acquisitions))
    return out


def traffic_matrix(vm: PiscesVM) -> Dict[Tuple[str, str], int]:
    """Message counts between *tasktypes*.

    Preferred source: the observability registry's ``msg_traffic``
    counters (labelled src/dst/mtype at send time, so names are exact
    even for tasks long terminated).  Fallback: MSG_SEND trace events,
    which requires MSG_SEND tracing to have been enabled for the run;
    there the receiver is resolved through the VM's task table, and
    controllers and the user terminal appear under their kind names.
    """
    from ..core.tracing import TraceEventType

    if vm.msg_traffic:
        out: Dict[Tuple[str, str], int] = {}
        for (src, dst, _), c in vm.msg_traffic.items():
            out[src, dst] = out.get((src, dst), 0) + c.value
        return out

    name_of = vm._metric_name_of
    out: Dict[Tuple[str, str], int] = {}
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


def load_balance(executed: Dict[int, int]) -> float:
    """Imbalance factor of a per-member work map: max/mean (1.0 = perfect).

    Used to compare PRESCHED and SELFSCHED loop scheduling.
    """
    if not executed:
        return 1.0
    vals = list(executed.values())
    mean = sum(vals) / len(vals)
    return max(vals) / mean if mean else 1.0
