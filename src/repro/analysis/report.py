"""Combined run reports: metrics, storage, traffic, timelines."""

from __future__ import annotations

from ..core.vm import PiscesVM
from ..obs.profile import pe_gantt, profile_report
from ..obs.spans import derive_spans, task_gantt
from .metrics import collect_metrics, traffic_table
from .storage import measure, storage_table


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
