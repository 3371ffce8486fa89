"""Display renderers for the execution environment (section 11).

These produce the text the monitor's display options show: running
tasks, message queues, PE loading, the full system-state dump -- and
the Figure 1 virtual-machine-organization diagram, rendered from the
*live* VM so the figure benchmark regenerates the paper's figure from
an actual configured machine.
"""

from __future__ import annotations

from typing import List

from ..core.vm import PiscesVM
from ..core.taskid import TaskId
from ..util.tables import format_table


def render_running_tasks(vm: PiscesVM) -> str:
    """DISPLAY RUNNING TASKS."""
    rows = []
    for num, cr in sorted(vm.clusters.items()):
        for slot in cr.slots:
            t = slot.task
            if t is not None:
                rows.append([str(t.tid), t.ttype.name, str(t.parent),
                             cr.primary_pe, len(t.inq),
                             "force" if t.force else "task"])
    if not rows:
        return "no user tasks running"
    return format_table(
        ["taskid", "type", "parent", "pe", "queued", "mode"], rows,
        title="RUNNING TASKS")


def render_message_queue(vm: PiscesVM, tid: TaskId) -> str:
    """DISPLAY MESSAGE QUEUE for one task."""
    task = vm.find_task(tid)
    return task.inq.describe()


def render_pe_loading(vm: PiscesVM) -> str:
    """DISPLAY PE LOADING: per-PE utilization and occupancy."""
    rows = []
    elapsed = max(1, vm.machine.elapsed())
    for pe_num in vm.config.used_pes():
        clock = vm.machine.clocks[pe_num]
        roles = []
        live = 0
        for num, cr in sorted(vm.clusters.items()):
            if cr.primary_pe == pe_num:
                roles.append(f"primary c{num}")
                live += len(cr.running_tasks())
            if pe_num in cr.secondary_pes:
                roles.append(f"force c{num}")
        rows.append([pe_num, " ".join(roles), live, clock.busy_ticks,
                     f"{100 * clock.busy_ticks / elapsed:.1f}%"])
    return format_table(["pe", "role", "tasks", "busy_ticks", "util"],
                        rows, title="PE LOADING")


def render_system_dump(vm: PiscesVM) -> str:
    """DUMP SYSTEM STATE: clusters, slots, queues, memory, engine."""
    parts: List[str] = [
        "PISCES 2 SYSTEM STATE DUMP",
        f"virtual time: {vm.machine.elapsed()} ticks "
        f"({vm.engine.dispatcher} dispatcher)"]
    for num, cr in sorted(vm.clusters.items()):
        parts.append(cr.describe())
        for t in cr.running_tasks():
            parts.append("  " + t.describe())
    for tid, ctrl in sorted(vm.controllers.items()):
        parts.append(f"controller {ctrl.kind} {tid}: inq={len(ctrl.inq)}")
    if vm.file_controller is not None:
        parts.append(vm.file_controller.disks.describe())
    parts.append(vm.machine.memory_report())
    parts.append(vm.tracer.describe())
    parts.append(vm.metrics.describe())
    parts.append(vm.engine.state_dump())
    return "\n".join(parts)


def render_metrics(vm: PiscesVM) -> str:
    """DISPLAY METRICS: the live registry snapshot, plus headline
    derived figures (queue depths, latency, lock holds) when present."""
    reg = vm.metrics
    parts: List[str] = [reg.describe()]
    if not reg.enabled:
        parts.append("(enable with monitor.change_metric_options"
                     "(enable=True) or config metrics_enabled)")
        return "\n".join(parts)
    parts.append(reg.snapshot_text())
    headline = []
    lat = reg.histogram_merged("send_accept_latency_ticks")
    if lat is not None and lat.count:
        headline.append(f"send->accept latency: mean {lat.mean:.1f} ticks, "
                        f"p90 <= {lat.quantile(0.9):.0f}, max {lat.max}")
    depth = reg.histogram_merged("inqueue_depth")
    if depth is not None and depth.count:
        headline.append(f"in-queue depth at enqueue: mean {depth.mean:.1f}, "
                        f"max {depth.max}")
    hold = reg.histogram_merged("lock_hold_ticks")
    if hold is not None and hold.count:
        headline.append(f"lock hold: mean {hold.mean:.1f} ticks, "
                        f"max {hold.max}")
    hits = reg.counter_total("window_cache_hits")
    misses = reg.counter_total("window_cache_misses")
    if hits or misses:
        moved = reg.counter_total("window_bytes_moved")
        rate = 100.0 * hits / (hits + misses)
        headline.append(f"window cache: {hits} hits / {misses} misses "
                        f"({rate:.0f}% hit rate), {moved} bytes moved")
    if headline:
        parts.append("")
        parts.extend(headline)
    return "\n".join(parts)


def render_races(vm: PiscesVM) -> str:
    """DETECT RACES: detector status plus every finding so far."""
    det = vm.race_detector
    if det is None:
        return ("race detection: off "
                "(enable with monitor.detect_races() or option 13; "
                "tasks initiated afterwards get tracked SHARED COMMON)")
    status = "on" if det.enabled else "paused"
    return f"race detection: {status} (mode {det.mode})\n" + det.report_text()


def render_profile(vm: PiscesVM) -> str:
    """PROFILE: causal profiler status plus the wait-state /
    utilization / critical-path panel collected so far."""
    prof = vm.profiler
    if prof is None:
        return ("profiling: off "
                "(enable with monitor.profile(True) or option 14; "
                "best done before initiating the tasks of interest)")
    from ..obs.profile import profile_report
    n = len(prof.slices())
    head = f"profiling: on ({n} slices recorded)"
    if not n:
        return head + "\n(no slices yet -- run or pump the machine first)"
    return head + "\n" + profile_report(prof)


def render_vm_figure(vm: PiscesVM) -> str:
    """Figure 1: PISCES 2 VIRTUAL MACHINE ORGANIZATION.

    Regenerates the paper's figure from the live VM: each cluster box
    shows its slots (controllers + user tasks / free slots), the
    intra-cluster network, and the message-passing network joining the
    clusters; the cluster hosting the terminal shows the user
    controller, and the file-controller cluster shows it with its disk.
    """
    lines: List[str] = ["PISCES 2 VIRTUAL MACHINE ORGANIZATION", ""]
    width = 46
    for num, cr in sorted(vm.clusters.items()):
        rows: List[str] = []
        rows.append(f"Slots | Task controller      <--+")
        uc = vm.user_controller
        if uc is not None and uc.cluster.number == num:
            rows.append(f"      | User controller      <--+ Intra-")
        fc = vm.file_controller
        if fc is not None and fc.cluster.number == num:
            rows.append(f"      | File controller [disk]<-+ cluster")
        for slot in cr.slots:
            occupant = (f"User task {slot.task.ttype.name}"
                        if slot.task is not None else "<not in use>")
            rows.append(f"      | {occupant:<21}<--+ network")
        head = f" CLUSTER {num}  (PE {cr.primary_pe}"
        if cr.secondary_pes:
            head += f", force PEs {','.join(map(str, cr.secondary_pes))}"
        head += ")"
        lines.append("+" + "-" * width + "+")
        lines.append("|" + head.ljust(width) + "|")
        lines.append("|" + " " * width + "|")
        for r in rows:
            lines.append("| " + r.ljust(width - 1) + "|")
        lines.append("+" + "-" * width + "+")
        lines.append("         |")
    if lines and lines[-1] == "         |":
        lines.pop()
    lines.append("")
    lines.append("   <=== Message-passing network (all clusters) ===>")
    return "\n".join(lines)
