"""Causal profiler: wait-state accounting over the engine's slice stream.

The PISCES 2 monitor (section 11) exists so a programmer can ask *why*
a parallel program is slow, not just *that* it is.  The metrics/spans
layer answers "what happened"; this module answers "what bounded
elapsed time": every blocked tick of every kernel process is attributed
to one of six wait states, rolled up per task type, per cluster and per
PE, and the slice/wake record it keeps is the input to
:mod:`repro.obs.profile.critical_path`.

Wait states
-----------

==================== ==================================================
``lock-wait``        blocked entering a named critical section
``barrier-wait``     barrier arrival/body and force-join waits
``accept-wait``      waiting for a message (ACCEPT, controller queues)
``window-wait``      window-extent overlap waits and striped disk I/O
``dispatch-queue-wait`` runnable but not yet dispatched (PE contention)
``fault-recovery``   accept retries after a fault, and killed processes
==================== ==================================================

Zero virtual time
-----------------

The profiler is an engine observer (``engine.observe(profiler)``), on
the same list as the race detector and the slice metrics: it never
charges ticks, never wakes or blocks anything, and never touches
scheduling state.  With profiling off it costs nothing; with it on,
every hook is a few list appends.  The ``test_profile_overhead.py``
benchmark gate asserts bit-identical elapsed virtual time and trace
streams with profiling on and off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...mmos.process import KernelProcess, ProcState

#: The six wait-state categories (stable slugs, used as metric labels).
WAIT_LOCK = "lock-wait"
WAIT_BARRIER = "barrier-wait"
WAIT_ACCEPT = "accept-wait"
WAIT_WINDOW = "window-wait"
WAIT_DISPATCH = "dispatch-queue-wait"
WAIT_FAULT = "fault-recovery"

WAIT_CATEGORIES = (WAIT_LOCK, WAIT_BARRIER, WAIT_ACCEPT, WAIT_WINDOW,
                   WAIT_DISPATCH, WAIT_FAULT)


def wait_category(reason: str) -> str:
    """Map an engine block-reason string to its wait-state category.

    Every wait site in the runtime names its reason (``critical(NAME)``,
    ``barrier(gen N)``, ``accept(types)``, ``window-overlap-wait``...);
    the mapping below is the single place those names are interpreted.
    Accept retries after a fault carry a ``retry`` marker inside the
    ``accept(`` prefix (the prefix itself is load-bearing: the VM's
    receiver wake-up matches on it), so post-fault re-waits are charged
    to recovery, not to ordinary message latency.
    """
    if reason.startswith("critical("):
        return WAIT_LOCK
    if reason.startswith("barrier") or reason == "force-join":
        return WAIT_BARRIER
    if reason.startswith("accept(retry"):
        return WAIT_FAULT
    if reason.startswith("accept("):
        return WAIT_ACCEPT
    if reason in ("window-overlap-wait", "disk-io"):
        return WAIT_WINDOW
    if reason == "killed":
        return WAIT_FAULT
    if reason.endswith("-wait"):
        # Controller message waits (tcontr-wait, ucontr-wait, ...): the
        # daemon's equivalent of an ACCEPT.
        return WAIT_ACCEPT
    return WAIT_DISPATCH


def _split_name(name: str) -> Tuple[str, Optional[int]]:
    """``JWORKER@1.3.1`` -> (``JWORKER``, cluster 1); force members
    (``JFORCE@1.2.0#f3``) and controllers (``tcontr@1.1.0``) parse the
    same way.  Returns (label, None) when no cluster is encoded."""
    label, sep, rest = name.partition("@")
    if not sep:
        return name, None
    rest = rest.partition("#")[0]
    head = rest.partition(".")[0]
    try:
        return label, int(head)
    except ValueError:
        return label, None


# Pending-transition records, one per process, consumed by the next
# on_slice.  Tuples keep the hot path allocation-light:
#   ("spawn", parent_pid|None, ready_at)
#   ("ready", prev_end, reason)            reason=="killed" after a kill
#   ("blocked", reason, t_block, deadline)
#   ("woken", reason, t_block, wake_time, waker_pid|None)
#   ("killed", reason, t_block, kill_time)


@dataclass(frozen=True)
class Slice:
    """One executed slice, with the cause that made its process
    runnable.  ``cause`` mirrors the pending-transition tuples above
    with times resolved (see :class:`CausalProfiler`)."""

    seq: int
    pid: int
    name: str
    pe: int
    start: int
    end: int
    wall: float
    new_state: str          # "ready" | "blocked" | "done"
    cause: Tuple[Any, ...]

    @property
    def cost(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class WaitInterval:
    """One attributed wait: ``proc`` spent [start, end) in ``category``
    (blocked on ``reason``, or queued when dispatch-queue-wait)."""

    pid: int
    name: str
    pe: int
    category: str
    reason: str
    start: int
    end: int

    @property
    def ticks(self) -> int:
        return self.end - self.start


class _ProcRecord:
    """Per-process slice/wait storage (internal)."""

    __slots__ = ("pid", "name", "pe", "daemon", "slices", "waits", "pending")

    def __init__(self, p: KernelProcess):
        self.pid = p.pid
        self.name = p.name
        self.pe = p.pe
        self.daemon = p.daemon
        self.slices: List[Slice] = []
        self.waits: List[WaitInterval] = []
        self.pending: Optional[Tuple[Any, ...]] = None


class CausalProfiler:
    """Engine hook recording slices, wakes and attributed waits.

    Register with ``engine.observe(profiler)`` (the VM's
    ``enable_profiling()`` does this).  All analysis -- accounting,
    rollups, the critical path -- reads the recorded data after the run;
    the hooks themselves only append.
    """

    #: Asks the engine for each slice's host seconds.
    wants_wall = True

    def __init__(self) -> None:
        self._recs: Dict[int, _ProcRecord] = {}
        self._slice_seq = 0

    # ------------------------------------------------------ engine hooks --

    def _rec(self, p: KernelProcess) -> _ProcRecord:
        r = self._recs.get(p.pid)
        if r is None:
            r = self._recs[p.pid] = _ProcRecord(p)
        return r

    def on_spawn(self, parent: Optional[KernelProcess],
                 p: KernelProcess) -> None:
        r = self._rec(p)
        r.pending = ("spawn", parent.pid if parent is not None else None,
                     int(p.ready_time))

    def on_wake(self, waker: Optional[KernelProcess], p: KernelProcess,
                at: int) -> None:
        r = self._recs.get(p.pid)
        if r is None or r.pending is None or r.pending[0] != "blocked":
            return
        _, reason, t_block, _dl = r.pending
        r.pending = ("woken", reason, t_block, max(int(at), t_block),
                     waker.pid if waker is not None else None)

    def on_kill(self, p: KernelProcess, at: int) -> None:
        r = self._recs.get(p.pid)
        if r is None or r.pending is None or r.pending[0] != "blocked":
            return
        _, reason, t_block, _dl = r.pending
        r.pending = ("killed", reason, t_block, max(int(at), t_block))

    def on_slice(self, p: KernelProcess, start: int, wall: float) -> None:
        # Charges can arrive as numpy integers (a task may size its
        # compute from its own numpy arrays); coerce once here so every downstream record --
        # and the JSON exporters -- hold plain ints.
        start, end = int(start), int(p.ready_time)
        new_state, reason, deadline = p.state, p.blocked_on, p.deadline
        if deadline is not None:
            deadline = int(deadline)
        r = self._rec(p)
        cause = self._resolve_pending(r, start)
        self._slice_seq += 1
        r.slices.append(Slice(
            seq=self._slice_seq, pid=r.pid, name=r.name, pe=r.pe,
            start=start, end=end, wall=wall,
            new_state=new_state.value, cause=cause))
        if new_state is ProcState.DONE:
            r.pending = None
        elif new_state is ProcState.READY:
            r.pending = ("ready", end, reason)
        else:
            r.pending = ("blocked", reason, end, deadline)

    # -------------------------------------------------- wait attribution --

    def _wait(self, r: _ProcRecord, category: str, reason: str,
              t0: int, t1: int) -> None:
        if t1 > t0:
            r.waits.append(WaitInterval(
                pid=r.pid, name=r.name, pe=r.pe, category=category,
                reason=reason, start=t0, end=t1))

    def _resolve_pending(self, r: _ProcRecord, start: int) -> Tuple[Any, ...]:
        """Turn the pending transition into wait intervals ending at the
        dispatch ``start``, and return the slice's cause tuple."""
        pending = r.pending
        r.pending = None
        if pending is None:
            # First slice of a process whose spawn predates profiling
            # (profiler attached mid-run): no attribution possible.
            return ("spawn", None, start)
        kind = pending[0]
        if kind == "spawn":
            _, parent_pid, ready_at = pending
            self._wait(r, WAIT_DISPATCH, "queued", min(ready_at, start), start)
            return pending
        if kind == "ready":
            _, prev_end, reason = pending
            cat = WAIT_FAULT if reason == "killed" else WAIT_DISPATCH
            self._wait(r, cat, reason or "queued", min(prev_end, start), start)
            return pending
        if kind == "woken":
            _, reason, t_block, t_wake, waker_pid = pending
            t_wake = min(t_wake, start)
            self._wait(r, wait_category(reason), reason, t_block, t_wake)
            self._wait(r, WAIT_DISPATCH, "queued", t_wake, start)
            return pending
        if kind == "killed":
            _, reason, t_block, t_kill = pending
            t_kill = min(t_kill, start)
            self._wait(r, wait_category(reason), reason, t_block, t_kill)
            self._wait(r, WAIT_FAULT, "killed", t_kill, start)
            return pending
        # "blocked" with a deadline that fired: the wait up to the
        # deadline belongs to the block reason (a DELAY, an I/O
        # completion time...), the remainder is queueing.
        _, reason, t_block, deadline = pending
        resume = start if deadline is None else min(deadline, start)
        self._wait(r, wait_category(reason), reason, t_block, resume)
        self._wait(r, WAIT_DISPATCH, "queued", resume, start)
        return ("timeout", resume, reason, t_block)

    # ----------------------------------------------------------- queries --

    def processes(self) -> List[_ProcRecord]:
        """Per-process records, ordered by pid (creation order)."""
        return [self._recs[pid] for pid in sorted(self._recs)]

    def slices(self) -> List[Slice]:
        """Every recorded slice in engine dispatch-completion order."""
        out = [s for r in self.processes() for s in r.slices]
        out.sort(key=lambda s: s.seq)
        return out

    def waits(self) -> List[WaitInterval]:
        """Every attributed wait, ordered (start, pid)."""
        out = [w for r in self.processes() for w in r.waits]
        out.sort(key=lambda w: (w.start, w.pid, w.end))
        return out

    def elapsed(self) -> int:
        """Last recorded slice end (== the run's elapsed virtual time
        once the run has finished)."""
        return max((s.end for r in self._recs.values() for s in r.slices),
                   default=0)

    def total_work(self) -> int:
        return sum(s.cost for r in self._recs.values() for s in r.slices)

    def accounting(self) -> "WaitAccounting":
        return WaitAccounting.from_profiler(self)

    def utilization_timeline(self, n_buckets: int = 24,
                             elapsed: Optional[int] = None,
                             ) -> Dict[int, List[float]]:
        """Per-PE busy fraction per equal-width virtual-time bucket."""
        if elapsed is None:
            elapsed = self.elapsed()
        if elapsed <= 0 or n_buckets <= 0:
            return {}
        busy: Dict[int, List[float]] = {}
        width = elapsed / n_buckets
        for r in self.processes():
            for s in r.slices:
                row = busy.setdefault(s.pe, [0.0] * n_buckets)
                lo, hi = s.start, min(s.end, elapsed)
                b = int(lo / width)
                while b < n_buckets and lo < hi:
                    edge = min(hi, (b + 1) * width)
                    row[b] += edge - lo
                    lo = edge
                    b += 1
        return {pe: [min(1.0, t / width) for t in row]
                for pe, row in sorted(busy.items())}

    def publish_metrics(self, registry, elapsed: Optional[int] = None) -> None:
        """Roll the wait accounting up into a metrics registry:
        ``wait_ticks_task{category,task}``, ``wait_ticks_cluster``,
        ``wait_ticks_pe`` counters plus ``pe_utilization_pct`` and
        ``pe_busy_ticks`` gauges."""
        if registry is None or not registry.enabled:
            return
        acct = self.accounting()
        for (task, cat), t in sorted(acct.by_task.items()):
            registry.counter("wait_ticks_task", task=task, category=cat).inc(t)
        for (cluster, cat), t in sorted(acct.by_cluster.items()):
            registry.counter("wait_ticks_cluster", cluster=cluster,
                             category=cat).inc(t)
        for (pe, cat), t in sorted(acct.by_pe.items()):
            registry.counter("wait_ticks_pe", pe=pe, category=cat).inc(t)
        if elapsed is None:
            elapsed = self.elapsed()
        for pe, ticks in sorted(acct.busy_by_pe.items()):
            registry.gauge("pe_busy_ticks", pe=pe).set(ticks)
            if elapsed > 0:
                registry.gauge("pe_utilization_pct", pe=pe).set(
                    round(100.0 * ticks / elapsed, 1))


@dataclass
class WaitAccounting:
    """Wait-state rollups: total blocked ticks by category, and by
    (task label, category), (cluster, category), (PE, category); plus
    per-PE busy ticks from the slice record."""

    totals: Dict[str, int]
    by_task: Dict[Tuple[str, str], int]
    by_cluster: Dict[Tuple[int, str], int]
    by_pe: Dict[Tuple[int, str], int]
    busy_by_pe: Dict[int, int]

    @classmethod
    def from_profiler(cls, prof: CausalProfiler) -> "WaitAccounting":
        totals: Dict[str, int] = {}
        by_task: Dict[Tuple[str, str], int] = {}
        by_cluster: Dict[Tuple[int, str], int] = {}
        by_pe: Dict[Tuple[int, str], int] = {}
        busy: Dict[int, int] = {}
        for r in prof.processes():
            label, cluster = _split_name(r.name)
            for w in r.waits:
                t = w.ticks
                totals[w.category] = totals.get(w.category, 0) + t
                k = (label, w.category)
                by_task[k] = by_task.get(k, 0) + t
                if cluster is not None:
                    kc = (cluster, w.category)
                    by_cluster[kc] = by_cluster.get(kc, 0) + t
                kp = (w.pe, w.category)
                by_pe[kp] = by_pe.get(kp, 0) + t
            for s in r.slices:
                busy[s.pe] = busy.get(s.pe, 0) + s.cost
        return cls(totals=totals, by_task=by_task, by_cluster=by_cluster,
                   by_pe=by_pe, busy_by_pe=busy)

    @property
    def total_wait_ticks(self) -> int:
        return sum(self.totals.values())


_SPARK = " .:-=+*#%@"


def _sparkline(row: Iterable[float]) -> str:
    out = []
    for f in row:
        i = min(len(_SPARK) - 1, int(f * (len(_SPARK) - 1) + 0.5))
        out.append(_SPARK[i])
    return "".join(out)


def _occupancy(prof: CausalProfiler,
               ) -> Tuple[int, Dict[int, Tuple[float, List[Tuple[int, int]]]]]:
    """(horizon, PE -> (utilization, busy intervals)) over the slices
    that charged ticks -- the per-PE view a user tuning a mapping
    (section 9) wants: *which PEs sit idle?*"""
    horizon = prof.elapsed()
    busy = prof.accounting().busy_by_pe
    spans: Dict[int, List[Tuple[int, int]]] = {}
    for s in prof.slices():
        if s.end > s.start:
            spans.setdefault(s.pe, []).append((s.start, s.end))
    return horizon, {pe: (busy[pe] / horizon, spans[pe])
                     for pe in sorted(spans)}


def pe_gantt(prof: CausalProfiler, width: int = 72) -> str:
    """ASCII PE-occupancy chart: one row per PE, '#' where busy."""
    horizon, by_pe = _occupancy(prof)
    if not by_pe:
        return "(no slices recorded; enable profiling before the run)"
    lines = [f"virtual time 0 .. {horizon} ticks "
             f"({max(1, horizon // width)} ticks/char)"]
    for pe, (util, spans) in by_pe.items():
        row = [" "] * width
        for start, end in spans:
            a = min(width - 1, start * width // horizon)
            b = min(width - 1, max(a, (end - 1) * width // horizon))
            row[a:b + 1] = "#" * (b - a + 1)
        lines.append(f"PE {pe:>2} ({100 * util:5.1f}%) |{''.join(row)}|")
    return "\n".join(lines)


def idle_report(prof: CausalProfiler) -> List[Tuple[int, float, int]]:
    """(pe, utilization, largest idle gap) per PE -- the tuning signal.
    A gap is the longest interval with no work on the PE, counting the
    stretches before its first and after its last slice."""
    horizon, by_pe = _occupancy(prof)
    rows = []
    for pe, (util, spans) in by_pe.items():
        gap = pos = 0
        for start, end in sorted(spans):
            gap = max(gap, start - pos)
            pos = max(pos, end)
        rows.append((pe, util, max(gap, horizon - pos)))
    return rows


def profile_report(prof: CausalProfiler, elapsed: Optional[int] = None,
                   n_pes: Optional[int] = None, top: int = 5) -> str:
    """The monitor/report text panel: wait states, per-PE utilization
    timeline, efficiency summary and the critical path's top segments."""
    from .critical_path import extract_critical_path
    if elapsed is None:
        elapsed = prof.elapsed()
    acct = prof.accounting()
    lines = ["CAUSAL PROFILE (virtual time)"]
    work = prof.total_work()
    pes = sorted(acct.busy_by_pe)
    if n_pes is None:
        n_pes = len(pes) or 1
    par = work / elapsed if elapsed else 0.0
    eff = par / n_pes if n_pes else 0.0
    lines.append(f"  elapsed {elapsed} ticks, work {work} ticks on "
                 f"{n_pes} PEs: parallelism {par:.2f}x, "
                 f"efficiency {eff:.0%}")
    total_wait = acct.total_wait_ticks
    lines.append(f"  wait states ({total_wait} blocked ticks):")
    for cat in WAIT_CATEGORIES:
        t = acct.totals.get(cat, 0)
        if t:
            pct = 100.0 * t / total_wait if total_wait else 0.0
            lines.append(f"    {cat:<20} {t:>10}  {pct:5.1f}%")
    if not total_wait:
        lines.append("    (no waits recorded)")
    timeline = prof.utilization_timeline(elapsed=elapsed)
    if timeline:
        lines.append("  per-PE utilization (run left to right):")
        for pe, row in timeline.items():
            busy = acct.busy_by_pe.get(pe, 0)
            pct = 100.0 * busy / elapsed if elapsed else 0.0
            lines.append(f"    PE{pe:<3} {pct:5.1f}%  |{_sparkline(row)}|")
    cp = extract_critical_path(prof, elapsed=elapsed)
    lines.append(cp.summary_text(top=top))
    return "\n".join(lines)
