"""Happens-before race detection over the Pisces synchronization ops.

The detector keeps one vector clock per kernel process (pid ->
component) and derives happens-before edges from every ordering
primitive the run-time library offers:

* process spawn (parent -> child) and every in-process wake
  (waker -> wakee: force joins, window waits, explicit wakes);
* message send -> accept: the sender's clock is snapshotted per
  ``Message.seq`` at delivery and joined into whoever accepts it (task
  ACCEPT or a controller pop), which also yields the initiate -> start
  edge through the task controller;
* barrier generations: every arrival joins into the generation clock,
  the body-runner joins the generation clock before the body, and the
  release wakes carry the rest;
* lock hand-offs: a release joins the owner's clock into the lock, an
  acquire joins the lock's clock into the new owner;
* SELFSCHED fetches: the shared counter is an atomic RMW chain, so
  consecutive fetches are ordered through the counter's clock.

Accesses use the *epoch* optimization: an access by ``pid`` is stamped
with ``clock[pid][pid]``; a later access by ``q`` is ordered after it
iff ``clock[q][pid] >= epoch``.  Two accesses to overlapping extents of
the same variable, at least one a write, by different processes, with
no ordering and no common lock, are a race.

SHARED COMMON conflicts are reported as races.  Window extent
conflicts are split: write/write is a race; read/write is reported on
the *warning* channel, because the section-8 data plane serializes each
transfer atomically at the owner -- a racing read sees a consistent
before-or-after snapshot, never torn data, but the outcome is still
schedule-dependent and worth surfacing.

Every hook is free of ``charge``/``preempt``/``block`` calls: detection
never adds virtual time, so elapsed ticks are bit-identical with the
detector on.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from ..errors import RaceError, RaceWarning
from ..util.durable import durable_open

if TYPE_CHECKING:  # pragma: no cover
    from ..core.vm import PiscesVM

#: Bounds of one access: ((lo, hi), ...) per dimension; () is a scalar
#: (a 0-d array), which overlaps every other access to the variable.
Bounds = Tuple[Tuple[int, int], ...]

#: Per-variable history cap (entries, not accesses: repeated accesses
#: with identical extents/lockset coalesce).  Evictions are counted --
#: a race against an evicted access can be missed, never invented.
HISTORY_CAP = 256

#: Pisces-level operations remembered per process for race evidence.
OP_STACK_DEPTH = 8

#: Reports kept before the detector stops recording new pairs.
MAX_REPORTS = 200


def extents_overlap(a: Bounds, b: Bounds) -> bool:
    """Half-open interval overlap per dimension; scalars always overlap
    (the same rule as ``repro.core.windows.bounds_overlap``)."""
    return all(max(alo, blo) < min(ahi, bhi)
               for (alo, ahi), (blo, bhi) in zip(a, b))


def _fmt_bounds(bounds: Bounds) -> str:
    if not bounds:
        return "[scalar]"
    return "[" + ", ".join(f"{lo}:{hi}" for lo, hi in bounds) + "]"


@dataclass(frozen=True)
class AccessInfo:
    """One side of a race: who touched what, when, holding which locks."""

    proc: str                      # kernel process name (task / member)
    pid: int
    write: bool
    bounds: Bounds
    ticks: int                     # virtual time of the access
    locks: Tuple[str, ...]         # locks held at the access
    ops: Tuple[str, ...]           # recent Pisces-level ops, oldest first

    def describe(self) -> str:
        kind = "WRITE" if self.write else "READ"
        held = f" holding {{{', '.join(self.locks)}}}" if self.locks else ""
        return f"{kind} {_fmt_bounds(self.bounds)} by {self.proc} at t={self.ticks}{held}"


@dataclass(frozen=True)
class RaceReport:
    """Structured evidence for one detected race (or window warning)."""

    variable: str                  # "BLOCK.var" or "window OWNER/array"
    kind: str                      # "shared_common" | "window"
    severity: str                  # "race" | "warning"
    a: AccessInfo                  # earlier access
    b: AccessInfo                  # later (detecting) access
    hb_note: str                   # why no happens-before edge was found
    detected_at: int               # virtual time of detection

    def describe(self) -> str:
        lines = [f"{self.severity.upper()} on {self.variable} ({self.kind}):",
                 f"  first:  {self.a.describe()}",
                 f"  second: {self.b.describe()}",
                 f"  {self.hb_note}"]
        if self.a.ops:
            lines.append(f"  first ops:  {' -> '.join(self.a.ops)}")
        if self.b.ops:
            lines.append(f"  second ops: {' -> '.join(self.b.ops)}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        def side(acc: AccessInfo) -> Dict[str, Any]:
            return {"proc": acc.proc, "pid": acc.pid, "write": acc.write,
                    "bounds": [list(d) for d in acc.bounds],
                    "ticks": acc.ticks, "locks": list(acc.locks),
                    "ops": list(acc.ops)}
        return {"variable": self.variable, "kind": self.kind,
                "severity": self.severity, "first": side(self.a),
                "second": side(self.b), "hb": self.hb_note,
                "detected_at": self.detected_at}


class _Access:
    """One remembered access (the most recent with this signature)."""

    __slots__ = ("pid", "epoch", "write", "bounds", "lockset", "proc",
                 "ticks", "ops")

    def __init__(self, pid: int, epoch: int, write: bool, bounds: Bounds,
                 lockset: FrozenSet[str], proc: str, ticks: int,
                 ops: Tuple[str, ...]):
        self.pid = pid
        self.epoch = epoch
        self.write = write
        self.bounds = bounds
        self.lockset = lockset
        self.proc = proc
        self.ticks = ticks
        self.ops = ops


class RaceDetector:
    """Vector clocks + locksets over one VM's run.

    Registered as an engine observer (spawn and wake edges) and
    threaded through the run-time library's instrumentation sites;
    ``None`` everywhere when detection is off.  ``mode`` selects the
    reporting channel: ``"record"`` collects (default), ``"warn"`` also
    emits a :class:`~repro.errors.RaceWarning`, ``"raise"`` raises
    :class:`~repro.errors.RaceError` at the detecting access.
    """

    def __init__(self, vm: "PiscesVM", mode: str = "record"):
        if mode not in ("record", "warn", "raise"):
            raise ValueError(f"detector mode {mode!r}: "
                             f"must be record/warn/raise")
        self.vm = vm
        self.mode = mode
        self.enabled = True
        #: Optional typed edge stream (see :mod:`repro.correctness.hb`).
        #: None costs one attribute test per join; attach with
        #: :meth:`record_edges`.
        self.edge_log: Optional[Any] = None
        self._clocks: Dict[int, Dict[int, int]] = {}
        self._msg_clocks: Dict[int, Dict[int, int]] = {}
        #: Sender pid per in-flight message seq (edge stream only).
        self._msg_src: Dict[int, int] = {}
        #: (kind, location key) -> {(pid, write, lockset, bounds): _Access}
        self._history: Dict[tuple, Dict[tuple, _Access]] = {}
        self._held: Dict[int, set] = {}
        self._ops: Dict[int, Deque[str]] = {}
        self._seen_pairs: set = set()
        self.reports: List[RaceReport] = []
        self.warnings: List[RaceReport] = []
        #: Bookkeeping for honesty about coverage.
        self.accesses_checked = 0
        self.history_evictions = 0

    # ----------------------------------------------------------- clocks --

    def _clock(self, pid: int) -> Dict[int, int]:
        c = self._clocks.get(pid)
        if c is None:
            c = self._clocks[pid] = {pid: 1}
        return c

    def _tick(self, pid: int) -> None:
        c = self._clock(pid)
        c[pid] = c.get(pid, 0) + 1

    def _join(self, into: Dict[int, int], snap: Dict[int, int]) -> None:
        for k, v in snap.items():
            if into.get(k, 0) < v:
                into[k] = v

    def _snapshot_and_tick(self, pid: int) -> Dict[int, int]:
        """Export the caller's clock (then advance it, so accesses after
        the export are not ordered by edges created from it)."""
        snap = dict(self._clock(pid))
        self._tick(pid)
        return snap

    def _push_op(self, pid: int, op: str) -> None:
        d = self._ops.get(pid)
        if d is None:
            d = self._ops[pid] = deque(maxlen=OP_STACK_DEPTH)
        d.append(op)

    # -------------------------------------------------------- edge stream --

    def record_edges(self, cap: int = 1_000_000):
        """Attach (or return) the typed happens-before edge log: every
        vector-clock join also appends one :class:`~repro.correctness.hb.HBEdge`.
        Pure bookkeeping -- no virtual time, no scheduling effect."""
        if self.edge_log is None:
            from .hb import HBEdgeLog
            self.edge_log = HBEdgeLog(cap=cap)
        return self.edge_log

    # ------------------------------------------------- engine HB hooks --

    def on_spawn(self, parent, child) -> None:
        """Everything the parent did before spawning happens-before the
        child's first slice (an external spawn carries no edge)."""
        if parent is None:
            return
        snap = self._snapshot_and_tick(parent.pid)
        self._join(self._clock(child.pid), snap)
        log = self.edge_log
        if log is not None:
            log.append("spawn", parent.pid, child.pid,
                       self.vm.engine.now(), child.name)

    def on_wake(self, waker, wakee, at) -> None:
        """A wake is a causal edge: the wakee resumes after the waker's
        action (force join, barrier release, lock grant, message).
        External wakes (the monitor) carry none."""
        if waker is None:
            return
        snap = self._snapshot_and_tick(waker.pid)
        self._join(self._clock(wakee.pid), snap)
        log = self.edge_log
        if log is not None:
            log.append("wake", waker.pid, wakee.pid,
                       self.vm.engine.now(), wakee.blocked_on)

    # ----------------------------------------------------- message edges --

    def on_send(self, msg) -> None:
        """Snapshot the sender's clock at delivery, keyed by message seq."""
        eng = self.vm.engine
        if not eng.in_process():
            return
        p = eng.current()
        self._msg_clocks[msg.seq] = self._snapshot_and_tick(p.pid)
        if self.edge_log is not None:
            self._msg_src[msg.seq] = p.pid
        self._push_op(p.pid, f"SEND {msg.mtype}")

    def on_accept(self, msg) -> None:
        """Join the send-time snapshot into whoever accepted the message
        (a task's ACCEPT or a controller pop -- the latter carries the
        initiate -> start edge through the task controller)."""
        snap = self._msg_clocks.pop(msg.seq, None)
        src = self._msg_src.pop(msg.seq, -1)
        eng = self.vm.engine
        if not eng.in_process():
            return
        p = eng.current()
        if snap is not None:
            self._join(self._clock(p.pid), snap)
            log = self.edge_log
            if log is not None:
                log.append("send-accept", src, p.pid, eng.now(), msg.mtype)
        self._push_op(p.pid, f"ACCEPT {msg.mtype}")

    def forget_message(self, msg) -> None:
        """A message was dropped before any accept (corruption discard)."""
        self._msg_clocks.pop(msg.seq, None)
        self._msg_src.pop(msg.seq, None)

    # ----------------------------------------------------- barrier edges --

    def on_barrier_arrive(self, gen, proc, gen_no: int, member: int) -> None:
        """Every arrival joins its clock into the generation clock: the
        body (and everyone released) is ordered after all arrivals."""
        gc = getattr(gen, "_hb_clock", None)
        if gc is None:
            gc = gen._hb_clock = {}
        self._join(gc, self._snapshot_and_tick(proc.pid))
        log = self.edge_log
        if log is not None:
            log.append("barrier-arrive", proc.pid, -1,
                       self.vm.engine.now(), f"gen={gen_no} member={member}")
        self._push_op(proc.pid, f"BARRIER gen={gen_no} member={member}")

    def on_barrier_body(self, gen, proc) -> None:
        """The body-runner is ordered after every arrival (the generic
        wake edge only carries the last arriver's clock)."""
        gc = getattr(gen, "_hb_clock", None)
        if gc is not None:
            self._join(self._clock(proc.pid), gc)
            log = self.edge_log
            if log is not None:
                log.append("barrier-body", -1, proc.pid,
                           self.vm.engine.now())

    # -------------------------------------------------------- lock edges --

    def on_lock_acquire(self, lock, proc, member: int) -> None:
        lc = getattr(lock, "_hb_clock", None)
        if lc is not None:
            self._join(self._clock(proc.pid), lc)
            log = self.edge_log
            if log is not None:
                log.append("lock", getattr(lock, "_hb_last_releaser", -1),
                           proc.pid, self.vm.engine.now(), lock.name)
        self._held.setdefault(proc.pid, set()).add(lock.name)
        self._push_op(proc.pid, f"LOCK {lock.name}")

    def on_lock_release(self, lock, proc, member: int) -> None:
        lc = getattr(lock, "_hb_clock", None)
        if lc is None:
            lc = lock._hb_clock = {}
        self._join(lc, self._snapshot_and_tick(proc.pid))
        if self.edge_log is not None:
            lock._hb_last_releaser = proc.pid
        self._held.get(proc.pid, set()).discard(lock.name)
        self._push_op(proc.pid, f"UNLOCK {lock.name}")

    # --------------------------------------------------- loop-claim edges --

    def on_selfsched_fetch(self, counter, index: int, member: int) -> None:
        """The shared counter is an atomic RMW chain: fetch i happens-
        before fetch i+1 (only the counter ops themselves -- iteration
        bodies stay unordered, so races between them are still seen)."""
        eng = self.vm.engine
        if not eng.in_process():
            return
        p = eng.current()
        cc = getattr(counter, "_hb_clock", None)
        if cc is not None:
            self._join(self._clock(p.pid), cc)
            log = self.edge_log
            if log is not None:
                log.append("selfsched",
                           getattr(counter, "_hb_last_pid", -1),
                           p.pid, eng.now(), f"i={index}")
        counter._hb_clock = self._snapshot_and_tick(p.pid)
        if self.edge_log is not None:
            counter._hb_last_pid = p.pid
        if index >= 0:
            self._push_op(p.pid, f"SELFSCHED i={index} member={member}")

    def on_presched_claim(self, member: int, total: int, size: int) -> None:
        """PRESCHED is a static partition -- no edge, evidence only."""
        eng = self.vm.engine
        if not eng.in_process():
            return
        p = eng.current()
        self._push_op(
            p.pid, f"PRESCHED member={member} takes {member}::{size} of {total}")

    # ------------------------------------------------------------ access --

    def common_monitor(self, task):
        """The per-task callback wired into tracked SHARED COMMON arrays.

        It closes over the taskid, not the task: the task owns the
        arrays that hold the callback, so capturing the task would
        make a reference cycle."""
        tid = task.tid

        def monitor(label: Tuple[str, str], bounds: Bounds,
                    is_write: bool) -> None:
            self.on_common_access(tid, label[0], label[1], bounds, is_write)
        return monitor

    def on_common_access(self, tid, block: str, var: str, bounds: Bounds,
                         is_write: bool) -> None:
        key = ("C", tid, block, var)
        self._record(key, f"{block}.{var}", "shared_common", bounds, is_write)

    def on_window_access(self, w, is_write: bool) -> None:
        key = ("W", w.owner, w.array)
        self._record(key, f"window {w.owner}/{w.array}", "window",
                     tuple(w.bounds), is_write)

    def _record(self, key: tuple, variable: str, kind: str, bounds: Bounds,
                is_write: bool) -> None:
        if not self.enabled:    # paused from the monitor (option 13)
            return
        eng = self.vm.engine
        if not eng.in_process():
            return
        p = eng.current()
        pid = p.pid
        my_clock = self._clock(pid)
        lockset = frozenset(self._held.get(pid, ()))
        self.accesses_checked += 1
        hist = self._history.get(key)
        if hist is None:
            hist = self._history[key] = {}
        for other in hist.values():
            if other.pid == pid:
                continue
            if not (is_write or other.write):
                continue                      # read/read never conflicts
            if my_clock.get(other.pid, 0) >= other.epoch:
                continue                      # happens-before ordered
            if lockset and other.lockset and (lockset & other.lockset):
                continue                      # a common lock serializes
            if not extents_overlap(bounds, other.bounds):
                continue
            self._report(key, variable, kind, other, p, bounds,
                         is_write, lockset)
        sig = (pid, is_write, lockset, bounds)
        if sig not in hist and len(hist) >= HISTORY_CAP:
            hist.pop(next(iter(hist)))
            self.history_evictions += 1
        hist[sig] = _Access(pid, my_clock.get(pid, 0), is_write, bounds,
                            lockset, p.name, eng.now(),
                            tuple(self._ops.get(pid, ())))

    # ------------------------------------------------------------ report --

    def _report(self, key: tuple, variable: str, kind: str, other: _Access,
                proc, bounds: Bounds, is_write: bool,
                lockset: FrozenSet[str]) -> None:
        severity = "race"
        if kind == "window" and not (is_write and other.write):
            # The data plane serializes each transfer atomically at the
            # owner: a racing read sees a consistent snapshot, but the
            # outcome is schedule-dependent -- warn, don't error.
            severity = "warning"
        pair = (key, other.pid, proc.pid, other.write, is_write, severity)
        if pair in self._seen_pairs:
            return
        if len(self.reports) + len(self.warnings) >= MAX_REPORTS:
            return
        self._seen_pairs.add(pair)
        a = AccessInfo(proc=other.proc, pid=other.pid, write=other.write,
                       bounds=other.bounds, ticks=other.ticks,
                       locks=tuple(sorted(other.lockset)), ops=other.ops)
        b = AccessInfo(proc=proc.name, pid=proc.pid, write=is_write,
                       bounds=bounds, ticks=self.vm.engine.now(),
                       locks=tuple(sorted(lockset)),
                       ops=tuple(self._ops.get(proc.pid, ())))
        report = RaceReport(
            variable=variable, kind=kind, severity=severity, a=a, b=b,
            hb_note=(f"no happens-before edge orders pid {other.pid} "
                     f"(epoch {other.epoch}) before pid {proc.pid} "
                     f"(sees component "
                     f"{self._clock(proc.pid).get(other.pid, 0)}) "
                     f"and no common lock is held"),
            detected_at=self.vm.engine.now())
        if severity == "warning":
            self.warnings.append(report)
        else:
            self.reports.append(report)
        self.vm.counts.races_detected[kind, severity].value += 1
        if severity == "race":
            if self.mode == "raise":
                raise RaceError(report)
            if self.mode == "warn":
                import warnings as _warnings
                _warnings.warn(report.describe(), RaceWarning, stacklevel=3)

    # ----------------------------------------------------------- output --

    def report_text(self) -> str:
        """Human-readable summary (monitor option 13, analysis report)."""
        lines = [f"race detection: {self.accesses_checked} accesses "
                 f"checked, {len(self.reports)} race(s), "
                 f"{len(self.warnings)} window warning(s)"]
        if self.history_evictions:
            lines.append(f"  ({self.history_evictions} history evictions: "
                         f"coverage of long runs is windowed)")
        for r in self.reports + self.warnings:
            lines.append("")
            lines.append(r.describe())
        return "\n".join(lines)

    def export_jsonl(self, path) -> int:
        """Write every report (races then warnings) as JSON lines;
        returns the record count."""
        records = self.reports + self.warnings
        with durable_open(path) as f:
            for r in records:
                f.write(json.dumps(r.as_dict(), default=str) + "\n")
        return len(records)
