"""Span derivation: paired intervals from the section-12 event stream.

Trace events are points in virtual time.  Off-line timing analysis (and
the Chrome trace exporter) wants *intervals*:

* **task lifetime** -- TASK_INIT .. TASK_TERM of one task;
* **message in flight** -- MSG_SEND .. the matching MSG_ACCEPT
  (matched FIFO per (sender, receiver, message type), the same order
  the in-queue guarantees);
* **critical section** -- LOCK .. UNLOCK per (task, lock name).

Events whose closing partner never appears (a task still running at
shutdown, a message never accepted, a lock held at kill) yield *open*
spans with ``end=None``; exporters may drop or clamp them.
:func:`task_gantt` renders the closed task lifetimes as an ASCII chart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..core.tracing import TraceEvent, TraceEventType

#: Span categories (the Chrome trace "cat" field).
CAT_TASK = "task"
CAT_MESSAGE = "message"
CAT_CRITICAL = "critical"
CAT_FAULT = "fault"


@dataclass(frozen=True)
class Span:
    """One derived interval in virtual time."""

    name: str
    cat: str
    task: str          # taskid rendered as text (c.s.u)
    pe: int
    start: int
    end: Optional[int] = None
    args: Tuple[Tuple[str, str], ...] = ()

    @property
    def duration(self) -> Optional[int]:
        return None if self.end is None else self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None


def _info_field(info: str, key: str) -> str:
    for tok in info.split():
        if tok.startswith(key + "="):
            return tok.split("=", 1)[1]
    return ""


def derive_spans(events: Iterable[TraceEvent],
                 include_open: bool = False) -> List[Span]:
    """Derive task / message / critical-section spans from trace events.

    The input must be in emission order (the tracer's order); output is
    sorted by (start, cat, name) for deterministic export.
    """
    spans: List[Span] = []
    # open task lifetimes: taskid -> (start event)
    open_tasks: Dict[str, TraceEvent] = {}
    # in-flight messages: (sender, receiver, mtype) -> FIFO of send events
    open_msgs: Dict[Tuple[str, str, str], Deque[TraceEvent]] = {}
    # held locks: (taskid, lock name) -> LOCK event
    open_locks: Dict[Tuple[str, str], TraceEvent] = {}

    for e in events:
        tid = str(e.task)
        if e.etype is TraceEventType.TASK_INIT:
            open_tasks[tid] = e
        elif e.etype is TraceEventType.TASK_TERM:
            start = open_tasks.pop(tid, None)
            if start is not None:
                # Crashed/killed tasks (fault injection, monitor KILL)
                # close with status=aborted rather than leaking open.
                args: Tuple[Tuple[str, str], ...] = ()
                status = _info_field(e.info, "status")
                if status:
                    args = (("status", status),)
                    reason = _info_field(e.info, "reason")
                    if reason:
                        args += (("reason", reason),)
                spans.append(Span(
                    name=_info_field(start.info, "type") or tid,
                    cat=CAT_TASK, task=tid, pe=start.pe,
                    start=start.ticks, end=e.ticks, args=args))
        elif e.etype is TraceEventType.FAULT:
            # Injected faults are zero-width marks: name is the fault
            # kind (the info field reads "kind: detail").
            spans.append(Span(
                name=e.info.split(":", 1)[0].strip() or "fault",
                cat=CAT_FAULT, task=tid, pe=e.pe,
                start=e.ticks, end=e.ticks,
                args=(("detail", e.info),)))
        elif e.etype is TraceEventType.MSG_SEND and e.other is not None:
            key = (tid, str(e.other), _info_field(e.info, "type"))
            open_msgs.setdefault(key, deque()).append(e)
        elif e.etype is TraceEventType.MSG_ACCEPT and e.other is not None:
            key = (str(e.other), tid, _info_field(e.info, "type"))
            q = open_msgs.get(key)
            if q:
                send = q.popleft()
                spans.append(Span(
                    name=key[2] or "message", cat=CAT_MESSAGE,
                    task=key[0], pe=send.pe,
                    start=send.ticks, end=e.ticks,
                    args=(("to", key[1]),)))
        elif e.etype is TraceEventType.LOCK:
            lname = _info_field(e.info, "lock")
            open_locks[(tid, lname)] = e
        elif e.etype is TraceEventType.UNLOCK:
            lname = _info_field(e.info, "lock")
            start = open_locks.pop((tid, lname), None)
            if start is not None:
                spans.append(Span(
                    name=lname or "lock", cat=CAT_CRITICAL, task=tid,
                    pe=start.pe, start=start.ticks, end=e.ticks))

    if include_open:
        for tid, e in open_tasks.items():
            spans.append(Span(name=_info_field(e.info, "type") or tid,
                              cat=CAT_TASK, task=tid, pe=e.pe,
                              start=e.ticks))
        for (sender, receiver, mtype), q in open_msgs.items():
            for e in q:
                spans.append(Span(name=mtype or "message", cat=CAT_MESSAGE,
                                  task=sender, pe=e.pe, start=e.ticks,
                                  args=(("to", receiver),)))
        for (tid, lname), e in open_locks.items():
            spans.append(Span(name=lname or "lock", cat=CAT_CRITICAL,
                              task=tid, pe=e.pe, start=e.ticks))

    spans.sort(key=lambda s: (s.start, s.cat, s.name, s.task))
    return spans


def span_summary(spans: Iterable[Span]) -> Dict[str, Dict[str, int]]:
    """Per-category totals: count and summed duration of closed spans."""
    out: Dict[str, Dict[str, int]] = {}
    for s in spans:
        d = out.setdefault(s.cat, {"count": 0, "total_ticks": 0, "open": 0,
                                   "aborted": 0})
        if s.closed:
            d["count"] += 1
            d["total_ticks"] += s.duration
            if ("status", "aborted") in s.args:
                d["aborted"] += 1
        else:
            d["open"] += 1
    return out


def task_gantt(spans: Iterable[Span], horizon: int, width: int = 72) -> str:
    """ASCII gantt of closed task lifetimes over virtual time.

    ``horizon`` is the last tick in the trace (the largest event
    ``ticks``), which lies past the last TASK_TERM: a task's
    ``@TERMINATED`` notice to its controller is traced after it.
    """
    tasks = sorted((s for s in spans if s.cat == CAT_TASK and s.closed),
                   key=lambda s: (s.start, s.task))
    if not tasks:
        return "(no completed task spans in trace)"
    horizon = max(1, horizon)
    lines = [f"virtual time 0 .. {horizon} ticks "
             f"({horizon / width:.0f} ticks/char)"]
    for s in tasks:
        a = min(width - 1, s.start * width // horizon)
        b = min(width - 1, max(a, s.end * width // horizon))
        bar = " " * a + "#" * (b - a + 1)
        label = f"{s.task} {s.name}"[:24]
        lines.append(f"{label:<24} |{bar.ljust(width)}|")
    return "\n".join(lines)
