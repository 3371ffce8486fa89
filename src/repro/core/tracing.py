"""Execution tracing (section 12).

Eight event types can be traced; each trace line carries the event type,
the taskid of the relevant task(s), a clock reading ("PE number and
'ticks' count"), and event-specific information.  Tracing may be turned
on and off per event type and per task; output goes to the screen
(a callback sink) and/or to a file for off-line timing analysis:
:meth:`TraceEvent.parse` reads a line back, and
:func:`repro.obs.spans.derive_spans` pairs the events into task,
message and critical-section intervals.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, IO, List, Optional, Set

from .taskid import TaskId

#: Default in-memory ring-buffer capacity.  Long runs with
#: ``keep_in_memory=True`` keep the most recent events and count the
#: overflow instead of growing without bound.
DEFAULT_MAX_EVENTS = 100_000


class TraceEventType(enum.Enum):
    """The eight traceable event types of section 12, plus FAULT.

    FAULT is an extension beyond the paper: every injected fault and
    every failure-semantics action (PE crash, message drop/corruption,
    task death, restart) emits one, so a faulty run's timeline reads
    from the same trace stream as a clean one.
    """

    TASK_INIT = "TASK_INIT"
    TASK_TERM = "TASK_TERM"
    MSG_SEND = "MSG_SEND"
    MSG_ACCEPT = "MSG_ACCEPT"
    LOCK = "LOCK"
    UNLOCK = "UNLOCK"
    BARRIER_ENTER = "BARRIER_ENTER"
    FORCE_SPLIT = "FORCE_SPLIT"
    FAULT = "FAULT"


#: The paper's original eight event types (FAULT is a repo extension).
PAPER_EVENT_TYPES = frozenset(t for t in TraceEventType
                              if t is not TraceEventType.FAULT)


ALL_EVENT_TYPES = frozenset(TraceEventType)

#: Every event type's name, in declaration order: the ``trace_events``
#: of a fully traced run (a served ``"trace": true`` run, and
#: record/replay with ``trace=True``, whose replay contract covers the
#: whole stream).
ALL_TRACE_EVENTS = tuple(t.value for t in TraceEventType)


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    etype: TraceEventType
    task: TaskId
    pe: int
    ticks: int
    info: str = ""
    other: Optional[TaskId] = None   # e.g. the receiver of a send

    def line(self) -> str:
        """The textual trace line written to screen/file.

        The free-form ``info`` string is JSON-quoted and placed last, so
        an info containing ``task=`` / ``pe=`` / ``ticks=`` / ``other=``
        tokens (or any whitespace) survives :meth:`parse` unchanged:
        ``parse(line()) == event`` always holds.
        """
        parts = [f"TRACE {self.etype.value}",
                 f"task={self.task}",
                 f"pe={self.pe}",
                 f"ticks={self.ticks}"]
        if self.other is not None:
            parts.append(f"other={self.other}")
        if self.info:
            parts.append("info=" + json.dumps(self.info))
        return " ".join(parts)

    @classmethod
    def parse(cls, line: str) -> "TraceEvent":
        """Parse a line produced by :meth:`line` (off-line analysis).

        Accepts both the current quoted-info format and legacy lines
        whose info was written as bare trailing tokens.
        """
        # The quoted info marker can only occur where line() wrote it:
        # everything before it is fixed-format fields without spaces or
        # quotes, and any quote *inside* the JSON string is escaped.
        info: Optional[str] = None
        idx = line.find(' info="')
        if idx >= 0:
            head, info = line[:idx], json.loads(line[idx + len(" info="):])
        else:
            head = line
        toks = head.split()
        if len(toks) < 5 or toks[0] != "TRACE":
            raise ValueError(f"not a trace line: {line!r}")
        etype = TraceEventType(toks[1])
        fields: Dict[str, str] = {}
        info_parts: List[str] = []
        for tok in toks[2:]:
            if "=" in tok and tok.split("=", 1)[0] in ("task", "pe", "ticks", "other"):
                k, v = tok.split("=", 1)
                fields[k] = v
            elif tok.startswith("info=") and not info_parts:
                # Legacy unquoted info: strip the marker off the first
                # token; the remainder of the line is the info text.
                info_parts.append(tok[len("info="):])
            else:
                info_parts.append(tok)
        return cls(
            etype=etype,
            task=TaskId.parse(fields["task"]),
            pe=int(fields["pe"]),
            ticks=int(fields["ticks"]),
            info=info if info is not None else " ".join(info_parts),
            other=TaskId.parse(fields["other"]) if "other" in fields else None,
        )


class Tracer:
    """Event filter + sinks.

    By default no event types are enabled (tracing off).  Enabling is
    per event type; additionally, individual tasks can be muted or
    soloed, mirroring "Tracing may be turned on and off for each type of
    event and each task".
    """

    def __init__(self, max_events: Optional[int] = DEFAULT_MAX_EVENTS,
                 strict_overflow: bool = False) -> None:
        self.enabled_types: Set[TraceEventType] = set()
        #: If non-empty, only these tasks are traced.
        self.solo_tasks: Set[TaskId] = set()
        #: These tasks are never traced.
        self.muted_tasks: Set[TaskId] = set()
        #: Ring buffer of the most recent ``max_events`` events
        #: (``max_events=None`` keeps everything -- unbounded).
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        #: Keep events in memory (the monitor's display and the analysis
        #: module read them); can be switched off for long runs.
        self.keep_in_memory = True
        self._file: Optional[IO[str]] = None
        self._screen: Optional[Callable[[str], None]] = None
        self.dropped = 0
        #: Events pushed out of the full ring buffer (still delivered to
        #: the file/screen sinks, only the in-memory copy was lost).
        self.overflow_dropped = 0
        #: When True, ring-buffer overflow raises
        #: :class:`~repro.errors.TraceOverflow` instead of silently
        #: evicting the oldest event.  Consumers that *analyze* the
        #: in-memory stream (schedule recording, race evidence, replay
        #: trace comparison) enable this: a truncated stream would make
        #: their artifacts quietly wrong.
        self.strict_overflow = strict_overflow
        #: Optional MetricsRegistry; overflow events bump the
        #: ``trace_overflow_dropped`` counter when wired.
        self.metrics = None

    # ------------------------------------------------------------ config --

    def enable(self, *etypes: TraceEventType) -> None:
        self.enabled_types.update(etypes or ALL_EVENT_TYPES)

    def enable_all(self) -> None:
        self.enabled_types = set(ALL_EVENT_TYPES)

    def disable(self, *etypes: TraceEventType) -> None:
        if etypes:
            self.enabled_types.difference_update(etypes)
        else:
            self.enabled_types.clear()

    def mute_task(self, task: TaskId) -> None:
        self.muted_tasks.add(task)

    def solo_task(self, task: TaskId) -> None:
        self.solo_tasks.add(task)

    def to_file(self, f: IO[str]) -> None:
        """Send trace lines to an open text file."""
        self._file = f

    def to_screen(self, sink: Callable[[str], None]) -> None:
        """Send trace lines to a screen callback."""
        self._screen = sink

    def describe(self) -> str:
        types = ", ".join(sorted(t.value for t in self.enabled_types)) or "(none)"
        return (f"trace: types [{types}], {len(self.events)} events kept, "
                f"{self.dropped} filtered, {self.overflow_dropped} overflowed")

    # ------------------------------------------------------------- emit --

    def wants(self, etype: TraceEventType, task: TaskId) -> bool:
        if etype not in self.enabled_types:
            return False
        if task in self.muted_tasks:
            return False
        if self.solo_tasks and task not in self.solo_tasks:
            return False
        return True

    def emit(self, event: TraceEvent) -> None:
        if not self.wants(event.etype, event.task):
            self.dropped += 1
            return
        if self.keep_in_memory:
            ev = self.events
            if ev.maxlen is not None and len(ev) == ev.maxlen:
                self.overflow_dropped += 1
                m = self.metrics
                if m is not None and m.enabled:
                    m.counter("trace_overflow_dropped").inc()
                if self.strict_overflow:
                    from ..errors import TraceOverflow
                    raise TraceOverflow(
                        f"trace ring buffer overflowed at {ev.maxlen} "
                        f"events (strict_overflow); raise max_events or "
                        f"narrow the enabled event types")
            ev.append(event)
        if self._file is not None:
            self._file.write(event.line() + "\n")
        if self._screen is not None:
            self._screen(event.line())

    # ------------------------------------------------------------ query --

    def of_type(self, etype: TraceEventType) -> List[TraceEvent]:
        return [e for e in self.events if e.etype is etype]

    def for_task(self, task: TaskId) -> List[TraceEvent]:
        return [e for e in self.events if e.task == task]
