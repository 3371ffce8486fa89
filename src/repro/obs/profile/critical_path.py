"""Critical-path extraction over the profiler's slice/wake record.

The happens-before sources the engine exposes to its hooks -- spawn
edges, wake edges (which carry every barrier release, message arrival,
lock hand-off and force join) and deadline resumptions -- form a DAG
over executed slices.  Walking that DAG *backward* from the run's final
event yields the causal critical path: the one chain of work and wait
segments whose lengths sum exactly to elapsed virtual time.  Shortening
anything off this path cannot shrink the run; the "top segments" table
below is therefore the profiler's what-if answer.

Walk rules (each step covers virtual time [t_lo, t_hi) and lowers
t_hi, so segments tile [0, elapsed] with no gaps or overlaps):

* a slice contributes a **work** segment clipped to the uncovered
  range;
* a deadline resumption (DELAY, disk I/O, window overlap) contributes
  the **wait** up to the deadline -- those waits really bound the run;
* a wake edge jumps to the *waker's* slice containing the wake time:
  the wakee's blocked interval is NOT on the path (the waker bounds
  it), but the work segment that released it is annotated with the
  wait category it resolved, so a barrier-bound run reads as
  "straggler work releasing barrier-wait";
* a wake whose time falls after the waker's slice (message transit
  latency) contributes the transit as a wait of the wakee's category;
* dispatch gaps (runnable but queued behind the PE) contribute
  **dispatch-queue-wait** segments.

Everything here is derived from virtual timestamps and engine dispatch
order only -- wall-clock measurements never influence the path -- so
the path is bit-identical across the ``indexed``/``replay``
dispatchers and the ``fast``/``reference`` window paths.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .profiler import (
    CausalProfiler,
    Slice,
    WAIT_DISPATCH,
    WAIT_FAULT,
    wait_category,
)


@dataclass(frozen=True)
class PathSegment:
    """One segment of the critical path: ``kind`` is ``work`` or
    ``wait``; ``label`` is the task label (work) or wait category
    (wait); ``detail`` carries the block reason or release note."""

    kind: str
    start: int
    end: int
    process: str
    pe: int
    label: str
    detail: str = ""

    @property
    def ticks(self) -> int:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The extracted path plus the run's efficiency summary."""

    segments: List[PathSegment]     # ordered by start, tiling [0, elapsed]
    elapsed: int
    total_work: int                 # sum of all slice costs, every PE
    n_pes: int

    @property
    def path_work_ticks(self) -> int:
        return sum(s.ticks for s in self.segments if s.kind == "work")

    @property
    def path_wait_ticks(self) -> int:
        return sum(s.ticks for s in self.segments if s.kind == "wait")

    @property
    def parallelism(self) -> float:
        """Achieved parallelism: total work / elapsed."""
        return self.total_work / self.elapsed if self.elapsed else 0.0

    @property
    def efficiency(self) -> float:
        """Achieved parallelism over the machine's PE count."""
        return self.parallelism / self.n_pes if self.n_pes else 0.0

    def top_segments(self, n: int = 5) -> List[PathSegment]:
        """The ``n`` longest path segments (the what-if table rows):
        a segment's length is an upper bound on how much elapsed time
        shrinks if it were free."""
        return sorted(self.segments, key=lambda s: (-s.ticks, s.start))[:n]

    def what_if(self, n: int = 5) -> List[Dict[str, Any]]:
        rows = []
        for s in self.top_segments(n):
            saving = s.ticks / self.elapsed if self.elapsed else 0.0
            rows.append({
                "kind": s.kind, "label": s.label, "process": s.process,
                "pe": s.pe, "start": s.start, "end": s.end,
                "ticks": s.ticks, "detail": s.detail,
                "max_elapsed_saving_pct": round(100.0 * saving, 1),
            })
        return rows

    def summary_text(self, top: int = 5) -> str:
        lines = [f"  critical path: {len(self.segments)} segments, "
                 f"work {self.path_work_ticks} "
                 f"wait {self.path_wait_ticks} "
                 f"(of {self.elapsed} elapsed)"]
        lines.append(f"  top {top} path segments (upper-bound elapsed "
                     f"saving if free):")
        for i, row in enumerate(self.what_if(top), 1):
            note = f" ({row['detail']})" if row["detail"] else ""
            lines.append(
                f"    {i}. {row['kind']:<4} {row['label']:<22} "
                f"{row['process']:<18} PE{row['pe']:<3} "
                f"{row['ticks']:>8} ticks  "
                f"-{row['max_elapsed_saving_pct']:.1f}%{note}")
        if len(self.segments) == 0:
            lines.append("    (empty run)")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "elapsed": self.elapsed,
            "total_work": self.total_work,
            "n_pes": self.n_pes,
            "parallelism": round(self.parallelism, 4),
            "efficiency": round(self.efficiency, 4),
            "path_work_ticks": self.path_work_ticks,
            "path_wait_ticks": self.path_wait_ticks,
            "what_if_top5": self.what_if(5),
            "segments": [{
                "kind": s.kind, "start": s.start, "end": s.end,
                "process": s.process, "pe": s.pe, "label": s.label,
                "detail": s.detail,
            } for s in self.segments],
        }


class _Walker:
    """Backward walk state: emits segments with a falling cover bound
    ``t_hi`` so the output tiles [0, elapsed] exactly."""

    def __init__(self, elapsed: int):
        self.t_hi = elapsed
        self.segments: List[PathSegment] = []
        self.release_note = ""      # annotation for the next work segment

    def emit(self, kind: str, t_lo: int, process: str, pe: int,
             label: str, detail: str = "") -> None:
        t_lo = max(0, t_lo)
        if t_lo < self.t_hi:
            self.segments.append(PathSegment(
                kind=kind, start=t_lo, end=self.t_hi, process=process,
                pe=pe, label=label, detail=detail))
            self.t_hi = t_lo
        else:
            self.t_hi = min(self.t_hi, max(t_lo, 0))


def _slice_index(slices: List[Slice], t: int) -> Optional[int]:
    """Index of the latest slice with start <= t (None if t predates
    the process's first slice)."""
    starts = [s.start for s in slices]
    i = bisect.bisect_right(starts, t) - 1
    return i if i >= 0 else None


def extract_critical_path(prof: CausalProfiler,
                          elapsed: Optional[int] = None) -> CriticalPath:
    """Walk the HB DAG backward from the final slice to the run start."""
    by_pid: Dict[int, List[Slice]] = {
        r.pid: r.slices for r in prof.processes() if r.slices}
    all_slices = prof.slices()
    n_pes = len({s.pe for s in all_slices}) or 1
    total_work = prof.total_work()
    # Callers pass RunResult.elapsed, which can be a numpy integer when
    # a task charged array sizes of its own; the path holds plain ints.
    elapsed = prof.elapsed() if elapsed is None else int(elapsed)
    if not all_slices or elapsed <= 0:
        return CriticalPath(segments=[], elapsed=elapsed or 0,
                            total_work=total_work, n_pes=n_pes)

    # Final event: the slice with the greatest end tick; ties resolved
    # by engine dispatch-completion order (seq), which is itself part of
    # the deterministic virtual history.
    last = max(all_slices, key=lambda s: (s.end, s.seq))
    w = _Walker(elapsed)
    cur: Optional[Tuple[List[Slice], int]] = (
        by_pid[last.pid], by_pid[last.pid].index(last))
    visited = set()
    budget = 2 * len(all_slices) + 16

    while cur is not None and w.t_hi > 0 and budget > 0:
        budget -= 1
        slices, i = cur
        s = slices[i]
        if (s.pid, i) in visited:
            break
        visited.add((s.pid, i))
        label = s.name.partition("@")[0]
        w.emit("work", s.start, s.name, s.pe, label, w.release_note)
        w.release_note = ""
        cur = _predecessor(w, prof, by_pid, slices, i, s)

    if w.t_hi > 0:
        # Uncovered prefix (bootstrap before the first recorded slice).
        w.emit("wait", 0, "(startup)", -1, WAIT_DISPATCH, "run start")
    segs = list(reversed(w.segments))
    return CriticalPath(segments=segs, elapsed=elapsed,
                        total_work=total_work, n_pes=n_pes)


def _predecessor(w: _Walker, prof: CausalProfiler,
                 by_pid: Dict[int, List[Slice]],
                 slices: List[Slice], i: int, s: Slice,
                 ) -> Optional[Tuple[List[Slice], int]]:
    """Emit the wait segments between slice ``s`` and its causal
    predecessor, and return that predecessor's (slices, index)."""
    cause = s.cause
    kind = cause[0]
    own_prev = (slices, i - 1) if i > 0 else None

    if kind == "spawn":
        _, parent_pid, ready_at = cause
        w.emit("wait", ready_at, s.name, s.pe, WAIT_DISPATCH, "spawn queue")
        if parent_pid is not None and parent_pid in by_pid:
            j = _slice_index(by_pid[parent_pid], w.t_hi)
            if j is not None:
                return (by_pid[parent_pid], j)
        return own_prev

    if kind == "ready":
        _, prev_end, reason = cause
        cat = WAIT_FAULT if reason == "killed" else WAIT_DISPATCH
        w.emit("wait", prev_end, s.name, s.pe, cat, reason or "preempted")
        return own_prev

    if kind == "timeout":
        _, resume, reason, t_block = cause
        w.emit("wait", resume, s.name, s.pe, WAIT_DISPATCH, "queued")
        w.emit("wait", t_block, s.name, s.pe, wait_category(reason), reason)
        return own_prev

    if kind == "killed":
        _, reason, t_block, t_kill = cause
        w.emit("wait", t_kill, s.name, s.pe, WAIT_FAULT, "killed")
        w.emit("wait", t_block, s.name, s.pe, wait_category(reason), reason)
        return own_prev

    if kind == "woken":
        _, reason, t_block, t_wake, waker_pid = cause
        cat = wait_category(reason)
        w.emit("wait", t_wake, s.name, s.pe, WAIT_DISPATCH, "queued")
        waker_slices = by_pid.get(waker_pid) if waker_pid is not None else None
        j = (_slice_index(waker_slices, t_wake)
             if waker_slices is not None else None)
        if j is not None and waker_slices[j].start == t_wake \
                and waker_slices[j].end > t_wake:
            # A slice that *begins* at the wake instant and runs past it
            # executes after the wake (it may itself be downstream of
            # this very wait, a cycle): the wake was performed at the
            # boundary, i.e. at the end of the waker's previous slice.
            j = j - 1 if j > 0 else None
        if j is None:
            # External wake (monitor / fault pump): nothing bounds the
            # wait but the wait itself.
            w.emit("wait", t_block, s.name, s.pe, cat, reason)
            return own_prev
        ws = waker_slices[j]
        if t_wake > ws.end:
            # Message transit: the wake lands after the waker's slice.
            w.emit("wait", ws.end, s.name, s.pe, cat,
                   f"{reason} (transit)")
        w.release_note = f"released {cat} of {s.name}"
        return (waker_slices, j)

    return own_prev
