"""The persistent run store: one directory per run, JSON as truth.

Layout under the store root::

    runs/
      r000001/
        record.json          <- the run record (atomic writes)
        checkpoints/         <- periodic .pckpt bundles (if enabled)
        artifacts/           <- export_run bundle, trace JSONL, races,
                                fault events, .psched ... written at exit

The **record** is the run's state machine:

    QUEUED -> ADMITTED -> RUNNING -> DONE | FAILED | KILLED

Only the service process writes records; everything is written
atomically (tmp file + ``os.replace``) so a ``kill -9`` can never leave
a half-written record -- the worst case is a record one transition
stale, which the boot rescan repairs.

**Crash safety** is the store's defining feature: :meth:`recover`
walks every run directory at boot; any run found QUEUED/ADMITTED/
RUNNING belongs to a previous life of the service and is re-queued
with ``recovered`` incremented.  Runs that were checkpointing also
keep their ``checkpoints/`` directory, so the executor can resume from
``find_latest_checkpoint`` instead of starting over.

**Residency** follows the live queue, not the history (the paper's
system tables are fixed-size slot records, section 11).  Boot still
parses and validates every ``record.json``, but keeps a full
:class:`RunRecord` in memory only for live runs (QUEUED/ADMITTED/
RUNNING).  Every run also has a compact seq-ordered summary
``run_id -> (seq, tenant, state)``.  Queries for a live state walk
only the live records; :meth:`get` and terminal or unfiltered
:meth:`list` read terminal records back from disk, which stays the
only source of truth.  Run ids come from the highest seq among both
the valid records and the ``r<seq>`` directory names, so a torn
record never lends its id -- or its ``artifacts/`` and
``checkpoints/`` -- to a new run.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import InvalidRunSpec, ServiceError, UnknownRun
from .spec import RunSpec

QUEUED = "QUEUED"
ADMITTED = "ADMITTED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
KILLED = "KILLED"

#: States a run can still move out of.
LIVE_STATES = (QUEUED, ADMITTED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, KILLED)
STATES = LIVE_STATES + TERMINAL_STATES

_TRANSITIONS = {
    QUEUED: (ADMITTED, KILLED),
    ADMITTED: (RUNNING, QUEUED, KILLED),
    RUNNING: (DONE, FAILED, KILLED),
    DONE: (), FAILED: (), KILLED: (),
}


@dataclass(frozen=True)
class RunRecord:
    """One run's persistent record (the JSON in ``record.json``)."""

    run_id: str
    tenant: str
    spec: RunSpec
    state: str = QUEUED
    #: Store-wide submission sequence number (fair-share tie-break and
    #: FIFO order within a tenant survive restarts through this).
    seq: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: How many service lives this run was interrupted by (0 = never).
    recovered: int = 0
    #: Checkpoint bundle name the current/last execution resumed from.
    resumed_from: Optional[str] = None
    #: Exit information, filled at the terminal transition: ``outcome``
    #: mirrors the state; ``elapsed_ticks`` is the virtual time (the
    #: determinism contract's observable); ``value`` is a repr snippet;
    #: ``error`` the exception text for FAILED.
    exit: Dict[str, Any] = field(default_factory=dict)
    #: Archived artifact filenames (relative to ``artifacts/``).
    artifacts: List[str] = field(default_factory=list)
    #: Execution provenance mirrored from the run manifest so the
    #: record alone identifies how the run executed (dispatcher, build
    #: version, fault plan -- see obs/export.py).
    provenance: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        d = dict(self.__dict__)
        d["spec"] = self.spec.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunRecord":
        d = dict(d)
        d["spec"] = RunSpec.from_dict(d["spec"])
        return cls(**d)

    @property
    def is_live(self) -> bool:
        return self.state in LIVE_STATES


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


#: What a ``record.json`` that is not a valid record raises on read.
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, InvalidRunSpec)

#: Run directory names (``r<seq>``); their seq is never handed out again.
_RUN_DIR = re.compile(r"r([0-9]{1,18})")

#: Per-run summary: (seq, tenant, state).
_Summary = Tuple[int, str, str]


def _read_record(path: str) -> RunRecord:
    # One binary read: finished runs are read back on every query.
    with open(path, "rb") as f:
        return RunRecord.from_dict(json.loads(f.read()))


def _intern(v: Any) -> Any:
    # Thousands of summaries share a handful of tenant and state names.
    return sys.intern(v) if type(v) is str else v


def _summary(rec: RunRecord) -> _Summary:
    return rec.seq, _intern(rec.tenant), _intern(rec.state)


class RunStore:
    """On-disk run store.  All mutation goes through :meth:`transition`
    / :meth:`amend` under one lock; reads return immutable records."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self._runs_path = os.fspath(self.runs_dir)
        self._lock = threading.RLock()
        #: Every run's summary, in seq order.
        self._index: Dict[str, _Summary] = {}
        #: Full records of the live runs only, in seq order.
        self._live: Dict[str, RunRecord] = {}
        self._next_seq = 1
        self._load_all()

    # ------------------------------------------------------------ paths --

    def run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    def record_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "record.json"

    def _record_file(self, run_id: str) -> str:
        # A string join: boot and every finished-run query build one.
        return f"{self._runs_path}{os.sep}{run_id}{os.sep}record.json"

    def checkpoint_dir(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "checkpoints"

    def artifacts_dir(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "artifacts"

    # ------------------------------------------------------------- boot --

    def _load_all(self) -> None:
        with os.scandir(self._runs_path) as entries:
            names = sorted(e.name for e in entries)
        index: Dict[str, _Summary] = {}
        live: Dict[str, RunRecord] = {}
        for name in names:
            m = _RUN_DIR.fullmatch(name)
            if m:
                self._next_seq = max(self._next_seq, int(m.group(1)) + 1)
            try:
                rec = _read_record(self._record_file(name))
            except _UNREADABLE:
                continue      # torn tmp leftovers etc.: not a record
            index[rec.run_id] = _summary(rec)
            if rec.is_live:
                live[rec.run_id] = rec
            self._next_seq = max(self._next_seq, rec.seq + 1)
        # Sorted by seq once here; later writes keep the order, since a
        # new run always takes the highest seq.
        for run_id in sorted(index, key=lambda r: index[r][0]):
            self._index[run_id] = index[run_id]
            if run_id in live:
                self._live[run_id] = live[run_id]

    def recover(self) -> List[RunRecord]:
        """Re-queue every run a previous service life left unfinished.

        Returns the recovered records (now QUEUED, ``recovered`` bumped).
        Their ``checkpoints/`` directories are left intact -- the
        executor prefers checkpoint-resume over a fresh start.
        """
        recovered = []
        with self._lock:
            for rec in list(self._live.values()):
                if rec.state != QUEUED:
                    rec = replace(rec, state=QUEUED,
                                  recovered=rec.recovered + 1,
                                  started_at=None)
                    self._persist(rec)
                    recovered.append(rec)
                # Runs already QUEUED need nothing: they never started,
                # so the admission scheduler just picks them up again.
        return recovered

    # ------------------------------------------------------------ write --

    def _persist(self, rec: RunRecord) -> None:
        self.run_dir(rec.run_id).mkdir(parents=True, exist_ok=True)
        _atomic_write_json(self.record_path(rec.run_id), rec.to_dict())
        self._index[rec.run_id] = _summary(rec)
        if rec.is_live:
            self._live[rec.run_id] = rec
        else:
            self._live.pop(rec.run_id, None)

    def create(self, tenant: str, spec: RunSpec) -> RunRecord:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            rec = RunRecord(run_id=f"r{seq:06d}", tenant=tenant, spec=spec,
                            state=QUEUED, seq=seq, submitted_at=time.time())
            self._persist(rec)
            self.artifacts_dir(rec.run_id).mkdir(exist_ok=True)
            return rec

    def transition(self, run_id: str, new_state: str,
                   **amend: Any) -> RunRecord:
        """Move a run to ``new_state`` (validating the state machine)
        and merge ``amend`` fields, atomically."""
        with self._lock:
            rec = self.get(run_id)
            if new_state not in _TRANSITIONS[rec.state]:
                raise ServiceError(
                    f"run {run_id}: illegal transition "
                    f"{rec.state} -> {new_state}")
            rec = replace(rec, state=new_state, **amend)
            self._persist(rec)
            return rec

    def amend(self, run_id: str, **fields: Any) -> RunRecord:
        """Merge fields into a record without changing its state."""
        with self._lock:
            rec = replace(self.get(run_id), **fields)
            self._persist(rec)
            return rec

    # ------------------------------------------------------------- read --

    def _known(self, run_id: str) -> None:
        if run_id not in self._index:
            raise UnknownRun(f"no run {run_id!r}")

    def get(self, run_id: str) -> RunRecord:
        """The run's record: live runs from memory, finished runs from
        their ``record.json``.  A record that became unreadable since
        boot raises :class:`UnknownRun`, as it would after a restart."""
        with self._lock:
            rec = self._live.get(run_id)
            if rec is not None:
                return rec
            self._known(run_id)
            try:
                return _read_record(self._record_file(run_id))
            except _UNREADABLE as e:
                raise UnknownRun(
                    f"run {run_id!r}: record unreadable ({e})") from None

    def list(self, tenant: Optional[str] = None,
             state: Optional[str] = None) -> List[RunRecord]:
        """Records in seq order, optionally of one tenant and/or state.

        A live state is answered from memory.  Otherwise finished runs
        are read from disk, skipping any record that became unreadable
        since boot (as boot itself would)."""
        if state is not None and state not in STATES:
            raise InvalidRunSpec(
                f"unknown run state {state!r} "
                f"(want one of {', '.join(STATES)})")
        with self._lock:
            if state in LIVE_STATES:
                return [r for r in self._live.values()
                        if r.state == state
                        and (tenant is None or r.tenant == tenant)]
            recs = []
            for run_id, (_, t, s) in self._index.items():
                if (tenant is not None and t != tenant) \
                        or (state is not None and s != state):
                    continue
                rec = self._live.get(run_id)
                if rec is None:
                    try:
                        rec = _read_record(self._record_file(run_id))
                    except _UNREADABLE:
                        continue
                recs.append(rec)
            return recs

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted({t for _, t, _ in self._index.values()})

    def list_artifacts(self, run_id: str) -> List[str]:
        with self._lock:
            self._known(run_id)               # raise UnknownRun first
        d = self.artifacts_dir(run_id)
        if not d.is_dir():
            return []
        return sorted(p.name for p in d.iterdir() if p.is_file())

    def artifact_path(self, run_id: str, name: str) -> Path:
        """Resolve one artifact, refusing path escapes."""
        d = self.artifacts_dir(run_id).resolve()
        p = (d / name).resolve()
        if d not in p.parents or not p.is_file():
            raise UnknownRun(f"run {run_id}: no artifact {name!r}")
        return p
