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
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

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
    #: record alone identifies how the run executed (dispatcher, window
    #: path, task bodies, fault plan -- see obs/export.py).
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


class RunStore:
    """On-disk run store.  All mutation goes through :meth:`transition`
    / :meth:`amend` under one lock; reads return immutable records."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._cache: Dict[str, RunRecord] = {}
        self._next_seq = 1
        self._load_all()

    # ------------------------------------------------------------ paths --

    def run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    def record_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "record.json"

    def checkpoint_dir(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "checkpoints"

    def artifacts_dir(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "artifacts"

    # ------------------------------------------------------------- boot --

    def _load_all(self) -> None:
        for rec_path in sorted(self.runs_dir.glob("*/record.json")):
            try:
                with rec_path.open() as f:
                    rec = RunRecord.from_dict(json.load(f))
            except (OSError, ValueError, KeyError, TypeError,
                    InvalidRunSpec):
                continue      # torn tmp leftovers etc.: not a record
            self._cache[rec.run_id] = rec
            self._next_seq = max(self._next_seq, rec.seq + 1)

    def recover(self) -> List[RunRecord]:
        """Re-queue every run a previous service life left unfinished.

        Returns the recovered records (now QUEUED, ``recovered`` bumped).
        Their ``checkpoints/`` directories are left intact -- the
        executor prefers checkpoint-resume over a fresh start.
        """
        recovered = []
        with self._lock:
            for rec in list(self._cache.values()):
                if rec.state in LIVE_STATES and rec.state != QUEUED:
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
        self._cache[rec.run_id] = rec

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

    def get(self, run_id: str) -> RunRecord:
        with self._lock:
            try:
                return self._cache[run_id]
            except KeyError:
                raise UnknownRun(f"no run {run_id!r}") from None

    def list(self, tenant: Optional[str] = None,
             state: Optional[str] = None) -> List[RunRecord]:
        with self._lock:
            recs = sorted(self._cache.values(), key=lambda r: r.seq)
        if tenant is not None:
            recs = [r for r in recs if r.tenant == tenant]
        if state is not None:
            recs = [r for r in recs if r.state == state]
        return recs

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted({r.tenant for r in self._cache.values()})

    def list_artifacts(self, run_id: str) -> List[str]:
        self.get(run_id)                      # raise UnknownRun first
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
