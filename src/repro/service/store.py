"""The persistent run store: one directory per run, JSON as truth.

Layout under the store root::

    runs/
      r000001/
        record.json          <- the run record (atomic writes)
        checkpoints/         <- periodic .pckpt bundles (if enabled)
        artifacts/           <- export_run bundle, trace JSONL, races,
                                fault events, .psched ... written at exit

The **record** is the run's state machine, one live state per place a
run can be (waiting for a worker, or on one):

    QUEUED -> RUNNING -> DONE | FAILED | KILLED

Admission moves a run to RUNNING, stamping ``started_at``, when it
hands the run to a worker; a run whose VM then fails to build goes
from RUNNING to FAILED.  A queued run whose plan no longer builds, or
no longer fits its tenant's ``pe_budget``, goes straight from QUEUED
to FAILED.
Only the service process writes records.  Every file under the root
goes through :mod:`repro.util.durable` (tmp file, fsync,
``os.replace``, directory fsync: two fsyncs per file), so a ``kill -9``
never leaves a half-written file -- the worst case is a record one
transition stale, which the boot rescan repairs.

**Crash safety** is the store's defining feature: :meth:`recover`
walks every run directory at boot; any run found RUNNING belongs to a
previous life of the service and is re-queued with ``recovered``
incremented.  Runs that were checkpointing also
keep their ``checkpoints/`` directory, so the executor can resume from
``find_latest_checkpoint`` instead of starting over.  It deletes the
``.tmp`` files a crash left under those runs, in run directories
without a record and beside the index, but never visits a finished
run: no write follows the terminal one.

**Residency** follows the live queue, not the history (the paper's
system tables are fixed-size slot records, section 11).  A full
:class:`RunRecord` stays in memory only for live runs (QUEUED/
RUNNING).  Every run has a 13-byte row in three packed seq-ordered
columns: its seq (its id is ``r{seq:06d}``, found by bisection), a
tenant code into a table of tenant names and a state code.  Queries
for a live state walk only the live records; :meth:`get` and terminal
or unfiltered :meth:`list` read terminal records back from disk, which
stays the only source of truth.  A record is a run only if its
``run_id`` names its own directory and equals ``r{seq:06d}``, as
:meth:`create` writes it.  Run ids come from the highest seq among the
valid records and the ``r<seq>`` directory names, so a torn record,
or one that is no run, never lends its id -- or its ``artifacts/``
and ``checkpoints/`` -- to a new run.

**Boot** re-parses only what may have changed, and fills the columns
in one pass over the run directories in seq order.  A finished record
never changes (no transition leaves a terminal state), so boot keeps a
plain-text cache of the finished runs it has validated, ``runs.index``
at the store root.  It holds one ``run_id seq tenant state size
mtime_ns crc`` line per run, ``crc`` being the CRC-32 of the rest of
the line.  Boot stats every ``record.json``: when its size and mtime
equal the line's, the row comes from the line; otherwise, and always
for live runs, the record is parsed and validated.  A line is trusted
only if its mtime is older than the index file's own, so a record
rewritten within one file-clock tick of the index write is parsed
again (git's "racy" rule).  The index is disposable: a missing, torn
or garbled index costs only a full parse of the runs it does not vouch
for, and boot rewrites it (atomically, ignoring write errors) whenever
its content would change.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import InvalidRunSpec, ServiceError, UnknownRun
from ..util.durable import durable_write
from .spec import RunSpec

QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
KILLED = "KILLED"

#: States a run can still move out of.
LIVE_STATES = (QUEUED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, KILLED)
STATES = LIVE_STATES + TERMINAL_STATES

_TRANSITIONS = {
    QUEUED: (RUNNING, KILLED, FAILED),
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
    #: record alone identifies how the run executed (build version,
    #: fault plan -- see obs/export.py).
    provenance: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        d = dict(self.__dict__)
        d["spec"] = self.spec.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunRecord":
        d = dict(d)
        if type(d.get("seq", 0)) is not int:
            # Not bool either: ``true`` would pass as seq 1.
            raise TypeError(f"seq must be an integer, not {d['seq']!r}")
        d["spec"] = RunSpec.from_dict(d["spec"])
        if d.get("state") == "ADMITTED":
            # Older builds' state for a run picked but not yet booted:
            # it was on a worker already, so recovery re-queues it.
            d["state"] = RUNNING
        return cls(**d)

    @property
    def is_live(self) -> bool:
        return self.state in LIVE_STATES


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    durable_write(path, (json.dumps(payload, indent=1, sort_keys=True)
                         + "\n").encode())


#: What a ``record.json`` that is not a valid record raises on read.
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, InvalidRunSpec)

#: Run directory names (``r<seq>``); their seq is never handed out again.
_RUN_DIR = re.compile(r"r([0-9]{1,18})")

#: The boot index's file name, at the store root (not under ``runs/``,
#: whose every entry is taken for a run directory).
INDEX_NAME = "runs.index"

#: A ``record.json``'s (size, mtime_ns): what an index line vouches for.
_Stamp = Tuple[int, int]


def _read_record(path: str) -> RunRecord:
    # One binary read: finished runs are read back on every query.
    with open(path, "rb") as f:
        return RunRecord.from_dict(json.loads(f.read()))


def _parse_index_line(line: bytes) -> Tuple[str, int, str, str, _Stamp]:
    """One index line back to its fields; ValueError if it is not one."""
    body, _, crc = line.rpartition(b" ")
    if zlib.crc32(body) != int(crc, 16):
        raise ValueError("index line fails its checksum")
    run_id, seq, tenant, state, size, mtime_ns = body.decode().split()
    if state not in TERMINAL_STATES:
        raise ValueError(f"not a finished state: {state!r}")
    return run_id, int(seq), tenant, state, (int(size), int(mtime_ns))


def _index_line(rec: RunRecord, stamp: _Stamp) -> Optional[bytes]:
    """A finished run's index line, or None when the line would not read
    back as its fields (a tenant with whitespace, say): boot then
    always parses that run."""
    fields = (rec.run_id, rec.seq, rec.tenant, rec.state, stamp)
    try:
        body = " ".join(map(str, fields[:4] + stamp)).encode()
        line = b"%s %08x" % (body, zlib.crc32(body))
        if _parse_index_line(line) == fields:
            return line
    except ValueError:
        pass
    return None


def _vouched(line: bytes, name: str, seq: int, stamp: _Stamp,
             written_ns: int) -> Optional[Tuple[str, str]]:
    """The (tenant, state) an index ``line`` holds for run ``seq`` in
    directory ``name``, if the line is intact, names that run, carries
    the stamp of its ``record.json`` now and is older than the index
    (written at ``written_ns``): a record rewritten in the clock tick
    the index was written in could keep its stamp."""
    try:
        run_id, was_seq, tenant, state, was = _parse_index_line(line)
    except ValueError:
        return None
    ok = (run_id, was_seq, was) == (name, seq, stamp) and stamp[1] < written_ns
    return (tenant, state) if ok else None


class RunStore:
    """On-disk run store.  All mutation goes through :meth:`transition`
    / :meth:`amend` under one lock; reads return immutable records."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self._runs_path = os.fspath(self.runs_dir)
        self._lock = threading.RLock()
        #: Every run's row, in seq order: seq, tenant code (a key's place
        #: in ``_tenants``) and state code (a place in STATES).
        self._seqs, self._tenant_of = array("q"), array("I")
        self._state_of = bytearray()
        self._tenants: Dict[str, int] = {}
        self._next_seq = 1
        #: Full records of the live runs only, in seq order.
        self._live: Dict[str, RunRecord] = {}
        #: Run directories without a record (a crash inside a submit).
        self._unrecorded: List[str] = []
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
        names.sort(key=len)     # seq order: r999999 before r1000000
        index_path = self.root / INDEX_NAME
        try:
            with open(index_path, "rb") as f:
                written_ns = os.fstat(f.fileno()).st_mtime_ns
                old = f.read().split(b"\n")
        except OSError:
            written_ns, old = 0, [b""]  # a missing index reads as empty
        by_name = {line.partition(b" ")[0].decode(errors="replace"): line
                   for line in old}
        lines = []                    # the index the next boot reads
        # Whether a line of ``old`` went unused.  A line too new to trust
        # comes out the same, but rewriting it moves the index's mtime on.
        stale = False
        tenants = self._tenants
        for name in names:
            m = _RUN_DIR.fullmatch(name)
            seq = int(m.group(1)) if m else 0
            self._next_seq = max(self._next_seq, seq + 1)
            path = self._record_file(name)
            try:
                st = os.stat(path)
            except OSError:
                self._unrecorded.append(name)
                continue      # no record here: not a run directory
            stamp = (st.st_size, st.st_mtime_ns)
            # Only directory r{seq:06d} can hold a run: create names it.
            is_run = name == f"r{seq:06d}"
            line = by_name.get(name) if is_run else None
            row = (None if line is None
                   else _vouched(line, name, seq, stamp, written_ns))
            if row is None:
                stale = stale or line is not None
                try:
                    rec = _read_record(path)
                except _UNREADABLE:
                    continue  # a torn record: not a run
                self._next_seq = max(self._next_seq, rec.seq + 1)
                if not is_run or (rec.run_id, rec.seq) != (name, seq):
                    continue  # a record naming another run: not a run
                row, line = (rec.tenant, rec.state), None
                if rec.is_live:
                    self._live[name] = rec
                else:
                    line = _index_line(rec, stamp)
            if line is not None:
                lines.append(line)
            self._seqs.append(seq)
            self._tenant_of.append(tenants.setdefault(row[0], len(tenants)))
            self._state_of.append(STATES.index(row[1]))
        lines.append(b"")             # the final newline, as split() reads
        if stale or lines != old:
            try:
                durable_write(index_path, b"\n".join(lines))
            except OSError:
                pass          # costs the next boot some parsing, no more

    def recover(self) -> List[RunRecord]:
        """Re-queue every run a previous service life left unfinished.

        Returns the recovered records (now QUEUED, ``recovered`` bumped).
        Their ``checkpoints/`` directories are left intact -- the
        executor prefers checkpoint-resume over a fresh start.  The
        ``.tmp`` files a crash left are deleted (see the module doc).
        """
        recovered = []
        with self._lock:
            for name in self._unrecorded + list(self._live):
                for tmp in self.run_dir(name).rglob("*.tmp"):
                    tmp.unlink(missing_ok=True)
            (self.root / f"{INDEX_NAME}.tmp").unlink(missing_ok=True)
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
        i = bisect_left(self._seqs, rec.seq)
        if i == len(self._seqs):    # a new run: it takes the highest seq
            self._seqs.append(rec.seq)
            self._tenant_of.append(0)
            self._state_of.append(0)
        self._tenant_of[i] = self._tenants.setdefault(rec.tenant,
                                                      len(self._tenants))
        self._state_of[i] = STATES.index(rec.state)
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
        m = _RUN_DIR.fullmatch(run_id)
        seq = int(m.group(1)) if m else 0
        i = bisect_left(self._seqs, seq)
        if run_id != f"r{seq:06d}" or seq not in self._seqs[i:i + 1]:
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
            want_t = None if tenant is None else self._tenants.get(tenant, -1)
            want_s = None if state is None else STATES.index(state)
            recs = []
            for seq, t, s in zip(self._seqs, self._tenant_of, self._state_of):
                if want_t not in (None, t) or want_s not in (None, s):
                    continue
                run_id = f"r{seq:06d}"
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
            return sorted(self._tenants)

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
