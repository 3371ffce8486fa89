"""The run service: store + admission + worker pool, one object.

:class:`RunService` is the in-process core that the REST layer (and
tests) drive.  Lifecycle::

    svc = RunService(root)      # opens the store, recovers a crash
    svc.start()                 # spawns the worker pool
    rec = svc.submit("alice", {"app": "jacobi"})
    ...
    svc.stop()

Workers are *pull*-model: each loops asking the admission scheduler
for the next fair-share pick whenever it is free, so admission
decisions always see the true current load, and a freed slot is
refilled immediately (the condition variable wakes on submit and on
run completion).  A pick is RUNNING from its admission on: a record is
either waiting for a worker (QUEUED) or on one.  Everything a worker
executes goes through :func:`repro.service.executor.execute_run` with
the run's held plan; the service only tracks the live
:class:`ExecutionHandle` so kill and the live status / metrics / trace
queries can reach the running VM.
"""

from __future__ import annotations

import re
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Tuple,
                    Union)

from ..errors import InvalidRunSpec, ServiceError, UnknownRun
from . import catalog
from .admission import DEFAULT_QUOTA, AdmissionScheduler, TenantQuota
from .spec import RunSpec
from .store import KILLED, QUEUED, RunRecord, RunStore, TERMINAL_STATES

if TYPE_CHECKING:
    from ..core.vm import AppPlan
    from .executor import ExecutionHandle

_TENANT_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def execute_run(rec: RunRecord, store: RunStore, handle: ExecutionHandle,
                plan: AppPlan) -> RunRecord:
    """:func:`repro.service.executor.execute_run`, imported at the first
    run: the executor brings the engine, so a boot does not load it."""
    with catalog.IMPORT_LOCK:
        from .executor import execute_run as execute
    return execute(rec, store, handle, plan)


class RunService:
    """Queue, admit, execute and archive runs for many tenants."""

    def __init__(self, root: Union[str, Path], n_workers: int = 4,
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 default_quota: TenantQuota = DEFAULT_QUOTA,
                 quantum: int = 8) -> None:
        self.root = Path(root)
        self.n_workers = n_workers
        self.store = RunStore(self.root)
        #: Runs a previous service life left unfinished, re-queued at
        #: construction (before any worker can race the rescan).
        self.recovered: List[RunRecord] = self.store.recover()
        self.admission = AdmissionScheduler(self.store, quotas=quotas,
                                            default_quota=default_quota,
                                            quantum=quantum)
        self._cv = threading.Condition()
        self._handles: Dict[str, ExecutionHandle] = {}
        self._workers: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False

    # -------------------------------------------------------- lifecycle --

    def start(self) -> "RunService":
        if self._started:
            return self
        self._started = True
        for i in range(self.n_workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"pisces-svc-worker-{i}", daemon=True)
            t.start()
            self._workers.append(t)
        return self

    def stop(self, timeout: float = 30.0, kill_live: bool = False) -> None:
        """Stop accepting work and join the pool.  ``kill_live`` also
        kills executing runs (otherwise they finish first)."""
        self._stop.set()
        with self._cv:
            if kill_live:
                for h in self._handles.values():
                    h.kill()
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for t in self._workers:
            t.join(max(0.0, deadline - time.monotonic()))
        self._started = False

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            claimed = self.claim()
            if claimed is not None:
                self.run_claimed(*claimed)

    def claim(self) -> Optional[Tuple[RunRecord, ExecutionHandle, AppPlan]]:
        """Admit the next fair-share pick for this worker (its record
        goes RUNNING): the record, a registered execution handle and its
        plan.  None, after a bounded wait, when nothing is admissible or
        the store could not record the admission; the run then stays
        QUEUED, since a failed store write changes no record."""
        with self._cv:
            rec = None
            if not self._stop.is_set():
                try:
                    rec = self.admission.select()
                except Exception:
                    # A full disk, say.  The worker lives on and the
                    # next pick retries once writes succeed.
                    print("pisces service: admission not recorded",
                          file=sys.stderr)
                    traceback.print_exc()
            if rec is None:
                # Sleep until a submit/finish (bounded, so stop() is
                # never waited out and a failing store is not spun on).
                self._cv.wait(timeout=0.2)
                return None
            plan = self.admission.plan(rec)
            with catalog.IMPORT_LOCK:
                from .executor import ExecutionHandle
            handle = ExecutionHandle(rec.run_id, threading.Event())
            self._handles[rec.run_id] = handle
            return rec, handle, plan

    def run_claimed(self, rec: RunRecord, handle: ExecutionHandle,
                    plan: AppPlan) -> None:
        """Execute a claimed run to its outcome, then free its handle."""
        try:
            execute_run(rec, self.store, handle, plan)
        except Exception:
            # The store could not record the outcome (a full disk,
            # say).  The worker lives on to serve later runs.
            print(f"pisces service: run {rec.run_id}: outcome not "
                  f"recorded", file=sys.stderr)
            traceback.print_exc()
        finally:
            with self._cv:
                self._handles.pop(rec.run_id, None)
                self._cv.notify_all()

    # ----------------------------------------------------------- submit --

    def submit(self, tenant: str,
               spec: Union[RunSpec, Dict[str, Any]]) -> RunRecord:
        """Validate, quota-check and enqueue one run."""
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise InvalidRunSpec(
                f"bad tenant name {tenant!r} (want [A-Za-z0-9][A-Za-z0-9_.-]*,"
                f" max 64 chars)")
        if not isinstance(spec, RunSpec):
            spec = RunSpec.from_dict(spec)
        plan = catalog.build(spec)        # reject unbuildable specs now
        # One step, so concurrent submits cannot all pass the quota
        # check, and no worker selects a run without a plan.
        with self._cv:
            self.admission.check_submit(tenant, plan)  # QuotaExceeded -> 429
            rec = self.store.create(tenant, spec)
            self.admission.hold(rec.run_id, plan)
            self._cv.notify_all()
        return rec

    # ------------------------------------------------------------- kill --

    def kill(self, run_id: str) -> RunRecord:
        """Kill a run in any live state (idempotent on terminal runs).

        A queued run dies immediately; a running run's kill lands after
        its current engine slice, where the run's kill-check observer
        fires -- poll :meth:`get_run` (or use the client's ``wait``)
        for the KILLED record.
        """
        rec = self.store.get(run_id)
        if rec.state in TERMINAL_STATES:
            return rec
        with self._cv:
            handle = self._handles.get(run_id)
            if handle is not None:
                handle.kill()
                return self.store.get(run_id)
            rec = self.store.get(run_id)
            if rec.state in TERMINAL_STATES:
                return rec
            # Not on a worker: QUEUED.
            return self.store.transition(
                run_id, KILLED, finished_at=time.time(),
                exit={"outcome": "killed", "detail": "killed while queued"})

    # ------------------------------------------------------------ reads --

    def get_run(self, run_id: str) -> RunRecord:
        return self.store.get(run_id)

    def list_runs(self, tenant: Optional[str] = None,
                  state: Optional[str] = None) -> List[RunRecord]:
        return self.store.list(tenant=tenant, state=state)

    def usage(self, tenant: str) -> Dict[str, int]:
        return self.admission.usage(tenant)

    def health(self) -> Dict[str, Any]:
        with self._cv:
            live = sorted(self._handles)
        return {
            "status": "ok" if self._started else "stopped",
            "workers": self.n_workers,
            "live_runs": live,
            "queued": len(self.store.list(state=QUEUED)),
            "tenants": self.store.tenants(),
            "apps": list(catalog.app_names()),
            "recovered_runs": [r.run_id for r in self.recovered],
        }

    # ------------------------------------------------- live observability --

    def _live_vm(self, run_id: str):
        with self._cv:
            handle = self._handles.get(run_id)
            return handle.vm if handle is not None else None

    @staticmethod
    def _stable_read(fn, attempts: int = 8):
        """Read live VM state that the engine thread may be mutating.

        Plain retry: the structures involved (dicts, deques) never see
        torn *items*, only ``RuntimeError: changed size during
        iteration``, so a handful of attempts always lands between
        engine steps."""
        for _ in range(attempts - 1):
            try:
                return fn()
            except RuntimeError:
                time.sleep(0.005)
        return fn()

    def metrics(self, run_id: str) -> Dict[str, Any]:
        """The run's metrics snapshot: live registry if executing, the
        archived ``run.metrics.json`` otherwise."""
        vm = self._live_vm(run_id)
        if vm is not None:
            snap = self._stable_read(vm.metrics.snapshot)
            return {"live": True, "metrics": snap}
        import json
        rec = self.store.get(run_id)
        try:
            path = self.store.artifact_path(run_id, "run.metrics.json")
        except UnknownRun:
            raise ServiceError(
                f"run {run_id} ({rec.state}) has no metrics snapshot "
                f"yet") from None
        with path.open() as f:
            return {"live": False, "metrics": json.load(f)}

    def trace_events(self, run_id: str,
                     limit: int = 0) -> List[Dict[str, Any]]:
        """The run's trace stream (tail ``limit`` events if > 0), as
        JSON dicts -- live from the tracer ring, else archived."""
        if limit < 0:
            raise InvalidRunSpec(f"trace limit must be >= 0, got {limit}")
        vm = self._live_vm(run_id)
        if vm is not None:
            events = self._stable_read(lambda: list(vm.tracer.events))
        else:
            import json
            self.store.get(run_id)
            try:
                path = self.store.artifact_path(run_id, "run.events.jsonl")
            except UnknownRun:
                return []
            with path.open() as f:
                raw = [json.loads(line) for line in f if line.strip()]
            return raw[-limit:] if limit else raw
        from ..obs.export import event_to_dict
        dicts = [event_to_dict(e) for e in events]
        return dicts[-limit:] if limit else dicts

    def trace_spans(self, run_id: str) -> List[Dict[str, Any]]:
        """Closed spans derived from the trace stream (task lifetimes,
        messages in flight, critical sections)."""
        from ..obs.spans import derive_spans
        vm = self._live_vm(run_id)
        if vm is not None:
            events = self._stable_read(lambda: list(vm.tracer.events))
        else:
            from ..obs.export import event_from_dict
            events = [event_from_dict(d)
                      for d in self.trace_events(run_id)]
        return [
            {"name": s.name, "cat": s.cat, "pe": int(s.pe), "task": s.task,
             "start": int(s.start), "end": int(s.end),
             "duration": int(s.duration), "args": dict(s.args)}
            for s in derive_spans(events) if s.closed
        ]

    def status_text(self, run_id: str) -> str:
        """The monitor's status displays for a live run (section 11's
        queries, re-exposed over the control plane); for finished runs,
        a one-paragraph summary from the record."""
        vm = self._live_vm(run_id)
        if vm is None:
            rec = self.store.get(run_id)
            app, params = rec.spec.fingerprint()
            lines = [f"run {rec.run_id} [{rec.state}] tenant={rec.tenant} "
                     f"app={app}({params})"]
            if rec.exit:
                lines.append(f"exit: {rec.exit}")
            return "\n".join(lines)
        from ..exec_env.monitor import Monitor
        mon = Monitor(vm)
        return self._stable_read(lambda: "\n".join([
            mon.display_running_tasks(),
            mon.display_pe_loading(),
            mon.display_metrics(),
        ]))
