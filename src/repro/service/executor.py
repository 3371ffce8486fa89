"""Executing one admitted run: boot, run (or checkpoint-resume),
archive, record the exit.

The executor is where the service's three core guarantees live:

* **Determinism** -- the VM is built from the catalog's pure plan plus
  the spec's run toggles; the service adds only *pure observers*
  (full trace stream, metrics, the kill hook on the engine's
  ``on_idle_check`` seam, periodic checkpointing), so a service run's
  virtual time and trace stream are bit-identical to the same spec run
  standalone.
* **Kill** -- a run is killed by setting its handle's event; the hook
  raises :class:`KilledByService` between engine slices, the engine's
  run loop shuts the VM down cleanly (reaping every simulated process)
  and the exception surfaces here, where the run is marked KILLED.
* **Recovery** -- a run found interrupted at boot re-executes through
  the same path; if it was checkpointing, :func:`find_latest_checkpoint`
  plus :func:`repro.api.restore_vm` (with the catalog-rebuilt registry)
  resume it from the last ``.pckpt`` instead of starting over.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..api import _ALL_TRACE_EVENTS, find_latest_checkpoint, restore_vm
from ..core.vm import PiscesVM
from ..faults import loads as load_fault_plan
from ..obs.export import export_run, run_manifest
from ..util.durable import durable_write
from . import catalog
from .store import (DONE, FAILED, KILLED, RUNNING, RunRecord, RunStore)


class KilledByService(BaseException):
    """Raised on the engine thread when a run's kill event is set.

    Deliberately NOT a :class:`~repro.errors.PiscesError` (nor even an
    ``Exception``): simulated task code may legitimately catch broad
    exceptions, and a kill must not be swallowable.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        super().__init__(f"run {run_id} killed by service")


@dataclass
class ExecutionHandle:
    """The service's live view of one executing run."""

    run_id: str
    kill_event: threading.Event
    #: The live VM, set once booted (read by the status/metrics/trace
    #: endpoints while the run executes).
    vm: Optional[PiscesVM] = None

    def kill(self) -> None:
        self.kill_event.set()


#: Checkpoints kept per run; > 1 so a bundle torn by kill -9 mid-write
#: still leaves a previous complete one to resume from.
CHECKPOINT_KEEP = 3

_PROVENANCE_KEYS = ("dispatcher", "repro_version", "seed",
                    "fault_plan_hash")


def build_vm(rec: RunRecord, store: RunStore,
             plan: catalog.AppPlan) -> PiscesVM:
    """Build the (fresh-start) VM for a run record from its plan."""
    spec = rec.spec
    config = replace(
        plan.config,
        name=f"{rec.run_id}-{plan.config.name}",
        trace_events=_ALL_TRACE_EVENTS if spec.trace else (),
        metrics_enabled=True,
        run_seed=spec.run_seed,
        checkpoint_every=spec.checkpoint_every,
        checkpoint_dir=str(store.checkpoint_dir(rec.run_id)),
        checkpoint_keep=CHECKPOINT_KEEP,
    )
    if spec.checkpoint_every:
        store.checkpoint_dir(rec.run_id).mkdir(parents=True, exist_ok=True)
    fault_plan = (load_fault_plan(spec.fault_plan)
                  if spec.fault_plan else None)
    return PiscesVM(config, registry=plan.registry, fault_plan=fault_plan)


def _install_kill_hook(vm: PiscesVM, handle: ExecutionHandle) -> None:
    """Arm the per-run kill seam on the engine's idle-check hook.

    The hook runs between dispatches on the engine thread and only
    reads an Event, so it is a pure observer: virtual time is
    untouched.
    """

    def check() -> None:
        if handle.kill_event.is_set():
            raise KilledByService(handle.run_id)

    vm.engine.on_idle_check = check


def _archive(vm: PiscesVM, rec: RunRecord, store: RunStore,
             exit: Dict[str, Any]) -> Dict[str, Any]:
    """Write the run's artifact bundle; returns provenance metadata.

    Archiving a killed or crashed run keeps whatever evidence exists
    (partial trace, fault events so far).  A step that fails does not
    stop the others; its error is recorded as ``exit["archive_error"]``.
    Every file goes through the durable-write path, so the artifacts
    listed are exactly the whole files in ``artifacts/``.
    """
    art = store.artifacts_dir(rec.run_id)
    art.mkdir(parents=True, exist_ok=True)
    provenance: Dict[str, Any] = {}
    hook = vm.sched_hook

    def manifest() -> None:
        m = run_manifest(vm)
        provenance.update((k, m.get(k)) for k in _PROVENANCE_KEYS)

    steps = [manifest, lambda: export_run(vm, art, prefix="run")]
    if vm.faults is not None:
        steps.append(lambda: vm.faults.write_jsonl(art / "run.faults.jsonl"))
    if hook is not None and hasattr(hook, "dumps"):
        steps.append(lambda: durable_write(art / "run.psched", hook.dumps()))
    errors = []
    for step in steps:
        try:
            step()
        except Exception as e:
            errors.append(f"{type(e).__name__}: {e}")
    if errors:
        exit["archive_error"] = "; ".join(errors)
    return provenance


def _finish(vm: Optional[PiscesVM], rec: RunRecord, store: RunStore,
            state: str, exit: Dict[str, Any]) -> RunRecord:
    """Archive the run (if it booted) and record its terminal state."""
    provenance = _archive(vm, rec, store, exit) if vm is not None else {}
    return store.transition(rec.run_id, state, finished_at=time.time(),
                            provenance=provenance, exit=exit,
                            artifacts=store.list_artifacts(rec.run_id))


def standalone_run(spec):
    """Run a spec outside the service: the bit-identity reference leg.

    Builds the same catalog plan with the same run toggles but none
    of the service's observers (no kill hook, no checkpointing, no
    run-id config name) and runs it to completion.  The soak tests
    compare a service run's virtual time and trace stream against this
    -- equality is the proof that the service added nothing but pure
    observers.
    """
    plan = catalog.build(spec)
    config = replace(
        plan.config,
        trace_events=_ALL_TRACE_EVENTS if spec.trace else (),
        metrics_enabled=True,
        run_seed=spec.run_seed,
    )
    fault_plan = (load_fault_plan(spec.fault_plan)
                  if spec.fault_plan else None)
    vm = PiscesVM(config, registry=plan.registry, fault_plan=fault_plan)
    return vm.run(plan.tasktype, *plan.args, shutdown=True)


def execute_run(rec: RunRecord, store: RunStore,
                handle: ExecutionHandle) -> RunRecord:
    """Run one ADMITTED record to a terminal state.  Called on a worker
    thread.  A failure of the run becomes the FAILED state; only a store
    that cannot persist even that raises, leaving the record at its last
    persisted state for the next boot to re-queue."""
    if handle.kill_event.is_set():        # killed while waiting to start
        return store.transition(rec.run_id, KILLED,
                                finished_at=time.time(),
                                exit={"outcome": "killed",
                                      "detail": "killed before start"})

    vm: Optional[PiscesVM] = None
    restored = None
    try:
        # One plan per execution: it is a pure function of the spec, so
        # the resume registry and the fresh VM can share it.
        plan = catalog.build(rec.spec)
        # Prefer checkpoint-resume for recovered runs that were
        # checkpointing; anything else starts fresh.
        if rec.recovered and rec.spec.checkpoint_every:
            ckpt = find_latest_checkpoint(store.checkpoint_dir(rec.run_id))
            if ckpt is not None:
                try:
                    restored = restore_vm(ckpt, registry=plan.registry)
                    vm = restored.vm
                    rec = store.amend(rec.run_id, resumed_from=ckpt.name)
                except Exception:
                    restored, vm = None, None     # fall back to fresh
        if vm is None:
            vm = build_vm(rec, store, plan)
        handle.vm = vm
        _install_kill_hook(vm, handle)
        rec = store.transition(rec.run_id, RUNNING, started_at=time.time())

        if restored is not None:
            result = restored.resume(shutdown=True)
        else:
            result = vm.run(plan.tasktype, *plan.args, shutdown=True)

        value_repr = repr(result.value)
        if len(value_repr) > 200:
            value_repr = value_repr[:200] + "..."
        return _finish(vm, rec, store, DONE, {
            "outcome": "done", "elapsed_ticks": int(result.elapsed),
            "value": value_repr, "resumed_from": rec.resumed_from})
    except KilledByService:
        return _finish(vm, rec, store, KILLED, {
            "outcome": "killed",
            "elapsed_ticks": (int(vm.machine.elapsed())
                              if vm is not None else None)})
    except Exception as e:
        return _finish(vm, rec, store, FAILED, {
            "outcome": "failed", "error": f"{type(e).__name__}: {e}",
            "traceback": traceback.format_exc(limit=8)})
    finally:
        handle.vm = None
        if vm is not None:
            try:
                vm.shutdown()
            except Exception:
                pass
