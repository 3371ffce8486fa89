"""Executing one admitted (RUNNING) run's plan, the one admission held
for it: boot, run (or checkpoint-resume), archive, record the exit.

The executor is where the service's three core guarantees live:

* **Determinism** -- the VM is built from the catalog's pure plan plus
  the spec's run toggles; the service adds only *pure observers*
  (full trace stream, metrics, the kill check, periodic checkpointing),
  so a service run's virtual time and trace stream are bit-identical
  to the same spec run standalone.
* **Kill** -- a run is killed by setting its handle's event; the
  handle, an engine observer, raises :class:`KilledByService` between
  engine slices, the engine's run loop shuts the VM down cleanly
  (reaping every simulated process) and the exception surfaces here,
  where the run is marked KILLED.
* **Recovery** -- a run found interrupted at boot re-executes through
  the same path; if it was checkpointing,
  :func:`~repro.checkpoint.find_latest_checkpoint` plus
  :func:`restore_vm` (with the plan's registry) resume it
  from the last ``.pckpt`` instead of starting over.  Only that path
  loads the checkpoint restorer.

Whatever a worker thread imports first -- the fault injector and the
checkpoint writer a VM loads when its run uses them, the restorer --
it imports under :data:`catalog.IMPORT_LOCK`.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..core.tracing import ALL_TRACE_EVENTS
from ..core.vm import AppPlan, PiscesVM
from ..obs.export import export_run, run_manifest
from ..util.durable import durable_write
from . import catalog
from .store import DONE, FAILED, KILLED, RunRecord, RunStore


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

    def on_slice(self, p, start: int, wall) -> None:
        """The kill check, as an engine observer: it only reads an
        Event, so virtual time is untouched."""
        if self.kill_event.is_set():
            raise KilledByService(self.run_id)


#: Checkpoints kept per run; > 1 so a bundle torn by kill -9 mid-write
#: still leaves a previous complete one to resume from.
CHECKPOINT_KEEP = 3

_PROVENANCE_KEYS = ("repro_version", "seed", "fault_plan_hash")


def _plan_vm(spec, plan: AppPlan, **config) -> PiscesVM:
    """The VM for a spec's plan with the spec's run toggles (trace,
    metrics on, run seed) and fault plan; ``config`` overrides further
    configuration fields.  The service's VM and the standalone
    reference leg are both built here, so they cannot drift apart."""
    with catalog.IMPORT_LOCK:
        return plan.boot(
            trace_events=ALL_TRACE_EVENTS if spec.trace else (),
            metrics_enabled=True, run_seed=spec.run_seed, **config)


def restore_vm(path, registry):
    """:func:`repro.checkpoint.restore_vm`, which loads the restorer and
    the fault-plan format on a recovered run's first resume."""
    with catalog.IMPORT_LOCK:
        from ..checkpoint.restore import restore_vm as restore
        return restore(path, registry=registry)


def build_vm(rec: RunRecord, store: RunStore, plan: AppPlan) -> PiscesVM:
    """Build the (fresh-start) VM for a run record from its plan."""
    spec = rec.spec
    if spec.checkpoint_every:
        store.checkpoint_dir(rec.run_id).mkdir(parents=True, exist_ok=True)
    return _plan_vm(
        spec, plan,
        name=f"{rec.run_id}-{plan.config.name}",
        checkpoint_every=spec.checkpoint_every,
        checkpoint_dir=str(store.checkpoint_dir(rec.run_id)),
        checkpoint_keep=CHECKPOINT_KEEP,
    )


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
    if hook is not None:
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
    """Archive the run (if it booted) and record its terminal state,
    with the checkpoint it resumed from, in one write."""
    provenance = _archive(vm, rec, store, exit) if vm is not None else {}
    return store.transition(rec.run_id, state, finished_at=time.time(),
                            provenance=provenance, exit=exit,
                            artifacts=store.list_artifacts(rec.run_id),
                            resumed_from=rec.resumed_from)


def standalone_run(spec):
    """Run a spec outside the service: the bit-identity reference leg.

    Builds the same catalog plan with the same run toggles but none
    of the service's observers (no kill check, no checkpointing, no
    run-id config name) and runs it to completion.  The soak tests
    compare a service run's virtual time and trace stream against this
    -- equality is the proof that the service added nothing but pure
    observers.
    """
    plan = catalog.build(spec)
    vm = _plan_vm(spec, plan)
    return vm.run(plan.tasktype, *plan.args, shutdown=True)


def execute_run(rec: RunRecord, store: RunStore, handle: ExecutionHandle,
                plan: AppPlan) -> RunRecord:
    """Run one RUNNING record's ``plan`` to a terminal state.  Called on
    a worker thread.  A failure of the run becomes the FAILED state; only
    a store that cannot persist even that raises, leaving the record at
    its last persisted state for the next boot to re-queue."""
    if handle.kill_event.is_set():        # killed while waiting to start
        return store.transition(rec.run_id, KILLED,
                                finished_at=time.time(),
                                exit={"outcome": "killed",
                                      "detail": "killed before start"})

    vm: Optional[PiscesVM] = None
    restored = None
    try:
        # Prefer checkpoint-resume for recovered runs that were
        # checkpointing; anything else starts fresh.
        if rec.recovered and rec.spec.checkpoint_every:
            with catalog.IMPORT_LOCK:
                from ..checkpoint.format import find_latest_checkpoint
            ckpt = find_latest_checkpoint(store.checkpoint_dir(rec.run_id))
            if ckpt is not None:
                try:
                    restored = restore_vm(ckpt, registry=plan.registry)
                    vm = restored.vm
                    rec = replace(rec, resumed_from=ckpt.name)
                except Exception:
                    restored, vm = None, None     # fall back to fresh
        if vm is None:
            vm = build_vm(rec, store, plan)
        handle.vm = vm
        vm.engine.observe(handle)

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
