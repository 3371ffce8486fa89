"""Checkpoint capture (:func:`checkpoint_vm`) and crash recovery
(:func:`restore_vm`).

Restore does not deserialize threads or coroutine frames -- it cannot,
and it does not need to.  A restored run is a *reconstruction*: the
manifest rebuilds an identical VM (same configuration, seeds, fault
plan, task registry) and re-runs it from the start.  The engine picks
every dispatch itself; the embedded ``.psched`` prefix checks each
decision up to the snapshot point, where the state digest is checked
once, and the run records from there on.  Because traces, profiles and
race reports are *recomputed* during the replay rather than stored, the
final artifacts of ``restore → resume`` are bit-identical to an
uninterrupted run -- that is the recovery guarantee the kill -9 soak
asserts.

Task code is deliberately not serialized (it is code, not state): the
restoring process must hold the same task registry the original run
used.  Registries built at import time (``GLOBAL_REGISTRY``) need
nothing; closure-built registries (e.g. the chaos-jacobi demo's) must
be rebuilt by the caller and passed to :func:`restore_vm`.
"""

from __future__ import annotations

from dataclasses import dataclass as _dataclass, fields as _fields
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from ..config.configuration import (ClusterSpec, Configuration,
                                    map_legacy_axes)
from ..correctness.recorder import Schedule
from ..core.taskid import Designator
from ..core.tracing import TraceEventType
from ..errors import (CheckpointError, CheckpointFormatError,
                      ConfigurationError)
from ..results import RunRecord
from ..util.durable import durable_write
from .format import dumps_bundle, load_bundle
from .snapshot import snapshot_state, verify_snapshot

FORMAT_VERSION = 1


# ------------------------------------------------------- serialization --


def config_to_dict(config: Configuration) -> Dict[str, Any]:
    """Configuration as JSON-stable data, every field included."""
    d: Dict[str, Any] = {}
    for f in _fields(Configuration):
        v = getattr(config, f.name)
        if f.name == "clusters":
            v = [{"number": c.number, "primary_pe": c.primary_pe,
                  "slots": c.slots,
                  "secondary_pes": list(c.secondary_pes)} for c in v]
        elif isinstance(v, tuple):
            v = list(v)
        d[f.name] = v
    return d


def config_from_dict(d: Dict[str, Any]) -> Configuration:
    kwargs = dict(d)
    kwargs["clusters"] = tuple(
        ClusterSpec(number=c["number"], primary_pe=c["primary_pe"],
                    slots=c["slots"],
                    secondary_pes=tuple(c["secondary_pes"]))
        for c in d["clusters"])
    kwargs["trace_events"] = tuple(d.get("trace_events", ()))
    known = {f.name for f in _fields(Configuration)}
    return Configuration(**{k: v for k, v in kwargs.items() if k in known})


def _placement_to_json(placement: Any) -> Any:
    if isinstance(placement, Designator):
        return {"sentinel": placement.value}
    return placement


def _placement_from_json(placement: Any) -> Any:
    if isinstance(placement, dict) and "sentinel" in placement:
        return Designator(placement["sentinel"])
    return placement


def _app_request(manifest: Dict[str, Any]) -> Tuple[str, list, Any]:
    """The top-level run request ``(tasktype, args, placement)``."""
    app = manifest["app"]
    return (app["tasktype"], list(app["args"]),
            _placement_from_json(app["placement"]))


def build_manifest(vm) -> Dict[str, Any]:
    """Everything needed to rebuild this VM in a fresh process."""
    from .. import __version__
    eng = vm.engine
    name, run_args, placement = vm._run_request
    manifest: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "repro_version": __version__,
        "now": int(eng.now()),
        "dispatch_seq": int(eng._dispatch_seq),
        "app": {"tasktype": name, "args": list(run_args),
                "placement": _placement_to_json(placement)},
        "config": config_to_dict(vm.config),
        "run_seed": vm.config.run_seed,
        "schedule_position": eng.sched_hook.position(),
        "trace_events": sorted(t.value for t in vm.tracer.enabled_types),
        "strict_overflow": bool(vm.tracer.strict_overflow),
        "detect_races": (None if vm.race_detector is None
                         else vm.race_detector.mode),
        "profile": vm.profiler is not None,
        "fault_plan": None,
        "fault_cursor": None,
    }
    if vm.faults is not None:
        from ..faults.plan import dumps as _plan_dumps
        manifest["fault_plan"] = _plan_dumps(vm.faults.plan)
        manifest["fault_cursor"] = vm.faults.cursor_state()
    return manifest


# ------------------------------------------------------------- capture --


def checkpoint_vm(vm, path: Union[str, Path]) -> Path:
    """Snapshot a live VM to one ``.pckpt`` bundle at ``path``.

    Must be called *between dispatches* (the periodic checkpointer's
    engine hook does; task code cannot checkpoint the VM it runs in)
    and only after :meth:`PiscesVM.run` has started the top-level task.
    Raises :class:`~repro.errors.CheckpointError` otherwise, when no
    schedule decision stream is being recorded, or when the bundle
    cannot be written (a full disk, say).
    """
    eng = vm.engine
    if vm._run_request is None:
        raise CheckpointError(
            "nothing to checkpoint: vm.run() has not started a "
            "top-level task")
    if eng.in_process():
        raise CheckpointError(
            "checkpoint_vm must be called between dispatches (e.g. from "
            "the periodic checkpointer), not from inside task code")
    if eng.sched_hook is None:
        raise CheckpointError(
            "checkpointing needs the schedule decision stream: run with "
            "a schedule (checkpoint_every and record_run install one "
            "automatically)")
    manifest = build_manifest(vm)
    state = snapshot_state(vm)
    try:
        text = dumps_bundle(
            manifest, state, eng.sched_hook.dumps(prefix=True))
    except TypeError as e:
        raise CheckpointError(
            f"run request is not JSON-serializable: {e}") from None
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        durable_write(path, text)
    except OSError as e:
        raise CheckpointError(f"cannot write {path.name}: {e}") from e
    return path


# ------------------------------------------------------------- restore --


@_dataclass
class RestoredRun(RunRecord):
    """A VM rebuilt from a checkpoint, booted, ready to resume.

    :meth:`resume` re-issues the original top-level run request; the
    engine re-runs the embedded schedule prefix (recomputing traces,
    metrics, race reports and profiles on the way), checks the state
    digest at its end, then continues to completion.
    """

    vm: Any
    manifest: Dict[str, Any]
    state: Dict[str, Any]
    path: Path

    @property
    def elapsed(self) -> int:
        """Virtual ticks at the snapshot point (the :class:`RunResult`
        from :meth:`resume` carries the full run's elapsed)."""
        return int(self.manifest["now"])

    def resume(self, shutdown: bool = True):
        """Run to completion; returns the :class:`RunResult` an
        uninterrupted run would have produced."""
        name, args, on = _app_request(self.manifest)
        result = self.vm.run(name, *args, on=on, shutdown=shutdown)
        # A run that ends inside the prefix never reached the snapshot.
        self.vm.sched_hook.check_complete()
        return result


def restore_vm(path: Union[str, Path], registry=None) -> RestoredRun:
    """Rebuild a VM from a ``.pckpt`` bundle.

    ``registry`` must hold the same task code the original run used;
    None means the import-time ``GLOBAL_REGISTRY``.  Host-kill fault
    events are disarmed in the restored VM (re-firing the kill that
    crashed the original run would make recovery a crash loop); every
    other fault replays exactly.
    """
    from ..core.vm import PiscesVM
    manifest, state, psched_text = load_bundle(path)
    if manifest.get("format") != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format {manifest.get('format')!r} "
            f"(this build reads format {FORMAT_VERSION})")
    try:
        manifest = map_legacy_axes(manifest)
        config = config_from_dict(map_legacy_axes(manifest["config"]))
        _app_request(manifest)
        trace_types = [TraceEventType(n)
                       for n in manifest.get("trace_events") or ()]
    except (ConfigurationError, KeyError, TypeError, ValueError) as e:
        raise CheckpointFormatError(
            f"{path}: malformed manifest: {type(e).__name__}: {e}") from None
    # Checks the prefix up to the snapshot point, then records.
    sched = Schedule.parse(psched_text, live_tail=True)
    plan = None
    if manifest.get("fault_plan"):
        from ..faults.plan import loads as _plan_loads
        plan = _plan_loads(manifest["fault_plan"])
    vm = PiscesVM(config, registry=registry, fault_plan=plan,
                  schedule=sched, detect_races=manifest.get("detect_races"),
                  autoboot=False)
    if vm.faults is not None:
        vm.faults.arm_host_kills = False
    if trace_types:
        vm.tracer.enable(*trace_types)
    vm.tracer.strict_overflow = bool(manifest.get("strict_overflow"))
    if manifest.get("profile") and vm.profiler is None:
        vm.enable_profiling()

    # The snapshot was taken where the engine calls its checkpoint pump,
    # between slices, once the prefix's last dispatch had run: check the
    # state there, once, in front of the periodic checkpointer.
    at = len(sched.streams["D"])
    pump = vm.engine._ckpt_pump

    def check_then_pump(engine):
        if engine.dispatch_count == at:
            engine._ckpt_pump = pump
            verify_snapshot(vm, state)
        if pump is not None:
            pump(engine)

    vm.engine._ckpt_pump = check_then_pump
    vm.boot()
    return RestoredRun(vm=vm, manifest=manifest, state=state,
                       path=Path(path))
