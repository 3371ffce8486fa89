"""Checkpoint capture (:func:`checkpoint_vm`) and crash recovery
(:func:`restore_vm`).

Restore does not deserialize threads or coroutine frames -- it cannot,
and it does not need to.  A restored run is a *reconstruction*: the
manifest rebuilds an identical VM (same configuration, seeds, fault
plan, task registry), the embedded ``.psched`` prefix replays the
original dispatcher's decisions up to the snapshot point, the state
digest is validated at the replay-to-live switch, and then the run
continues under a live dispatcher.  Because traces, profiles and race
reports are *recomputed* during the replay rather than stored, the
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
from typing import Any, Dict, Optional, Tuple, Union

from ..config.configuration import (ClusterSpec, Configuration,
                                    map_legacy_axes)
from ..correctness.recorder import Schedule, ScheduleRecorder
from ..core.taskid import Designator
from ..core.tracing import TraceEventType
from ..errors import (CheckpointError, CheckpointFormatError,
                      ConfigurationError)
from ..results import RunRecord
from ..util.durable import durable_write
from .format import dumps_bundle, load_bundle
from .snapshot import snapshot_state, verify_snapshot

FORMAT_VERSION = 1


class PrefixSchedule:
    """A schedule that is a *prefix*, not a complete run.

    Installed as the restored engine's replay schedule / ``sched_hook``.
    While a stream still has prefix records, hook calls consume-verify
    against the prefix (exactly like a full :class:`Schedule` replay);
    once a stream's prefix is spent, its decisions are *recorded* into
    the live tail instead.  When the dispatch stream runs dry the
    engine switches to live selection (``Engine._switch_to_live``)
    and fires :attr:`on_prefix_complete` -- restore hangs the snapshot
    validation there.

    ``consumed_streams()`` composes prefix + tail, so a checkpoint
    taken *by a restored run* carries the full decision stream since
    the original run's start -- re-checkpointing survives arbitrarily
    many crash/restore cycles.
    """

    #: Engine contract: do not raise when the dispatch stream runs dry;
    #: switch to live selection and keep going.
    live_after_prefix = True

    def __init__(self, prefix: Schedule):
        self.prefix = prefix
        #: Live decisions made after each stream's prefix was spent.
        self.tail = ScheduleRecorder()
        #: Called once with the engine at the replay-to-live switch.
        self.on_prefix_complete = None

    def _verifying(self, stream: str) -> bool:
        return self.prefix.remaining(stream) > 0

    # The sched_hook interface: verify against the prefix, then record.

    def on_spawn(self, ordinal: int, name: str) -> None:
        if self._verifying("P"):
            self.prefix.on_spawn(ordinal, name)
        else:
            self.tail.on_spawn(ordinal, name)

    def on_dispatch(self, ordinal: int, start: int, name: str) -> None:
        if self._verifying("D"):
            self.prefix.on_dispatch(ordinal, start, name)
        else:
            self.tail.on_dispatch(ordinal, start, name)

    def on_selfsched(self, member: int, index: int) -> None:
        if self._verifying("S"):
            self.prefix.on_selfsched(member, index)
        else:
            self.tail.on_selfsched(member, index)

    def on_lock_grant(self, member: int, lock: str) -> None:
        if self._verifying("L"):
            self.prefix.on_lock_grant(member, lock)
        else:
            self.tail.on_lock_grant(member, lock)

    def on_accept_match(self, receiver: str, sender: str, mtype: str) -> None:
        if self._verifying("A"):
            self.prefix.on_accept_match(receiver, sender, mtype)
        else:
            self.tail.on_accept_match(receiver, sender, mtype)

    # The replay-dispatcher interface, delegated to the prefix.

    def reset(self) -> None:
        self.prefix.reset()

    def peek_dispatch(self):
        return self.prefix.peek_dispatch()

    def name_of(self, ordinal: int) -> str:
        return self.prefix.name_of(ordinal)

    @property
    def exhausted(self) -> bool:
        return self.prefix.exhausted

    def progress(self) -> str:
        return self.prefix.progress()

    # The uniform prefix interface (checkpoints taken mid- or post-replay).

    def position(self) -> Dict[str, int]:
        pre, tail = self.prefix.position(), self.tail.position()
        return {k: pre[k] + tail[k] for k in pre}

    def consumed_streams(self) -> Dict[str, list]:
        pre, tail = self.prefix.consumed_streams(), self.tail.consumed_streams()
        return {k: pre[k] + tail[k] for k in pre}


# ------------------------------------------------------- serialization --


def config_to_dict(config: Configuration) -> Dict[str, Any]:
    """Configuration as JSON-stable data.  ``default_accept_delay`` is
    serialized *resolved*, so a restore is immune to a different
    ``PISCES_ACCEPT_TIMEOUT`` in the recovering environment."""
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


def _psched_text(streams: Dict[str, list]) -> str:
    rec = ScheduleRecorder()
    rec.spawns = list(streams["P"])
    rec.dispatches = list(streams["D"])
    rec.selfsched = list(streams["S"])
    rec.lock_grants = list(streams["L"])
    rec.accepts = list(streams["A"])
    return rec.dumps()


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
            "a ScheduleRecorder (checkpoint_every and record_run install "
            "one automatically)")
    manifest = build_manifest(vm)
    state = snapshot_state(vm)
    try:
        text = dumps_bundle(
            manifest, state, _psched_text(eng.sched_hook.consumed_streams()))
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
    engine replays the embedded schedule prefix (recomputing traces,
    metrics, race reports and profiles on the way), validates the state
    digest at the switch point, then continues live to completion.
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
        return self.vm.run(name, *args, on=on, shutdown=shutdown)


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
    sched = PrefixSchedule(Schedule.parse(psched_text))
    plan = None
    if manifest.get("fault_plan"):
        from ..faults.plan import loads as _plan_loads
        plan = _plan_loads(manifest["fault_plan"])
    vm = PiscesVM(config, registry=registry, fault_plan=plan,
                  replay=sched, detect_races=manifest.get("detect_races"),
                  autoboot=False)
    if vm.faults is not None:
        vm.faults.arm_host_kills = False
    if trace_types:
        vm.tracer.enable(*trace_types)
    vm.tracer.strict_overflow = bool(manifest.get("strict_overflow"))
    if manifest.get("profile") and vm.profiler is None:
        vm.enable_profiling()

    def _validate(engine, _vm=vm, _state=state):
        verify_snapshot(_vm, _state)

    sched.on_prefix_complete = _validate
    vm.boot()
    return RestoredRun(vm=vm, manifest=manifest, state=state,
                       path=Path(path))
