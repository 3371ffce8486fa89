"""Property: the causal profile is part of the deterministic history.

For any app in the dispatcher-identity suite and either window
data-plane path, the profiler's complete observable output -- wait
totals by category, the per-task rollup, and the extracted critical
path -- must be bit-identical between the heap picker and the
brute-force scan oracle, across the two task-body vehicles, and across
a record/replay cycle where the recording run did NOT profile but the
replay does (attaching the profiler to a replay reproduces the original
run's profile exactly).

Fingerprints use task *labels* and PE numbers, never kernel pids
(pids are process-global and differ between VMs by construction).
"""

from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.api import make_vm
from repro.correctness import Schedule
from repro.obs.profile import extract_critical_path
from tests.integration.test_dispatcher_identity import APPS
from tests.oracles import WINDOW_PATHS, ScanEngine, oracle_leg


def _profile_fingerprint(vm, elapsed):
    prof = vm.profiler
    assert prof is not None, "enable_profiling() should have profiled"
    acct = prof.accounting()
    cp = extract_critical_path(prof, elapsed=elapsed)
    return {
        "totals": sorted(acct.totals.items()),
        "by_task": sorted(acct.by_task.items()),
        "by_pe": sorted(acct.by_pe.items()),
        "busy_by_pe": sorted(acct.busy_by_pe.items()),
        "path": [(s.kind, s.start, s.end, s.label, s.pe, s.process)
                 for s in cp.segments],
        "elapsed": int(elapsed),
        "work": prof.total_work(),
    }


def _run(plan, profile=True, schedule=None, engine_cls=None, **leg):
    """Run ``plan`` (profiled unless ``profile=False``, on ``schedule``
    when one is given) and fingerprint its profile."""
    if engine_cls is not None:
        with mock.patch("repro.mmos.kernel.Engine", engine_cls):
            return _run(plan, profile, schedule, **leg)
    if leg:
        with oracle_leg(**leg):
            return _run(plan, profile, schedule)
    vm = make_vm(config=plan.config, registry=plan.registry,
                 schedule=schedule)
    if profile:
        vm.enable_profiling()
    r = vm.run(plan.tasktype, *plan.args)
    if isinstance(schedule, Path):
        assert vm.engine.dispatcher == "replay"
        vm.sched_hook.check_complete()
    return _profile_fingerprint(vm, int(r.elapsed)) if profile else None


@settings(max_examples=8, deadline=None)
@given(app=st.sampled_from(range(len(APPS))),
       window_path=st.sampled_from(WINDOW_PATHS))
def test_profile_is_dispatcher_and_window_path_independent(
        app, window_path, tmp_path_factory):
    name, plan = APPS[app]
    leg = {"window_path": window_path}

    indexed = _run(plan(), **leg)
    scan = _run(plan(), engine_cls=ScanEngine, **leg)
    assert indexed == scan, (
        f"{name}/{window_path}: profile diverged between dispatchers")

    # The profiler observer is body-vehicle-agnostic: callable bodies
    # on worker threads must reproduce the coroutine profile bit for bit.
    callable_ = _run(plan(), task_bodies="callable", **leg)
    assert callable_ == indexed, (
        f"{name}/{window_path}: profile diverged between body vehicles")

    # Record WITHOUT the profiler, replay WITH it: the profile of the
    # replay must reproduce the profiled originals bit for bit.
    psched = tmp_path_factory.mktemp("psched") / f"{name}.psched"
    _run(plan(), profile=False, schedule=Schedule(path=psched), **leg)
    assert psched.exists(), "recorder did not autosave at shutdown"
    replayed = _run(plan(), schedule=psched, **leg)
    assert replayed == indexed, (
        f"{name}/{window_path}: replayed profile diverged from original")
