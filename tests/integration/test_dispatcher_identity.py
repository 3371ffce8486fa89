"""Every execution leg must replay bit-for-bit.

The scheduler docstring's determinism contract is load-bearing for the
whole suite: the host-level choices that survive -- the task-body
vehicle and the window data plane -- must not move a single virtual
timestamp.  Each app here runs once per leg and the full observable
history -- elapsed virtual time, dispatch count, per-PE clock readings
and run stats -- must match exactly; the replay tests additionally
re-execute a recording under every leg, and the chaos test holds both
body vehicles to the same history under a seeded fault plan.
"""

import pytest

from repro.apps.chaos_jacobi import run_chaos_jacobi
from repro.apps.fem import run_fem
from repro.apps.integrate import run_integrate
from repro.apps.jacobi import build_windows_registry, run_jacobi_windows
from repro.apps.matmul import run_matmul_tasks
from repro.apps.pipeline import run_pipeline
from repro.faults import RESTART, FaultPlan, PECrash
from tests.oracles import LEGS, callable_bodies, oracle_leg


def _fingerprint(r):
    vm = r.vm
    clocks = vm.machine.clocks.snapshot()
    stats = vm.stats
    fp = {
        "elapsed": int(r.elapsed),
        "dispatches": vm.engine.dispatch_count,
        "clocks": {pe: int(t) for pe, t in clocks.items()},
        "messages_sent": stats.messages_sent,
        "messages_accepted": stats.messages_accepted,
        "tasks_started": stats.tasks_started,
    }
    vm.shutdown()
    return fp


def _run_leg(fn, window_path, task_bodies):
    with oracle_leg(window_path, task_bodies):
        return _fingerprint(fn())


APPS = [
    ("jacobi", lambda: run_jacobi_windows(n=12, sweeps=2, n_workers=3)),
    ("matmul", lambda: run_matmul_tasks(n=8, n_workers=3)),
    ("fem", lambda: run_fem(n_elements=8)),
    ("pipeline", lambda: run_pipeline(n_stages=3, items=list(range(8)))),
    ("integrate", lambda: run_integrate(pieces=12, points_per_piece=4)),
]


@pytest.mark.parametrize("name,fn", APPS, ids=[a[0] for a in APPS])
def test_app_virtual_history_is_leg_independent(name, fn):
    got = {leg: _run_leg(fn, *leg) for leg in LEGS}
    ref = got[LEGS[0]]
    for leg, fp in got.items():
        assert fp == ref, (
            f"{name}: virtual history diverged on {leg[0]}x{leg[1]} "
            f"vs {LEGS[0][0]}x{LEGS[0][1]}")


@pytest.mark.parametrize("name,fn", APPS, ids=[a[0] for a in APPS])
def test_replay_dispatcher_retraces_recorded_history(name, fn, tmp_path,
                                                     monkeypatch):
    """Record each app (PISCES_RECORD_SCHEDULE autosaves the .psched at
    shutdown), then re-run it under PISCES_REPLAY_SCHEDULE on every leg
    -- a recording made with one body vehicle must drive the other to
    the identical history."""
    psched = tmp_path / f"{name}.psched"
    monkeypatch.setenv("PISCES_RECORD_SCHEDULE", str(psched))
    recorded = _fingerprint(fn())
    monkeypatch.delenv("PISCES_RECORD_SCHEDULE")
    assert psched.exists(), "recorder did not autosave at shutdown"
    monkeypatch.setenv("PISCES_REPLAY_SCHEDULE", str(psched))
    for leg in LEGS:
        replayed = _run_leg(fn, *leg)
        assert replayed == recorded, (
            f"{name}: replay on {leg[0]}x{leg[1]} diverged from the "
            f"recording")


def test_trace_stream_identical_across_cores():
    """The full trace stream -- not just the summary fingerprint -- is
    part of the determinism contract between body vehicles."""
    from repro.api import record_run

    def record():
        rec = record_run("JMASTER", registry=build_windows_registry(12, 2, 3))
        rec.result.vm.shutdown()
        return rec

    auto = record()
    with callable_bodies():
        callable_ = record()
    assert callable_.elapsed == auto.elapsed
    assert callable_.trace_lines == auto.trace_lines, \
        "trace stream diverged between body vehicles"


CRASH_PLAN = FaultPlan(seed=11, crashes=(PECrash(at=4_000, pe=4),),
                       name="identity-crash-pe4")


def test_chaos_jacobi_fault_plan_identical_across_cores():
    """Fault injection points are virtual-time events, so a seeded plan
    must produce the same crash/restart/recovery history under both
    body vehicles."""
    got = {}
    for bodies in ("auto", "callable"):
        with oracle_leg(task_bodies=bodies):
            r = run_chaos_jacobi(n=12, sweeps=2, n_workers=3,
                                 supervision=RESTART(3, backoff_ticks=500),
                                 on_death="reassign",
                                 fault_plan=CRASH_PLAN)
        fault_kinds = [e.kind for e in r.vm.faults.events]
        restarted = r.vm.stats.tasks_restarted
        got[bodies] = (_fingerprint(r), r.completed, r.rounds, fault_kinds,
                       restarted)
    assert got["callable"] == got["auto"], (
        "chaos_jacobi under the seeded fault plan diverged between "
        "body vehicles")
    assert got["auto"][1], "crash plan should still converge"
    assert "pe_crash" in got["auto"][3]
