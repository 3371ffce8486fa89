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

from repro.api import make_vm
from repro.apps.chaos_jacobi import run_chaos_jacobi
from repro.apps.fem import FEMProblem, fem_plan
from repro.apps.integrate import default_integrand, integrate_plan
from repro.apps.jacobi import build_windows_registry, windows_plan
from repro.apps.matmul import tasks_plan
from repro.apps.pipeline import pipeline_plan
from repro.correctness import Schedule
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


def _run(plan, schedule=None):
    """Run an app's plan, on ``schedule`` when one is given."""
    vm = make_vm(config=plan.config, registry=plan.registry,
                 schedule=schedule)
    return vm.run(plan.tasktype, *plan.args)


def _run_leg(plan, window_path, task_bodies, schedule=None):
    with oracle_leg(window_path, task_bodies):
        return _run(plan, schedule)


#: Each app's plan, built fresh per run.
APPS = [
    ("jacobi", lambda: windows_plan(12, 2, 3)),
    ("matmul", lambda: tasks_plan(8, 3, 2)),
    ("fem", lambda: fem_plan(FEMProblem(n_elements=8), 3)),
    ("pipeline", lambda: pipeline_plan(3, list(range(8)), 2, 4)),
    ("integrate", lambda: integrate_plan(12, 4, 4, 2, default_integrand,
                                         0.0, 3.0)),
]


@pytest.mark.parametrize("name,plan", APPS, ids=[a[0] for a in APPS])
def test_app_virtual_history_is_leg_independent(name, plan):
    got = {leg: _fingerprint(_run_leg(plan(), *leg)) for leg in LEGS}
    ref = got[LEGS[0]]
    for leg, fp in got.items():
        assert fp == ref, (
            f"{name}: virtual history diverged on {leg[0]}x{leg[1]} "
            f"vs {LEGS[0][0]}x{LEGS[0][1]}")


@pytest.mark.parametrize("name,plan", APPS, ids=[a[0] for a in APPS])
def test_replay_dispatcher_retraces_recorded_history(name, plan, tmp_path):
    """Record each app (the schedule autosaves its .psched at
    shutdown), then replay that file on every leg -- a recording made
    with one body vehicle must drive the other to the identical
    history."""
    psched = tmp_path / f"{name}.psched"
    recorded = _fingerprint(_run(plan(), Schedule(path=psched)))
    assert psched.exists(), "recorder did not autosave at shutdown"
    for leg in LEGS:
        r = _run_leg(plan(), *leg, schedule=psched)
        assert not r.vm.sched_hook.live_tail
        r.vm.sched_hook.check_complete()
        assert _fingerprint(r) == recorded, (
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
