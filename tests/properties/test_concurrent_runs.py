"""Concurrency-invariance property: N ``run_app`` invocations from a
thread pool are each bit-identical (virtual time + trace stream) to
the same runs executed serially -- under both task-body vehicles.

This is the property the run service's worker pool stands on: VMs
share a process but no mutable state that affects scheduling, so
host-level interleaving cannot perturb any run's virtual outcome.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.api import run_app
from repro.apps.jacobi import build_windows_registry
from repro.apps.matmul import build_tasks_registry
from repro.core.tracing import ALL_TRACE_EVENTS
from repro.service.catalog import build_spin_registry
from tests.oracles import BOTH_VEHICLES

#: (label, registry builder, tasktype, args) -- distinct shapes so the
#: concurrent mix is heterogeneous, like a real service pool.
WORKLOADS = [
    ("jacobi", lambda: build_windows_registry(10, 2, 2), "JMASTER", ()),
    ("matmul", lambda: build_tasks_registry(8, 2), "MMASTER", ()),
    ("spin", lambda: build_spin_registry(40, 13), "SPIN", (40, 13)),
]


def run_one(i: int):
    label, make_reg, tasktype, args = WORKLOADS[i % len(WORKLOADS)]
    r = run_app(tasktype, *args, registry=make_reg(),
                trace_events=ALL_TRACE_EVENTS)
    return (label, r.elapsed, [e.line() for e in r.vm.tracer.events])


@BOTH_VEHICLES
def test_thread_pool_runs_bit_identical_to_serial(bodies):
    n = 6
    serial = [run_one(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(run_one, range(n)))
    for i, (ser, conc) in enumerate(zip(serial, concurrent)):
        label, ser_elapsed, ser_trace = ser
        _, conc_elapsed, conc_trace = conc
        assert conc_elapsed == ser_elapsed, (label, i)
        assert conc_trace == ser_trace, (label, i)


@BOTH_VEHICLES
def test_concurrent_fault_plans_stay_with_their_run(bodies):
    """Fault-plan ambient scoping under concurrency: a chaos run and a
    clean run of the same app, in parallel, each matching its own
    serial reference."""
    from repro.faults import FaultPlan, TaskKill, plan_scope

    plan = FaultPlan(seed=3, kills=(TaskKill(at=200, tasktype="SPIN"),))

    def clean():
        return run_one(2)

    def chaotic():
        with plan_scope(plan):
            return run_one(2)

    ref_clean, ref_chaotic = clean(), chaotic()
    assert ref_clean[1] != ref_chaotic[1] or ref_clean[2] != ref_chaotic[2]

    with ThreadPoolExecutor(max_workers=2) as pool:
        f_clean = pool.submit(clean)
        f_chaotic = pool.submit(chaotic)
        assert f_clean.result() == ref_clean
        assert f_chaotic.result() == ref_chaotic
