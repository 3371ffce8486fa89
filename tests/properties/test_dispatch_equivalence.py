"""Property test: the heap picker and both body forms agree with the
brute-force reference picker.

Hypothesis drives randomized spawn/wake/kill/deadline schedules through
engines that differ only in how the next process is picked (the
production two-level heap vs :class:`ScanEngine`, a brute-force O(n)
oracle kept here and nowhere else) and in the body form (callable
bodies on worker threads vs coroutine bodies on the engine thread), and
demands the complete slice trace -- (pe, start, end, name) for every
slice, in dispatch order -- plus the final PE clock readings and the
outcome (normal completion or deadlock) be identical.  This is the
stale-free heap's bookkeeping under adversarial interleavings: re-keys
after PE clock advances, deadline wakeups, wakes that beat deadlines,
kills of blocked and ready processes.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError
from repro.flex.presets import small_flex
from repro.mmos.process import co_block, co_charge, co_preempt
from repro.mmos.scheduler import Engine


class ScanEngine(Engine):
    """The reference picker: every dispatch scans all processes for the
    least ``(start, last_dispatched, pid)`` key.  No index to keep."""

    def _requeue(self, p):
        pass

    def _pop_runnable(self):
        best, best_key = None, None
        for p in self._procs.values():
            if self._is_runnable(p):
                key = self._runnable_key(p)
                if best_key is None or key < best_key:
                    best, best_key = p, key
        return best, best_key


N_PES = 4
PES = list(range(3, 3 + N_PES))   # small_flex MMOS PEs start at 3

op = st.one_of(
    st.tuples(st.just("charge"), st.integers(0, 20)),
    st.tuples(st.just("preempt"), st.integers(0, 5)),
    # nap: block with a deadline -- always runnable again
    st.tuples(st.just("nap"), st.integers(0, 30)),
    # park: block with no deadline; relies on a wake (or deadlocks --
    # every engine must agree on that too)
    st.tuples(st.just("park"), st.just(0)),
    st.tuples(st.just("wake"), st.integers(0, 7)),
    st.tuples(st.just("kill"), st.integers(0, 7)),
)

schedule = st.lists(
    st.tuples(
        st.integers(0, N_PES - 1),          # pe index
        st.integers(0, 40),                 # start_time
        st.lists(op, min_size=1, max_size=7),
    ),
    min_size=1, max_size=6)


def run_schedule(engine_cls, procs, coroutine=False):
    eng = engine_cls(small_flex(8))
    eng.record_slices = True
    handles = []

    def make_body(ops):
        def body():
            for kind, arg in ops:
                if kind == "charge":
                    eng.charge(arg)
                elif kind == "preempt":
                    eng.preempt(arg)
                elif kind == "nap":
                    eng.block("nap", deadline=eng.now() + arg, cost=1)
                elif kind == "park":
                    eng.block("park", cost=1)
                elif kind == "wake":
                    eng.wake(handles[arg % len(handles)], info="hi")
                    eng.preempt(1)
                elif kind == "kill":
                    victim = handles[arg % len(handles)]
                    eng.kill(victim)
                    eng.preempt(1)
        return body

    def make_gen_body(ops):
        # The coroutine form of the identical program: kernel points
        # become yielded KernelOps (engine-side calls like wake/kill
        # stay plain calls -- they never block).
        def body():
            for kind, arg in ops:
                if kind == "charge":
                    yield co_charge(arg)
                elif kind == "preempt":
                    yield co_preempt(arg)
                elif kind == "nap":
                    yield co_block("nap", deadline=eng.now() + arg, cost=1)
                elif kind == "park":
                    yield co_block("park", cost=1)
                elif kind == "wake":
                    eng.wake(handles[arg % len(handles)], info="hi")
                    yield co_preempt(1)
                elif kind == "kill":
                    victim = handles[arg % len(handles)]
                    eng.kill(victim)
                    yield co_preempt(1)
        return body

    make = make_gen_body if coroutine else make_body
    for i, (pe_ix, start, ops) in enumerate(procs):
        handles.append(eng.spawn(f"p{i}", PES[pe_ix], make(ops),
                                 start_time=start))
    outcome = "ok"
    try:
        eng.run()
    except DeadlockError:
        outcome = "deadlock"
    trace = list(eng.slices)
    clocks = eng.machine.clocks.snapshot()
    dispatches = eng.dispatch_count
    eng.shutdown()
    return outcome, trace, clocks, dispatches


@given(schedule)
@settings(max_examples=40, deadline=None)
def test_dispatchers_produce_identical_slice_traces(procs):
    a = run_schedule(Engine, procs)
    b = run_schedule(ScanEngine, procs)
    assert a == b, (
        f"dispatcher divergence:\n heap={a}\n scan={b}")


@given(schedule)
@settings(max_examples=25, deadline=None)
def test_coroutine_bodies_match_callable_bodies_on_both_cores(procs):
    """Body-form invariance: the generator form of the same program,
    resumed on the engine thread, must retrace the callable form on
    worker threads exactly -- under the heap and the scan oracle."""
    ref = run_schedule(Engine, procs)
    for engine_cls in (Engine, ScanEngine):
        got = run_schedule(engine_cls, procs, coroutine=True)
        assert got == ref, (
            f"coroutine bodies under {engine_cls.__name__} diverged "
            f"from callable bodies:\n got={got}\n ref={ref}")


# --------------------------------------------------------------- app zoo --
#
# The hypothesis properties above exercise raw engine schedules; the
# tests below run every full application in the repo under both
# task-body vehicles (auto, callable) and demand identical virtual
# time, dispatch counts and complete trace streams.
# This is the task-runtime acceptance contract: a PISCES program's
# observable history does not depend on how its bodies are executed.

import dataclasses

import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.tracing import TraceEventType
from repro.core.vm import PiscesVM

_ALL_EVENTS = tuple(t.value for t in TraceEventType)


def _two_clusters(slots):
    return tuple(ClusterSpec(number=i, primary_pe=2 + i, slots=slots)
                 for i in (1, 2))


def _force_cluster():
    return (ClusterSpec(number=1, primary_pe=3, slots=2,
                        secondary_pes=(4, 5, 6)),)


def _case_jacobi_windows():
    from repro.apps.jacobi import build_windows_registry
    return (build_windows_registry(12, 2, 3),
            Configuration(clusters=_two_clusters(3), name="zoo-jacobi-w"),
            "JMASTER", ())


def _case_jacobi_force():
    from repro.apps.jacobi import build_force_registry
    return (build_force_registry(10, 2),
            Configuration(clusters=_force_cluster(), name="zoo-jacobi-f"),
            "JFORCE", (10, 2))


def _case_matmul_tasks():
    from repro.apps.matmul import build_tasks_registry
    return (build_tasks_registry(10, 3),
            Configuration(clusters=_two_clusters(3), name="zoo-matmul-t"),
            "MMASTER", ())


def _case_matmul_force():
    from repro.apps.matmul import build_force_registry
    return (build_force_registry(8),
            Configuration(clusters=_force_cluster(), name="zoo-matmul-f"),
            "MFORCE", ())


def _case_matmul_hybrid():
    from repro.apps.matmul import build_hybrid_registry
    clusters = (ClusterSpec(1, 3, 3, (6, 7)), ClusterSpec(2, 4, 3, (8, 9)))
    return (build_hybrid_registry(10, 2),
            Configuration(clusters=clusters, name="zoo-matmul-h"),
            "HMASTER", ())


def _case_fem():
    from repro.apps.fem import FEMProblem, build_fem_registry
    return (build_fem_registry(FEMProblem(n_elements=6)),
            Configuration(clusters=_force_cluster(), name="zoo-fem"),
            "FEM", ())


def _case_truss():
    from repro.apps.truss import build_truss_registry, pratt_truss
    return (build_truss_registry(pratt_truss(n_panels=2)),
            Configuration(clusters=_force_cluster(), name="zoo-truss"),
            "TRUSS", ())


def _case_integrate():
    from repro.apps.integrate import build_integrate_registry, \
        default_integrand
    return (build_integrate_registry(default_integrand, 0.0, 3.0, 8, 6, 3),
            Configuration(clusters=_two_clusters(3), name="zoo-integrate"),
            "IMASTER", ())


def _case_pipeline():
    from repro.apps.pipeline import build_pipeline_registry
    return (build_pipeline_registry(3, list(range(6))),
            Configuration(clusters=_two_clusters(4), name="zoo-pipeline"),
            "COORD", ())


def _case_chaos_jacobi():
    from repro.apps.chaos_jacobi import build_chaos_registry
    return (build_chaos_registry(10, 2, 2, None, "abort", 8_000, 60_000,
                                 200),
            Configuration(clusters=_two_clusters(3), name="zoo-chaos"),
            "CMASTER", ())


APP_CASES = {
    "jacobi_windows": _case_jacobi_windows,
    "jacobi_force": _case_jacobi_force,
    "matmul_tasks": _case_matmul_tasks,
    "matmul_force": _case_matmul_force,
    "matmul_hybrid": _case_matmul_hybrid,
    "fem": _case_fem,
    "truss": _case_truss,
    "integrate": _case_integrate,
    "pipeline": _case_pipeline,
    "chaos_jacobi": _case_chaos_jacobi,
}

def _run_app_leg(case, task_bodies):
    registry, config, tasktype, args = case()
    config = dataclasses.replace(config, task_bodies=task_bodies,
                                 trace_events=_ALL_EVENTS)
    vm = PiscesVM(config, registry=registry)
    r = vm.run(tasktype, *args)
    return {
        "elapsed": r.elapsed,
        "dispatches": vm.engine.dispatch_count,
        "trace": [e.line() for e in vm.tracer.events],
    }


@pytest.mark.parametrize("app", sorted(APP_CASES))
def test_app_zoo_identical_across_cores_and_vehicles(app):
    ref = _run_app_leg(APP_CASES[app], "auto")
    assert ref["trace"], "tracing must be live for the comparison to bite"
    got = _run_app_leg(APP_CASES[app], "callable")
    assert got == ref, (
        f"{app}: callable bodies diverged from coroutine bodies "
        f"(elapsed {got['elapsed']} vs {ref['elapsed']})")


@pytest.mark.parametrize("app", sorted(APP_CASES))
def test_app_zoo_runs_threadless_on_coop(app):
    """With coroutine bodies nothing gets an OS thread: controllers,
    task bodies and force members all suspend at the KernelOp seam on
    the engine thread."""
    registry, config, tasktype, args = APP_CASES[app]()
    config = dataclasses.replace(config, task_bodies="auto")
    vm = PiscesVM(config, registry=registry)
    vm.run(tasktype, *args)
    procs = vm.engine._by_ordinal
    assert procs, "the run must have spawned processes"
    threaded = [p.name for p in procs if p.thread is not None]
    assert not threaded, f"worker threads: {threaded}"
