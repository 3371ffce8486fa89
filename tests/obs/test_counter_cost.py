"""Work counts of the metrics layer: Python calls per dispatch and per
message, counted with ``sys.setprofile`` / ``threading.setprofile``
(``call`` and ``c_call`` events) over ``vm.run``.

Call counts are deterministic for a given interpreter, unlike wall
time, so they can gate the cost of metering and of every engine
observer on any host.  The ratio bounds hold on every CPython; the
absolute bounds are counts measured on CPython 3.11 at earlier
commits, and only apply there.
"""

import gc
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro import ClusterSpec, Configuration, PiscesVM
from repro.apps import fortran_programs
from repro.correctness.recorder import Schedule
from repro.service import catalog
from repro.service.executor import ExecutionHandle
from repro.service.spec import RunSpec
from tests.golden.digests import ADDUP_SOURCE

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

#: This module's counts before pre-binding (CPython 3.11): task_runtime
#: 24x400 ran 9,713 dispatches in 224,050 calls with metrics off (23.07
#: per dispatch) and 395,488 on (40.72); the backlog program sent 4,978
#: messages in 3,322,093 calls off (667.4 per message) and 3,640,488 on
#: (731.3).
TASK_RUNTIME_OFF, TASK_RUNTIME_ON = 224_050, 395_488
BACKLOG_OFF, BACKLOG_ON = 3_322_093, 3_640_488
BACKLOG_MESSAGES = 4_978

#: task_runtime 24x400 calls with each other observer configuration,
#: measured with :func:`count_calls` (CPython 3.11) before the engine's
#: observers moved onto one list: the causal profiler, the race
#: detector, and the run service's metrics plus kill check; and before
#: recording, replay and the checkpoint prefix became one schedule: a
#: recording run, and the replay of its ``.psched``.  A new per-slice
#: call adds 9,713.
TASK_RUNTIME_OBSERVED = {"profiler": 360_127, "races": 226_896,
                         "service": 265_577, "record": 243_349,
                         "replay": 267_419}

#: Fortran runs as (calls, dispatches), counted with :func:`count_calls`
#: (CPython 3.11) in a fresh interpreter when the preprocessor emitted
#: plain functions and every task ran on its own worker thread: ADDUP
#: on the catalog's ``fortran`` plan, and the ``master_worker`` library
#: program on its default configuration.
FORTRAN_THREADED = {"addup": (868, 15), "master_worker": (8_021, 70)}

on_cpython_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="absolute call counts are pinned on CPython 3.11")


def _engine_bench():
    """benchmarks/test_engine_throughput.py, which builds the programs."""
    spec = importlib.util.spec_from_file_location(
        "_engine_throughput_bench", BENCH_DIR / "test_engine_throughput.py")
    mod = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return mod


def count_calls(vm: PiscesVM, tasktype: str) -> int:
    """Python and C calls made by ``vm.run(tasktype)`` (which shuts the
    VM down), on every thread.

    The cycle collector is off while counting, after one collection: a
    collection during the run would count the finalizers of whatever
    garbage earlier code left, which varies with what ran before.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        vm.run(tasktype)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls


def _measure(registry, clusters, tasktype, metrics, observers=""):
    """(calls, dispatches, messages sent); ``observers`` names the
    observer configuration: "", "profiler", "races", "service",
    "record" (a recording run) or "replay" (the replay of a recording
    made first, uncounted)."""
    config = Configuration(clusters=clusters, name="counter-cost",
                           metrics_enabled=metrics)
    schedule = None
    if observers == "replay":
        schedule = Schedule()
        PiscesVM(config, registry=registry, schedule=schedule).run(tasktype)
        schedule = Schedule.parse(schedule.dumps())
    elif observers == "record":
        schedule = Schedule()
    vm = PiscesVM(config, registry=registry, schedule=schedule,
                  detect_races=observers == "races" or None)
    if observers == "profiler":
        vm.enable_profiling()
    elif observers == "service":
        vm.engine.observe(ExecutionHandle("r", threading.Event()))
    calls = count_calls(vm, tasktype)
    return calls, vm.engine.dispatch_count, vm.stats.messages_sent


def _task_runtime(metrics, observers=""):
    bench = _engine_bench()
    clusters = (ClusterSpec(1, 3, 16), ClusterSpec(2, 4, 16))
    return _measure(bench.build_task_runtime_registry(24, 400), clusters,
                    "TRMASTER", metrics, observers)[:2]


@pytest.fixture(scope="module")
def task_runtime():
    """metrics flag -> (calls, dispatches) of task_runtime 24x400."""
    return {m: _task_runtime(m) for m in (False, True)}


@pytest.fixture(scope="module")
def backlog():
    """metrics flag -> (calls, messages sent) of the backlog program."""
    bench = _engine_bench()
    clusters = (ClusterSpec(1, 3, 8), ClusterSpec(2, 4, 8),
                ClusterSpec(3, 5, 8))
    out = {}
    for m in (False, True):
        calls, _, sent = _measure(bench.build_backlog_registry(8, 20, 30),
                                  clusters, "BMAIN", m)
        out[m] = (calls, sent)
    return out


def test_metering_adds_at_most_15pct_calls_per_dispatch(task_runtime):
    (off, d_off), (on, d_on) = task_runtime[False], task_runtime[True]
    assert d_off == d_on
    assert on / d_on <= 1.15 * (off / d_off)


def test_metering_costs_less_per_message_than_before(backlog):
    (off, sent), (on, sent_on) = backlog[False], backlog[True]
    assert sent == sent_on == BACKLOG_MESSAGES
    assert on / off < BACKLOG_ON / BACKLOG_OFF


@on_cpython_311
def test_unmetered_calls_per_dispatch_do_not_rise(task_runtime):
    calls, dispatches = task_runtime[False]
    assert dispatches == 9_713
    assert calls <= TASK_RUNTIME_OFF


@on_cpython_311
def test_unmetered_calls_per_message_do_not_rise(backlog):
    calls, sent = backlog[False]
    assert sent == BACKLOG_MESSAGES
    assert calls <= BACKLOG_OFF


@on_cpython_311
def test_metered_calls_per_message_fall(backlog):
    calls, sent = backlog[True]
    assert sent == BACKLOG_MESSAGES
    assert calls < BACKLOG_ON


@on_cpython_311
def test_metered_calls_per_dispatch_fall(task_runtime):
    calls, dispatches = task_runtime[True]
    assert dispatches == 9_713
    assert calls < TASK_RUNTIME_ON


@on_cpython_311
@pytest.mark.parametrize("observers", sorted(TASK_RUNTIME_OBSERVED))
def test_observed_calls_per_dispatch_do_not_rise(observers):
    calls, dispatches = _task_runtime(observers == "service", observers)
    assert dispatches == 9_713
    assert calls <= TASK_RUNTIME_OBSERVED[observers]


def _fortran(name):
    """(calls, dispatches) of one :data:`FORTRAN_THREADED` run."""
    if name == "addup":
        plan = catalog.build(RunSpec.from_dict(
            {"app": "fortran", "params": {"source": ADDUP_SOURCE}}))
        config, registry, tasktype = plan.config, plan.registry, plan.tasktype
    else:
        config = fortran_programs.default_configuration(name)
        registry = fortran_programs.load(name).registry
        tasktype = "MAIN"
    vm = PiscesVM(config, registry=registry)
    return count_calls(vm, tasktype), vm.engine.dispatch_count


@on_cpython_311
@pytest.mark.parametrize("name", sorted(FORTRAN_THREADED))
def test_fortran_calls_per_dispatch_fall(name):
    calls, dispatches = _fortran(name)
    threaded_calls, threaded_dispatches = FORTRAN_THREADED[name]
    assert dispatches == threaded_dispatches
    assert calls / dispatches < threaded_calls / threaded_dispatches
