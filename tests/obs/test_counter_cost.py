"""Work counts of the metrics layer: Python calls per dispatch and per
message, counted with ``sys.setprofile`` / ``threading.setprofile``
(``call`` and ``c_call`` events) over ``vm.run``.

Call counts are deterministic for a given interpreter, unlike wall
time, so they can gate the cost of metering on any host.  The ratio
bounds hold on every CPython; the absolute bounds are the counts before
the registry's hot sites were pre-bound, measured on CPython 3.11, and
only apply there.
"""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro import ClusterSpec, Configuration, PiscesVM

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

#: This module's counts before pre-binding (CPython 3.11): task_runtime
#: 24x400 ran 9,713 dispatches in 224,050 calls with metrics off (23.07
#: per dispatch) and 395,488 on (40.72); the backlog program sent 4,978
#: messages in 3,322,093 calls off (667.4 per message) and 3,640,488 on
#: (731.3).
TASK_RUNTIME_OFF, TASK_RUNTIME_ON = 224_050, 395_488
BACKLOG_OFF, BACKLOG_ON = 3_322_093, 3_640_488
BACKLOG_MESSAGES = 4_978

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
    VM down), on every thread."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        vm.run(tasktype)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return calls


def _measure(registry, clusters, tasktype, metrics):
    config = Configuration(clusters=clusters, name="counter-cost",
                           metrics_enabled=metrics)
    vm = PiscesVM(config, registry=registry)
    calls = count_calls(vm, tasktype)
    return calls, vm.engine.dispatch_count, vm.stats.messages_sent


@pytest.fixture(scope="module")
def task_runtime():
    """metrics flag -> (calls, dispatches) of task_runtime 24x400."""
    bench = _engine_bench()
    clusters = (ClusterSpec(1, 3, 16), ClusterSpec(2, 4, 16))
    return {m: _measure(bench.build_task_runtime_registry(24, 400),
                        clusters, "TRMASTER", m)[:2]
            for m in (False, True)}


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
