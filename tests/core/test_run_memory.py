"""A finished run leaves no reference cycles behind.

``PiscesVM.shutdown()`` drops every edge that points back at the VM
(process bodies, engine pumps, task/controller/injector back-links),
so a finished run's whole graph is freed by reference counting the
moment its last holder lets go.  Each check runs with automatic GC off
and then asks the collector what it *would* have had to free: any
object of a ``repro`` type in that set sat in a cycle.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import threading
import weakref
from dataclasses import replace

import pytest

from repro.core.tracing import ALL_TRACE_EVENTS
from repro.core.vm import PiscesVM
from repro.obs.export import export_run, run_manifest
from repro.obs.profile import pe_gantt
from repro.service import catalog, executor
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from repro.service.store import DONE, FAILED, KILLED, RUNNING, RunStore
from tests.golden.digests import SPECS


@contextlib.contextmanager
def gc_off():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def cyclic_repro_garbage():
    """Type names (with counts) of the ``repro`` objects that only the
    cycle collector could free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = collections.Counter(
            type(o).__qualname__ for o in gc.garbage
            if (type(o).__module__ or "").startswith("repro"))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return dict(found)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_standalone_run_leaves_no_cycles(name):
    spec = RunSpec.from_dict(SPECS[name])
    with gc_off():
        standalone_run(spec)
        assert cyclic_repro_garbage() == {}


class KillAfter(threading.Event):
    """A kill event that reads as set from its ``n``-th check on, so
    the run dies mid-flight at a fixed point."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def is_set(self) -> bool:
        self.n -= 1
        return self.n < 0 or super().is_set()


BOOM = ("      TASK BOOM\n"
        "      INTEGER N\n"
        "      N = 1 / 0\n"
        "      END TASK\n")

#: Service executions: (spec, kill event, expected final state).
EXECUTIONS = {
    "traced": ({"app": "spin", "params": {"rounds": 20}, "trace": True},
               threading.Event, DONE),
    "checkpointing": ({"app": "spin",
                       "params": {"rounds": 200, "ticks_per_round": 50},
                       "checkpoint_every": 2_000},
                      threading.Event, DONE),
    "killed": ({"app": "spin", "params": {"rounds": 400_000}},
               lambda: KillAfter(50), KILLED),
    "failed": ({"app": "fortran", "params": {"source": BOOM}},
               threading.Event, FAILED),
}


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
def test_service_execution_leaves_no_cycles(name, tmp_path):
    spec, make_event, want = EXECUTIONS[name]
    store = RunStore(tmp_path / "store")
    rec = store.create("alice", RunSpec.from_dict(spec))
    rec = store.transition(rec.run_id, RUNNING)
    with gc_off():
        plan = catalog.build(rec.spec)
        handle = executor.ExecutionHandle(rec.run_id, make_event())
        final = executor.execute_run(rec, store, handle, plan)
        assert final.state == want
        del handle, plan
        assert cyclic_repro_garbage() == {}


@pytest.mark.parametrize("observer", ["profiling", "races"])
def test_vm_is_inspectable_after_shutdown_and_freed_on_release(
        observer, tmp_path):
    """Metrics plus one more engine observer: the profiler, or the race
    detector (which holds the VM until shutdown)."""
    plan = catalog.build(RunSpec.from_dict({"app": "matmul"}))
    config = replace(plan.config, trace_events=ALL_TRACE_EVENTS,
                     metrics_enabled=True)
    with gc_off():
        vm = PiscesVM(config, registry=plan.registry,
                      detect_races=observer == "races" or None)
        prof = vm.enable_profiling() if observer == "profiling" else None
        result = vm.run(plan.tasktype, *plan.args)
        assert vm.engine.shutting_down
        if observer == "races":
            det = vm.race_detector
            assert det.vm is None and det.accesses_checked > 0
            assert "race detection" in det.report_text()

        files = export_run(vm, tmp_path, prefix="run")
        assert files and all(p.exists() for p in files.values())
        assert run_manifest(vm)["config"]
        report = vm.storage_report()
        assert report["shared_common_bytes"] == 0
        if observer == "profiling":
            assert "PE" in pe_gantt(prof)
        assert result.elapsed == vm.machine.elapsed() > 0

        ref = weakref.ref(vm)
        del vm, result
        assert ref() is None      # freed by reference counting alone
