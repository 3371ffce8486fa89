"""The repro.api facade: make_vm / run_app / open_window / export_run."""

import numpy as np
import pytest

from repro import PiscesVM, TaskRegistry, api
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.taskid import PARENT, SAME
from repro.errors import ConfigurationError, PiscesError, WindowError


def _sq_registry():
    reg = TaskRegistry()

    @reg.tasktype("SQ")
    def sq(ctx, n):
        ctx.compute(10)
        return n * n

    return reg


def test_run_app_builds_vm_and_runs():
    r = api.run_app("SQ", 7, registry=_sq_registry(),
                    n_clusters=1, slots=2, name="facade")
    assert r.value == 49
    assert r.elapsed > 0


def test_run_app_on_existing_vm(make_vm):
    vm = api.make_vm(n_clusters=1, slots=2, registry=_sq_registry())
    try:
        r = api.run_app("SQ", 3, vm=vm, shutdown=False)
        assert r.value == 9
        r2 = api.run_app("SQ", 4, vm=vm, shutdown=False)
        assert r2.value == 16
    finally:
        vm.shutdown()


def test_run_app_rejects_vm_plus_construction_kwargs():
    vm = api.make_vm(n_clusters=1, slots=2, registry=_sq_registry())
    try:
        with pytest.raises(ConfigurationError):
            api.run_app("SQ", 1, vm=vm, n_clusters=2)
        with pytest.raises(ConfigurationError):
            api.run_app("SQ", 1, vm=vm, registry=_sq_registry())
    finally:
        vm.shutdown()


def test_make_vm_applies_toggles():
    vm = api.make_vm(n_clusters=2, slots=3, metrics=True,
                     time_limit=10**8, trace_events=("MSG_SEND",))
    try:
        assert vm.metrics.enabled
        assert vm.config.trace_events == ("MSG_SEND",)
        assert vm.config.time_limit == 10**8
        assert len(vm.clusters) == 2
    finally:
        vm.shutdown()


def test_make_vm_explicit_config_wins():
    cfg = Configuration(clusters=(ClusterSpec(1, 3, 5),), name="mine")
    vm = api.make_vm(n_clusters=4, config=cfg)
    try:
        assert isinstance(vm, PiscesVM)
        assert list(vm.clusters) == [1]
        assert vm.config.name == "mine"
    finally:
        vm.shutdown()


def test_open_window_on_file_store():
    reg = TaskRegistry()

    @reg.tasktype("NOOP")
    def noop(ctx):
        return None

    vm = api.make_vm(n_clusters=1, slots=2, registry=reg)
    try:
        vm.export_file("M", np.arange(36.0).reshape(6, 6))
        w = api.open_window(vm, "M", rows=(0, 3))
        assert w.shape == (3, 6)
        w2 = api.open_window(vm, "M")
        assert w2.shape == (6, 6)
    finally:
        vm.shutdown()


def test_open_window_errors_are_pisces_errors():
    vm = api.make_vm(n_clusters=1, slots=2)
    try:
        with pytest.raises(PiscesError):
            api.open_window(vm, "NOT-EXPORTED")
        fc, vm.file_controller = vm.file_controller, None
        try:
            with pytest.raises(WindowError):
                api.open_window(vm, "M")
        finally:
            vm.file_controller = fc
    finally:
        vm.shutdown()


def test_export_run_via_facade(tmp_path):
    reg = TaskRegistry()

    @reg.tasktype("PING")
    def ping(ctx):
        ctx.initiate("PONG", on=SAME)
        return ctx.accept("HI").args[0]

    @reg.tasktype("PONG")
    def pong(ctx):
        ctx.send(PARENT, "HI", 42)

    r = api.run_app("PING", registry=reg, n_clusters=1, slots=3,
                    metrics=True, trace_events=("MSG_SEND", "MSG_ACCEPT"))
    assert r.value == 42
    paths = api.export_run(r.vm, tmp_path, prefix="facade")
    assert paths
    for p in paths.values():
        assert p.exists()


def test_facade_names_reexported_from_package_root():
    import repro

    for name in ("make_vm", "run_app", "open_window", "plan_scope",
                 "export_run", "api"):
        assert hasattr(repro, name)
        assert name in repro.__all__
    assert repro.make_vm is api.make_vm
