"""The run manifest records every reproduction axis -- including the
task-body vehicle, so an archived run is fully re-runnable."""

from repro.api import make_vm
from repro.obs.export import run_manifest


def test_manifest_records_all_execution_axes():
    vm = make_vm(n_clusters=1, slots=2)
    try:
        m = run_manifest(vm)
    finally:
        vm.shutdown()
    assert "exec_core" not in m
    assert m["task_bodies"] in ("auto", "callable")
    assert m["window_path"] in ("fast", "reference")
    assert m["dispatcher"] == "indexed"


def test_manifest_task_bodies_follows_config():
    vm = make_vm(n_clusters=1, slots=2, task_bodies="callable")
    try:
        m = run_manifest(vm)
    finally:
        vm.shutdown()
    assert m["task_bodies"] == "callable"
