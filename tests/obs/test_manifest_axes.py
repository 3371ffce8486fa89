"""The run manifest records the reproduction inputs that can differ
between runs, and no retired execution axis: the window data plane and
the task-body vehicle are test oracles, not run settings."""

from repro.api import make_vm
from repro.obs.export import run_manifest


def test_manifest_records_all_execution_axes():
    vm = make_vm(n_clusters=1, slots=2)
    try:
        m = run_manifest(vm)
    finally:
        vm.shutdown()
    for axis in ("exec_core", "window_path", "task_bodies"):
        assert axis not in m
    assert m["dispatcher"] == "indexed"
