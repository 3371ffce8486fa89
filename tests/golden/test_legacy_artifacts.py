"""Artifacts written before the execution axes collapsed still work.

``legacy/`` holds two files written by a build that still had the
thread-per-process core, the ``scan`` dispatcher and the ``batched``
window path:

* ``jacobi_threaded_scan_batched.pckpt`` -- a mid-run periodic
  checkpoint of the catalog ``jacobi`` app taken on that leg;
* ``record.json`` -- a finished run record whose spec names
  ``exec_core``/``window_path``/``task_bodies``.

``expected.json`` holds what each must reproduce.  Every value any
build wrote for those axes -- ``window_path`` fast/batched/reference,
``task_bodies`` auto/callable, in a bundle's manifest and its config,
in a spec and in a stored record -- loads and is dropped; a value no
build wrote is a typed error.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.api import restore_vm
from repro.checkpoint.format import dumps_bundle, load_bundle
from repro.errors import CheckpointFormatError
from repro.service import DONE, RunService, catalog
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from tests.golden.digests import run_digest

FIXTURES = Path(__file__).with_name("legacy")
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())

#: Execution-axis values no build ever wrote.
UNWRITTEN = (("exec_core", "fibers"), ("window_path", "slow"),
             ("task_bodies", "threads"))


def test_legacy_bundle_restores_to_identical_history(tmp_path, monkeypatch):
    exp = EXPECTED["bundle"]
    # The bundle keeps checkpointing into its (relative) checkpoint_dir.
    monkeypatch.chdir(tmp_path)
    registry = catalog.build(RunSpec(app=exp["app"])).registry
    result = restore_vm(FIXTURES / exp["file"], registry=registry).resume()
    assert run_digest(result) == {k: exp[k] for k in
                                  ("elapsed", "trace_events", "trace_sha256")}


def _rewrite_axes(tmp_path, **axes):
    """The legacy bundle with ``axes`` set in its manifest and config
    (checksum recomputed)."""
    bundle = FIXTURES / EXPECTED["bundle"]["file"]
    manifest, state, psched = load_bundle(bundle)
    manifest.update(axes)
    manifest["config"].update(axes)
    path = tmp_path / "rewritten.pckpt"
    path.write_text(dumps_bundle(manifest, state, psched))
    return path


@pytest.mark.parametrize("window_path,task_bodies", [
    ("reference", "callable"), ("batched", "auto"), ("fast", "callable")])
def test_every_written_axis_value_restores(window_path, task_bodies,
                                           tmp_path, monkeypatch):
    exp = EXPECTED["bundle"]
    monkeypatch.chdir(tmp_path)
    bundle = _rewrite_axes(tmp_path, window_path=window_path,
                           task_bodies=task_bodies)
    registry = catalog.build(RunSpec(app=exp["app"])).registry
    rr = restore_vm(bundle, registry=registry)
    assert "window_path" not in rr.manifest
    assert "task_bodies" not in rr.manifest
    assert run_digest(rr.resume()) == {
        k: exp[k] for k in ("elapsed", "trace_events", "trace_sha256")}


def test_store_with_legacy_record_boots_lists_and_reruns(tmp_path):
    exp = EXPECTED["record"]
    run_dir = tmp_path / "runs" / exp["run_id"]
    run_dir.mkdir(parents=True)
    shutil.copy(FIXTURES / exp["file"], run_dir / "record.json")
    svc = RunService(tmp_path, n_workers=1)
    try:
        (rec,) = svc.list_runs()
        assert rec.run_id == exp["run_id"] and rec.state == DONE
        assert rec.exit["elapsed_ticks"] == exp["elapsed_ticks"]
        assert standalone_run(rec.spec).elapsed == exp["elapsed_ticks"]
    finally:
        svc.stop(timeout=5.0)


def test_unknown_axis_value_in_a_bundle_is_refused(tmp_path):
    registry = catalog.build(RunSpec(app=EXPECTED["bundle"]["app"])).registry
    for axis, value in UNWRITTEN:
        bad = _rewrite_axes(tmp_path, **{axis: value})
        with pytest.raises(CheckpointFormatError, match=axis):
            restore_vm(bad, registry=registry)


def _legacy_record():
    return json.loads((FIXTURES / EXPECTED["record"]["file"]).read_text())


def _boot_store(tmp_path, record):
    """A service booted over a store holding only ``record``."""
    run_dir = tmp_path / "runs" / record["run_id"]
    run_dir.mkdir(parents=True)
    (run_dir / "record.json").write_text(json.dumps(record))
    return RunService(tmp_path, n_workers=1)


def test_store_skips_a_record_with_an_unknown_axis_value(tmp_path):
    for axis, value in UNWRITTEN:
        record = _legacy_record()
        record["spec"][axis] = value
        assert _boot_store(tmp_path / axis, record).list_runs() == []


@pytest.mark.parametrize("window_path,task_bodies", [
    ("reference", "auto"), ("fast", "callable"), ("batched", "auto")])
def test_store_loads_every_written_axis_value(window_path, task_bodies,
                                              tmp_path):
    record = _legacy_record()
    for d in (record["spec"], record["provenance"]):
        d.update(window_path=window_path, task_bodies=task_bodies)
    svc = _boot_store(tmp_path, record)
    (rec,) = svc.list_runs()
    assert rec.spec == RunSpec(app="spin", params=record["spec"]["params"])
