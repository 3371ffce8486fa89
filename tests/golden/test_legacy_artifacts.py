"""Artifacts written before the execution axes collapsed still work.

``legacy/`` holds two files written by a build that still had the
thread-per-process core, the ``scan`` dispatcher and the ``batched``
window path:

* ``jacobi_threaded_scan_batched.pckpt`` -- a mid-run periodic
  checkpoint of the catalog ``jacobi`` app taken on that leg;
* ``record.json`` -- a finished run record whose spec names
  ``exec_core``/``window_path``/``task_bodies``.

``expected.json`` holds what each must reproduce.
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


def test_legacy_bundle_restores_to_identical_history(tmp_path, monkeypatch):
    exp = EXPECTED["bundle"]
    # The bundle keeps checkpointing into its (relative) checkpoint_dir.
    monkeypatch.chdir(tmp_path)
    registry = catalog.build(RunSpec(app=exp["app"])).registry
    result = restore_vm(FIXTURES / exp["file"], registry=registry).resume()
    assert run_digest(result) == {k: exp[k] for k in
                                  ("elapsed", "trace_events", "trace_sha256")}


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
    exp = EXPECTED["bundle"]
    manifest, state, psched = load_bundle(FIXTURES / exp["file"])
    manifest["exec_core"] = "fibers"
    bad = tmp_path / "bad.pckpt"
    bad.write_text(dumps_bundle(manifest, state, psched))
    with pytest.raises(CheckpointFormatError, match="exec_core"):
        restore_vm(bad, registry=catalog.build(RunSpec(app=exp["app"])).registry)


def test_store_skips_a_record_with_an_unknown_axis_value(tmp_path):
    record = json.loads((FIXTURES / EXPECTED["record"]["file"]).read_text())
    record["spec"]["exec_core"] = "fibers"
    run_dir = tmp_path / "runs" / record["run_id"]
    run_dir.mkdir(parents=True)
    (run_dir / "record.json").write_text(json.dumps(record))
    svc = RunService(tmp_path, n_workers=1)
    assert svc.list_runs() == []
