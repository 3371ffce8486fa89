"""A store that cannot write: full disk, read-only root.

The faults are injected into the ``os`` and ``open`` of
:mod:`repro.util.durable`, the one module that writes files, so a write
fails the way a real one does -- after the ``.tmp`` file exists
(``fsync`` on a full disk) or before it can be created (a read-only
root).
"""

import errno
import json
import os
import time

import pytest

from repro.obs import export as obs_export
from repro.service import RunService
from repro.service import store as store_mod
from repro.service.spec import RunSpec
from repro.service.store import (DONE, FAILED, INDEX_NAME, RUNNING,
                                 RunRecord, RunStore)
from repro.util import durable

QUICK = {"app": "spin", "params": {"rounds": 5, "ticks_per_round": 10}}
SPEC = RunSpec(app="spin", params={"rounds": 3})


class _FullDisk:
    """Stands in for the durable-write module's ``os``: ``fsync`` raises
    ENOSPC while ``failures`` is non-zero (a count, or -1 for every
    call)."""

    def __init__(self):
        self.failures = 0
        self.raised = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        if self.failures:
            if self.failures > 0:
                self.failures -= 1
            self.raised += 1
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        os.fsync(fd)


@pytest.fixture
def disk(monkeypatch):
    disk = _FullDisk()
    monkeypatch.setattr(durable, "os", disk)
    return disk


def fail_from_done(monkeypatch, disk, failures):
    """Arm ``disk`` with ``failures`` at the first write of a DONE
    record."""
    real = store_mod._atomic_write_json

    def writer(path, payload):
        if payload["state"] == DONE and not disk.raised:
            disk.failures = failures
        real(path, payload)

    monkeypatch.setattr(store_mod, "_atomic_write_json", writer)


def wait_for(cond, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


def tmp_leftovers(root):
    return sorted(p.name for p in root.rglob("*.tmp"))


def test_failed_done_write_ends_the_run_failed(tmp_path, monkeypatch, disk):
    fail_from_done(monkeypatch, disk, failures=1)
    root = tmp_path / "store"
    svc = RunService(root, n_workers=1).start()
    try:
        rec = svc.submit("alice", QUICK)
        wait_for(lambda: svc.get_run(rec.run_id).state == FAILED)
    finally:
        svc.stop(timeout=10.0, kill_live=True)
    final = svc.get_run(rec.run_id)
    assert "OSError" in final.exit["error"]
    assert os.strerror(errno.ENOSPC) in final.exit["error"]
    assert tmp_leftovers(root) == []
    on_disk = json.loads(svc.store.record_path(rec.run_id).read_text())
    assert on_disk["state"] == FAILED


def test_worker_survives_a_store_that_cannot_write(tmp_path, monkeypatch,
                                                    disk):
    # From the DONE write on, every write fails: the FAILED write in
    # execute_run's handler too, so the OSError reaches the worker.
    fail_from_done(monkeypatch, disk, failures=-1)
    root = tmp_path / "store"
    svc = RunService(root, n_workers=1).start()
    try:
        stuck = svc.submit("alice", QUICK)
        wait_for(lambda: disk.raised >= 2
                 and stuck.run_id not in svc.health()["live_runs"])
        worker, = svc._workers
        worker.join(0.2)
        assert worker.is_alive()
        assert tmp_leftovers(root) == []
        on_disk = json.loads(svc.store.record_path(stuck.run_id).read_text())
        assert RunRecord.from_dict(on_disk).state == RUNNING

        disk.failures = 0
        later = svc.submit("alice", QUICK)
        wait_for(lambda: svc.get_run(later.run_id).state == DONE)
    finally:
        svc.stop(timeout=10.0, kill_live=True)

    rebooted = RunService(root, n_workers=1)
    assert [r.run_id for r in rebooted.recovered] == [stuck.run_id]
    assert rebooted.get_run(stuck.run_id).recovered == 1


def test_torn_trace_artifact_is_not_listed(tmp_path, monkeypatch):
    """A full disk inside the trace write: the DONE record lists no
    partial ``run.events.jsonl``, names the error and leaves no
    ``.tmp``."""
    def torn(events, f):
        f.write('{"partial": ')
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(obs_export, "write_jsonl", torn)
    svc = RunService(tmp_path / "store", n_workers=1).start()
    try:
        rec = svc.submit("alice", dict(QUICK, trace=True))
        wait_for(lambda: svc.get_run(rec.run_id).state == DONE)
    finally:
        svc.stop(timeout=10.0, kill_live=True)
    final = svc.get_run(rec.run_id)
    assert "run.events.jsonl" not in final.artifacts
    assert os.strerror(errno.ENOSPC) in final.exit["archive_error"]
    assert tmp_leftovers(svc.store.run_dir(rec.run_id)) == []


# ----------------------------------------------------- the boot index --

def _finished_store(root, n=3):
    store = RunStore(root)
    for _ in range(n):
        run_id = store.create("t", SPEC).run_id
        store.transition(run_id, RUNNING)
        store.transition(run_id, DONE)
    return [r.run_id for r in store.list()]


def test_boot_survives_a_full_disk_for_its_index(tmp_path, disk):
    root = tmp_path / "store"
    ids = _finished_store(root)
    disk.failures = -1
    assert [r.run_id for r in RunStore(root).list()] == ids
    assert disk.raised == 1
    assert not (root / INDEX_NAME).exists()
    assert tmp_leftovers(root) == []
    disk.failures = 0
    assert [r.run_id for r in RunStore(root).list()] == ids
    assert (root / INDEX_NAME).exists()


def test_boot_survives_a_read_only_root(tmp_path, monkeypatch):
    root = tmp_path / "store"
    ids = _finished_store(root)

    def read_only(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(durable, "open", read_only, raising=False)
    assert [r.run_id for r in RunStore(root).list()] == ids
    assert not (root / INDEX_NAME).exists()
    assert tmp_leftovers(root) == []
