"""Crash-point enumeration of one service lifetime: the step count is
pinned and a fixed subset of crash points runs here.  Every point runs
with ``python -m tests.service.crash_points`` (see that module)."""

import json

import pytest

from repro.service import DONE, RunService
from repro.util import durable
from tests.service import crash_points as cp

#: Durable steps of the scripted lifetime: 30 durable writes of three
#: steps each -- 9 records, 4 ``.pckpt`` bundles, 16 artifacts and the
#: index.
N = 90


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    return cp.count_steps(tmp_path_factory.mktemp("count"))


def test_two_fresh_lifetimes_count_the_same_steps(steps, tmp_path):
    assert len(steps) == N
    assert cp.count_steps(tmp_path) == steps


def test_subset_covers_every_kind_of_file(steps):
    paths = [steps[k]["path"] for k in cp.subset(steps).values()]
    assert len(cp.SUBSET) <= 8
    for suffix in ("record.json", "runs.index", "run.events.jsonl",
                   ".pckpt"):
        assert any(p.endswith(suffix) for p in paths), suffix


@pytest.mark.parametrize("point", sorted(cp.SUBSET))
def test_crash_point(steps, tmp_path, point):
    cp.crash_point(tmp_path, cp.subset(steps)[point], steps)


@pytest.mark.parametrize("trace, fsyncs", [(True, 16), (False, 14)])
def test_fsyncs_per_served_run(tmp_path, monkeypatch, capsys, trace, fsyncs):
    """A served run syncs three records (QUEUED, RUNNING and DONE) and
    its artifacts, two fsyncs each; an untraced run writes no Chrome
    trace."""
    svc = RunService(tmp_path / "store", n_workers=1)
    monkeypatch.setattr(durable, "os", cp._Steps(tmp_path, None))
    rec = svc.submit("alice", {"app": "spin", "trace": trace})
    svc.start()
    try:
        cp._wait(lambda: svc.get_run(rec.run_id).state == DONE, "DONE")
    finally:
        svc.stop()
    steps = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    synced = [s["path"] for s in steps if s["step"].endswith("fsync")]
    assert len(synced) == fsyncs, synced
    assert sum(p.endswith("record.json") for p in synced) == 6
