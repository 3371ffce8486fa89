"""Crash-point enumeration of one service lifetime: the step count is
pinned and a fixed subset of crash points runs here.  Every point runs
with ``python -m tests.service.crash_points`` (see that module)."""

import pytest

from tests.service import crash_points as cp

#: Durable steps of the scripted lifetime: 33 durable writes of three
#: steps each -- 12 records, 4 ``.pckpt`` bundles, 16 artifacts and the
#: index.
N = 99


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
