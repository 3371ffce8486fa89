"""Golden run counts of every golden spec.

For each spec of :data:`tests.golden.digests.SPECS`, the metrics
snapshot and the ``RunStats`` of :func:`standalone_run` (metrics on)
must equal the pinned ``counter_snapshots.json``.  The file pins both
count sources of a run, so a change to how events are counted shows up
here as a diff of named counters.

Regenerate (only when a counting change is intended)::

    PYTHONPATH=src python -m tests.golden.test_counter_snapshots --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from tests.golden.digests import SPECS

SNAPSHOT_FILE = Path(__file__).with_name("counter_snapshots.json")


def counts(spec: dict) -> dict:
    """The metrics snapshot and the RunStats dict of one spec's run."""
    result = standalone_run(RunSpec.from_dict(spec))
    return {"metrics": result.vm.metrics.snapshot(),
            "stats": result.stats.as_dict()}


def render(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(SNAPSHOT_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_counts_equal_the_golden_snapshot(golden, name):
    assert render(counts(SPECS[name])) == render(golden[name])


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    SNAPSHOT_FILE.write_text(
        render({name: counts(spec) for name, spec in SPECS.items()}),
        encoding="utf-8")
