"""The environment is not a source of run settings.

Each of the seven former ``PISCES_*`` variables is set to a value that
would change a run if anything still read it: a replay of a missing
``.psched``, a recording and checkpoints written into a directory the
test watches, the race detector in ``raise`` mode, the profiler, and a
one-tick system ACCEPT timeout.  Every golden spec must still reproduce
its frozen digest, and a served run must still end DONE with its usual
artifacts.
"""

import json
import time

import pytest

from repro.config.configuration import DEFAULT_ACCEPT_DELAY
from repro.service import DONE, TERMINAL_STATES, RunService
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from tests.golden.digests import DIGEST_FILE, run_digest

GOLDEN = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))["digests"]

#: What a served ``spin`` run archives.
SPIN_ARTIFACTS = ["manifest.json", "run.chrome.json", "run.events.jsonl",
                  "run.metrics.json", "run.metrics.txt"]


@pytest.fixture
def hostile(tmp_path, monkeypatch):
    """Set the former variables; yields the directory they point into,
    which must stay empty."""
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    for name, value in {
            "PISCES_ACCEPT_TIMEOUT": "1",
            "PISCES_CHECKPOINT": "1",
            "PISCES_CHECKPOINT_DIR": str(env_dir),
            "PISCES_DETECT_RACES": "raise",
            "PISCES_PROFILE": "1",
            "PISCES_RECORD_SCHEDULE": str(env_dir / "out.psched"),
            "PISCES_REPLAY_SCHEDULE": str(env_dir / "missing.psched"),
    }.items():
        monkeypatch.setenv(name, value)
    yield env_dir
    assert list(env_dir.iterdir()) == []


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_ignores_a_hostile_environment(name, hostile):
    golden = GOLDEN[name]
    r = standalone_run(RunSpec.from_dict(golden["spec"]))
    assert run_digest(r) == {k: golden[k] for k in
                             ("elapsed", "trace_events", "trace_sha256")}
    vm = r.vm
    assert vm.sched_hook is None
    assert vm.profiler is None and vm.race_detector is None
    assert vm.checkpointer is None
    assert vm.default_accept_delay == DEFAULT_ACCEPT_DELAY


def test_served_run_ignores_a_hostile_environment(hostile, tmp_path):
    svc = RunService(tmp_path / "store", n_workers=1).start()
    try:
        rec = svc.submit("alice", {"app": "spin"})
        deadline = time.monotonic() + 60
        while svc.get_run(rec.run_id).state not in TERMINAL_STATES:
            assert time.monotonic() < deadline, "run did not finish"
            time.sleep(0.02)
        final = svc.get_run(rec.run_id)
        assert final.state == DONE, final.exit
        assert "dispatcher" not in final.provenance
        assert sorted(final.artifacts) == SPIN_ARTIFACTS
    finally:
        svc.stop(timeout=10.0, kill_live=True)
