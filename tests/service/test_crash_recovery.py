"""kill -9 the service mid-run; restart; the store recovers and the
interrupted run completes by checkpoint-resume.  And no tenant input can
SIGKILL the service: a fault plan's ``hostkill`` is refused.

A SIGKILL cannot be tested in-process (worker threads can't be
SIGKILLed, and a host kill would end the test process), so the service
runs as a real ``python -m repro.service`` subprocess over HTTP.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import InvalidRunSpec
from repro.service import FAILED, TERMINAL_STATES
from repro.service.client import ServiceClient
from repro.service.spec import RunSpec
from repro.service.store import RunStore

#: Long enough to survive until the SIGKILL, checkpointing often.
CHECKPOINTED_SPIN = {
    "app": "spin",
    "params": {"rounds": 60_000, "ticks_per_round": 50},
    "checkpoint_every": 100_000,
}
#: A plain run interrupted alongside: recovered by re-queue + rerun.
PLAIN_SPIN = {"app": "spin", "params": {"rounds": 60_000,
                                        "ticks_per_round": 50}}
#: A run whose fault plan would SIGKILL the process executing it.
HOST_KILL_SPIN = {"app": "spin", "fault_plan": "hostkill at 10"}


def boot_service(root: Path) -> "tuple[subprocess.Popen, dict]":
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--root", str(root),
         "--workers", "2"],
        stdout=subprocess.PIPE, env=env)
    line = proc.stdout.readline()
    assert line, "service printed no boot line"
    return proc, json.loads(line)


def stop_service(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    proc.stdout.close()


def wait_alive(proc, client, run_id, timeout=60.0):
    """The run's final record, polled while asserting the service lives."""
    deadline = time.monotonic() + timeout
    while True:
        assert proc.poll() is None, \
            f"the service died with exit {proc.returncode}"
        try:
            rec = client.get_run(run_id)
        except OSError:       # refused: the next poll names the death
            rec = None
        if rec is not None and rec["state"] in TERMINAL_STATES:
            return rec
        assert time.monotonic() < deadline, rec
        time.sleep(0.05)


def test_host_kill_refused_at_submit(tmp_path):
    proc, info = boot_service(tmp_path / "store")
    try:
        client = ServiceClient(info["url"], tenant="alice")
        with pytest.raises(InvalidRunSpec, match="hostkill"):
            client.submit(HOST_KILL_SPIN)
        assert client.list_runs() == []
        run_id = client.submit({"app": "spin"})["run_id"]
        assert wait_alive(proc, client, run_id)["state"] == "DONE"
    finally:
        stop_service(proc)


def test_stored_host_kill_run_fails_instead_of_crash_looping(tmp_path):
    """A record stored before the refusal (or by another version)
    boots, ends FAILED with the typed error, and the service lives."""
    root = tmp_path / "store"
    run_id = RunStore(root).create(
        "alice", RunSpec.from_dict(HOST_KILL_SPIN)).run_id
    proc, info = boot_service(root)
    try:
        client = ServiceClient(info["url"], tenant="alice")
        assert client.health()["status"] == "ok"
        final = wait_alive(proc, client, run_id)
        assert final["state"] == FAILED
        assert final["exit"]["error"].startswith("InvalidRunSpec: ")
        assert "hostkill" in final["exit"]["error"]
        assert client.health()["status"] == "ok"
    finally:
        stop_service(proc)


@pytest.mark.slow
def test_sigkill_restart_checkpoint_resume(tmp_path):
    root = tmp_path / "store"
    proc, info = boot_service(root)
    try:
        client = ServiceClient(info["url"], tenant="alice")
        ck = client.submit(CHECKPOINTED_SPIN)
        plain = client.submit(PLAIN_SPIN)

        # Wait until the checkpointed run has actually checkpointed.
        ck_dir = root / "runs" / ck["run_id"] / "checkpoints"
        deadline = time.monotonic() + 120
        while not list(ck_dir.glob("*.pckpt")):
            assert time.monotonic() < deadline, "no checkpoint appeared"
            assert proc.poll() is None
            time.sleep(0.05)
        assert client.get_run(ck["run_id"])["state"] == "RUNNING"

        # The crash: no shutdown hooks, no flush, nothing.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        # Restart over the same store.
        proc, info = boot_service(root)
        assert set(info["recovered"]) >= {ck["run_id"], plain["run_id"]}
        client = ServiceClient(info["url"], tenant="alice")

        done_ck = client.wait(ck["run_id"], timeout=240)
        done_plain = client.wait(plain["run_id"], timeout=240)

        # Both interrupted runs completed after the restart...
        assert done_ck["state"] == "DONE"
        assert done_plain["state"] == "DONE"
        assert done_ck["recovered"] == 1
        # ... the checkpointing one by resuming its .pckpt, not rerunning
        assert done_ck["exit"]["resumed_from"], done_ck["exit"]
        # ... and the resumed run's virtual time is the uninterrupted
        # run's: 60k rounds x 50 ticks + boot overhead, same as the
        # plain rerun's total.
        assert done_ck["exit"]["elapsed_ticks"] \
            == done_plain["exit"]["elapsed_ticks"]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
