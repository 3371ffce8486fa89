"""Crash-recovery soak: checkpoint, ``kill -9``, restore, resume.

For each (task-body vehicle, fault scenario): a victim subprocess runs
the fault-tolerant Jacobi solver with periodic checkpointing and a
:class:`~repro.faults.HostKill` in its plan -- the process is SIGKILLed
mid-run.  A fresh subprocess restores the latest valid bundle and
resumes.  Its final trace stream, fault-event stream, virtual elapsed
time and result grid must be byte-identical to an uninterrupted
reference run.  See ``tests/integration/_ckpt_runner.py`` for the
three subprocess modes.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from tests.oracles import BOTH_VEHICLES

ROOT = Path(__file__).resolve().parents[2]
RUNNER = ROOT / "tests" / "integration" / "_ckpt_runner.py"


def run_mode(*args, expect: int = 0):
    env = dict(os.environ)
    # The runner imports the task-body seam from tests/oracles.py.
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.run([sys.executable, str(RUNNER), *args],
                          env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=480)
    assert proc.returncode == expect, (
        f"runner {args} exited {proc.returncode} (wanted {expect}):\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc


@BOTH_VEHICLES
@pytest.mark.parametrize("scenario", ["plain", "faulty"])
def test_kill9_restore_is_bit_identical(bodies, scenario, tmp_path):
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    ref_out = tmp_path / "reference.json"
    res_out = tmp_path / "restored.json"

    run_mode("reference", str(ref_out), bodies, scenario)

    # The victim must die by SIGKILL, not finish, and must have left at
    # least one valid bundle behind.
    run_mode("victim", str(ckpt_dir), bodies, scenario,
             expect=-signal.SIGKILL)
    bundles = list(ckpt_dir.glob("*.pckpt"))
    assert bundles, "victim died before writing any checkpoint"

    run_mode("restore", str(ckpt_dir), str(res_out))

    ref = json.loads(ref_out.read_text())
    res = json.loads(res_out.read_text())
    assert res["elapsed"] == ref["elapsed"]
    assert res["grid_sha"] == ref["grid_sha"] is not None
    assert res["rounds"] == ref["rounds"]
    assert res["trace"] == ref["trace"]
    assert res["faults"] == ref["faults"]
    if scenario == "faulty":
        assert ref["faults"], "faulty scenario injected nothing"
