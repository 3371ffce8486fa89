"""ALICE-style crash-point enumeration over one service lifetime.

After Pillai et al., "All File Systems Are Not Created Equal" (OSDI
2014).  Every file the package writes goes through
:mod:`repro.util.durable`, whose durable steps are a file fsync, an
``os.replace`` and a directory fsync.  :func:`lifetime` scripts one
service life over a fresh store -- a traced run, a checkpointing run
and a run killed mid-flight, each archived, then a reboot -- in a child
process whose durable-write module has its ``os`` replaced.  Counting
mode reports each step; crash mode ``os._exit``\\ s just before step k.
After each crash :func:`check_point` boots a service over the store,
lets the re-queued runs finish and checks the store against two
oracles, the store's own ``_TRANSITIONS`` table and
:func:`~repro.service.executor.standalone_run`.

Run every point and write the per-point report (N, k, step, path,
verdict) as JSON lines::

    PYTHONPATH=src python -m tests.service.crash_points --report crash-points.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.checkpoint.format import load_bundle
from repro.correctness.recorder import Schedule
from repro.obs.export import write_jsonl
from repro.service import RunService
from repro.service.executor import standalone_run
from repro.service.store import (_TRANSITIONS, DONE, KILLED, LIVE_STATES,
                                 QUEUED, TERMINAL_STATES)
from repro.util import durable

REPO = Path(__file__).resolve().parents[2]

TRACED = {"app": "pipeline", "trace": True}
#: Four bundles (marks at 5,000..20,000 ticks), the oldest pruned.
CHECKPOINTED = {"app": "spin", "params": {"rounds": 2000,
                                          "ticks_per_round": 10},
                "checkpoint_every": 5000, "trace": True}
#: Long enough to be killed while it runs; re-run whole after a crash
#: that comes before its KILLED record.
VICTIM = {"app": "spin", "params": {"rounds": 100_000,
                                    "ticks_per_round": 10},
          "trace": True}
LIFETIME = (TRACED, CHECKPOINTED, VICTIM)

#: The child's exit status when it crashes at its step.
CRASHED = 75

#: The tier-1 subset: one point per kind of file the service writes.
#: Each names (step, path suffix, record state written or None, which
#: match) and picks that match among the counted steps.
SUBSET = {
    "submit": ("file-fsync", "record.json", None, 0),
    "done-record": ("replace", "record.json", DONE, 0),
    "trace-artifact": ("file-fsync", "run.events.jsonl", None, 0),
    "psched-artifact": ("dir-fsync", "run.psched", None, 0),
    "first-pckpt": ("file-fsync", ".pckpt", None, 0),
    "resume-pckpt": ("replace", ".pckpt", None, 1),
    "killed-record": ("replace", "record.json", KILLED, 0),
    "index": ("replace", "runs.index", None, 0),
}


# ------------------------------------------------------------- the child --

_out = threading.Lock()


def _emit(**fields) -> None:
    with _out:
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()


class _Steps:
    """Stands in for the durable-write module's ``os``: reports each
    durable step and ``os._exit``\\ s just before step ``crash_at``."""

    def __init__(self, root: Path, crash_at: Optional[int]):
        self.root, self.crash_at, self.k = root, crash_at, 0
        self.replaced = ""

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            self._step("dir-fsync", self.replaced)
        else:
            tmp = os.readlink(f"/proc/self/fd/{fd}")
            self._step("file-fsync", tmp[:-len(".tmp")])
        os.fsync(fd)

    def replace(self, src, dst):
        state = None
        if os.path.basename(dst) == "record.json":
            with open(src, "rb") as f:
                state = json.loads(f.read())["state"]
        self.replaced = dst
        self._step("replace", dst, state)
        os.replace(src, dst)

    def _step(self, step, path, state=None):
        if self.k == self.crash_at:
            _emit(crash=self.k)
            os._exit(CRASHED)
        _emit(k=self.k, step=step, path=os.path.relpath(path, self.root),
              state=state)
        self.k += 1


def _wait(cond, what: str, timeout=120.0) -> None:
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, f"never {what}"
        time.sleep(0.005)


def lifetime(root: Path, crash_at: Optional[int]) -> None:
    """The scripted service life.  One thing happens at a time, so the
    steps come in the same order every time."""
    steps = durable.os = _Steps(root, crash_at)
    svc = RunService(root, n_workers=1).start()
    for spec in LIFETIME:
        run_id = svc.submit("alice", spec).run_id
        _emit(ack=run_id)
        if spec is VICTIM:
            # Killed once its VM runs, so it archives what it did.
            _wait(lambda: svc._live_vm(run_id) is not None,
                  f"booted {run_id}")
            svc.kill(run_id)
        _wait(lambda: svc.get_run(run_id).state in TERMINAL_STATES,
              f"finished {run_id}")
    svc.stop()
    RunService(root)                  # the reboot writes runs.index
    _emit(n=steps.k)


# ------------------------------------------------------------ the parent --

def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")])
    return env


def run_child(root: Path, crash_at: Optional[int] = None) -> dict:
    """Run :func:`lifetime` in a child process; returns its exit status,
    the steps it completed and the run ids whose submit it saw return."""
    args = [sys.executable, "-m", "tests.service.crash_points",
            "--child", str(root)]
    if crash_at is not None:
        args += ["--crash-at", str(crash_at)]
    proc = subprocess.run(args, env=_env(), capture_output=True, text=True,
                          timeout=300)
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    return {"returncode": proc.returncode, "stderr": proc.stderr,
            "steps": [o for o in out if "step" in o],
            "acked": [o["ack"] for o in out if "ack" in o]}


def count_steps(workdir: Path) -> List[dict]:
    """The durable steps of one uninterrupted lifetime; N is their
    number."""
    child = run_child(Path(workdir) / "count")
    assert child["returncode"] == 0, child["stderr"]
    return child["steps"]


def subset(steps: List[dict]) -> Dict[str, int]:
    """The k of each :data:`SUBSET` point."""
    points = {}
    for name, (step, suffix, state, nth) in SUBSET.items():
        ks = [s["k"] for s in steps if s["step"] == step
              and s["path"].endswith(suffix)
              and state in (None, s["state"])]
        points[name] = ks[nth]
    return points


def reachable(src: str, dst: str) -> bool:
    """Whether a record can go from ``src`` to ``dst``: through
    ``_TRANSITIONS``, plus the re-queue of a live run at recovery."""
    seen, todo = {src}, [src]
    while todo:
        s = todo.pop()
        for t in _TRANSITIONS[s] + ((QUEUED,) if s in LIVE_STATES else ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return dst in seen


_REFERENCE: Dict[str, tuple] = {}


def reference(spec) -> tuple:
    """(elapsed ticks, sha256 of the JSONL trace) of ``spec`` run
    standalone; cached, since a spec's run is deterministic."""
    key = json.dumps(spec.to_dict(), sort_keys=True)
    if key not in _REFERENCE:
        result = standalone_run(spec)
        buf = io.StringIO()
        write_jsonl(result.vm.tracer.events, buf)
        _REFERENCE[key] = (int(result.elapsed),
                           hashlib.sha256(buf.getvalue().encode())
                           .hexdigest())
    return _REFERENCE[key]


def _parse_artifact(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        for line in text.splitlines():
            json.loads(line)
    elif path.suffix == ".json":
        json.loads(text)
    elif path.suffix == ".psched":
        Schedule.parse(text)
    else:
        assert path.suffix == ".txt", f"unknown artifact kind {path.name}"


def _leftovers(root: Path) -> List[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.tmp"))


def check_point(root: Path, k: int, steps: List[dict],
                acked: List[str]) -> None:
    """Boot over a store the lifetime crashed in before step ``k``,
    finish its runs and check every crash-safety property."""
    runs = root / "runs"
    on_disk = {d.name: json.loads((d / "record.json").read_text())["state"]
               for d in sorted(runs.iterdir())
               if (d / "record.json").exists()}
    # A record's last durable state: its directory fsync completed.
    durable_state = {}
    for s in steps[:max(k - 1, 0)]:
        if s["state"] is not None:
            durable_state[Path(s["path"]).parent.name] = s["state"]
    assert set(durable_state) <= set(on_disk), "a durable record is gone"

    svc = RunService(root, n_workers=1)       # boot succeeds
    assert not _leftovers(root), f"recovery left {_leftovers(root)}"
    svc.start()
    try:
        deadline = time.monotonic() + 120.0
        while any(r.state not in TERMINAL_STATES for r in svc.list_runs()):
            assert time.monotonic() < deadline, "recovered runs never ended"
            time.sleep(0.01)
    finally:
        svc.stop(timeout=30.0)
    final = {r.run_id: r for r in svc.list_runs()}

    missing = set(acked) - set(final)
    assert not missing, f"acknowledged submits lost: {sorted(missing)}"
    for run_id, state in on_disk.items():
        was = durable_state.get(run_id)
        assert (state == QUEUED if was is None else reachable(was, state)), \
            f"{run_id}: {state} on disk after durable {was}"
        assert reachable(state, final[run_id].state), \
            f"{run_id}: {state} on disk, {final[run_id].state} after boot"
    assert not _leftovers(root), f"temp files survived: {_leftovers(root)}"
    for bundle in root.rglob("*.pckpt"):
        load_bundle(bundle)
    for rec in final.values():
        for name in rec.artifacts:
            _parse_artifact(svc.store.artifact_path(rec.run_id, name))
        if rec.state != DONE:
            continue
        elapsed, digest = reference(rec.spec)
        assert rec.exit["elapsed_ticks"] == elapsed, \
            f"{rec.run_id}: {rec.exit['elapsed_ticks']} ticks, want {elapsed}"
        if rec.spec.trace:
            trace = svc.store.artifact_path(rec.run_id, "run.events.jsonl")
            assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest, \
                f"{rec.run_id}: trace differs from the standalone run"


def crash_point(workdir: Path, k: int, steps: List[dict]) -> None:
    """Crash a fresh lifetime before step ``k`` (``k == N``: let it
    finish) and check the store it leaves."""
    root = Path(workdir) / f"k{k:03d}"
    child = run_child(root, k)
    want = CRASHED if k < len(steps) else 0
    assert child["returncode"] == want, child["stderr"]
    assert child["steps"] == steps[:k], "the lifetime took other steps"
    check_point(root, k, steps, child["acked"])
    shutil.rmtree(root)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--child", help="run the lifetime over this store")
    ap.add_argument("--crash-at", type=int)
    ap.add_argument("--report", default="crash-points.jsonl",
                    help="where to write the per-point report")
    args = ap.parse_args(argv)
    if args.child:
        lifetime(Path(args.child), args.crash_at)
        return 0
    failed = 0
    with tempfile.TemporaryDirectory() as work, \
            open(args.report, "w") as report:
        steps = count_steps(Path(work))
        n = len(steps)
        for k in range(n + 1):
            step = steps[k] if k < n else {"step": "exit", "path": ""}
            try:
                crash_point(Path(work), k, steps)
                verdict = "pass"
            except Exception as e:
                failed += 1
                verdict = f"FAIL {type(e).__name__}: {e}"
            report.write(json.dumps({"N": n, "k": k, "step": step["step"],
                                     "path": step["path"],
                                     "verdict": verdict}) + "\n")
            report.flush()
            print(f"k={k:3d}/{n} {step['step']:10s} {step['path']}: "
                  f"{verdict}", flush=True)
    print(f"N={n}: {n + 1 - failed}/{n + 1} points pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
