"""Golden virtual-history digests of the service catalog.

One digest per catalog app (plus ``chaos_jacobi`` under a seeded
``TaskKill`` plan): the elapsed virtual ticks of
:func:`repro.service.executor.standalone_run` and a sha256 over the
full trace stream (every trace event on, one sorted-key JSON object per
event).  ``axis_digests.json`` freezes them; any execution leg that
reproduces a digest has the identical virtual history.

The committed file was generated while the engine still had a
thread-per-process core, a ``scan`` dispatcher and a ``batched``
window path; its ``legs`` list records the 24 live legs (each also
recorded and replayed) that all agreed on it.  Today's legs are the
window path x task-body vehicle.

Regenerate (every leg must agree, or nothing is written)::

    PYTHONPATH=src python -m tests.golden.digests --write
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.faults import FaultPlan, TaskKill, dumps as dump_plan
from repro.obs.export import event_to_dict
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec

DIGEST_FILE = Path(__file__).with_name("axis_digests.json")

ADDUP_SOURCE = """\
      TASK ADDUP
      INTEGER I
      INTEGER S
      S = 0
      DO 10 I = 1, 50
      S = S + I
10    CONTINUE
      END TASK
"""

CHAOS_PLAN = dump_plan(FaultPlan(
    seed=7, kills=(TaskKill(at=5_000, tasktype="CWORKER"),)))

#: Digest name -> run spec (catalog defaults unless noted).
SPECS: Dict[str, dict] = {
    "jacobi": {"app": "jacobi"},
    "jacobi_force": {"app": "jacobi_force"},
    "matmul": {"app": "matmul"},
    "integrate": {"app": "integrate"},
    "pipeline": {"app": "pipeline"},
    "fem": {"app": "fem"},
    "truss": {"app": "truss"},
    "chaos_jacobi": {"app": "chaos_jacobi"},
    "spin": {"app": "spin"},
    "fortran": {"app": "fortran", "params": {"source": ADDUP_SOURCE}},
    "chaos_jacobi_taskkill": {
        "app": "chaos_jacobi",
        "params": {"n": 10, "sweeps": 2, "n_workers": 2,
                   "on_death": "reassign"},
        "fault_plan": CHAOS_PLAN},
}

#: Live execution legs, as environment settings.
LEGS: List[Dict[str, str]] = [
    {"PISCES_WINDOW_PATH": w, "PISCES_TASK_BODIES": b}
    for w in ("fast", "reference") for b in ("auto", "callable")
]


@contextlib.contextmanager
def leg_env(env: Dict[str, str]) -> Iterator[None]:
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_digest(result) -> Dict[str, object]:
    """Elapsed ticks plus the trace digest of a finished run."""
    tracer = result.vm.tracer
    assert tracer.overflow_dropped == 0, "trace ring buffer overflowed"
    lines = [json.dumps(event_to_dict(e), sort_keys=True)
             for e in tracer.events]
    return {"elapsed": int(result.elapsed), "trace_events": len(lines),
            "trace_sha256": hashlib.sha256(
                "\n".join(lines).encode("utf-8")).hexdigest()}


def digest(spec: dict) -> Dict[str, object]:
    """Run ``spec`` standalone and digest it."""
    return run_digest(standalone_run(RunSpec.from_dict(spec)))


def leg_digests(spec: dict, env: Dict[str, str]
                ) -> List[Tuple[str, Dict[str, object]]]:
    """(leg label, digest) for the live leg ``env``, its recording and
    the replay of that recording."""
    label = ",".join(env[k] for k in sorted(env))
    with tempfile.TemporaryDirectory() as tmp:
        psched = str(Path(tmp) / "leg.psched")
        with leg_env(env):
            live = digest(spec)
            with leg_env({"PISCES_RECORD_SCHEDULE": psched}):
                recorded = digest(spec)
            with leg_env({"PISCES_REPLAY_SCHEDULE": psched}):
                replayed = digest(spec)
    return [(label, live), (label + ",record", recorded),
            (label + ",replay", replayed)]


def generate() -> dict:
    out = {}
    for name, spec in SPECS.items():
        seen = {}
        for env in LEGS:
            seen.update(leg_digests(spec, env))
        distinct = {json.dumps(d, sort_keys=True) for d in seen.values()}
        if len(distinct) != 1:
            raise AssertionError(f"{name}: legs disagree: {seen}")
        out[name] = {"spec": spec, **next(iter(seen.values()))}
        print(f"{name}: {len(seen)} legs agree on {out[name]['elapsed']}",
              file=sys.stderr)
    return {"legs": [",".join(e[k] for k in sorted(e)) for e in LEGS],
            "replay": "each leg recorded and replayed", "digests": out}


if __name__ == "__main__":
    data = generate()
    if "--write" in sys.argv:
        DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
