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
window data plane x task-body vehicle, each non-production choice an
oracle held through :func:`tests.oracles.oracle_leg`.

Regenerate (every leg must agree, or nothing is written)::

    PYTHONPATH=src python -m tests.golden.digests --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from repro.api import make_vm
from repro.correctness import Schedule
from repro.faults import FaultPlan, TaskKill, dumps as dump_plan
from repro.obs.export import event_to_dict
from repro.service import catalog
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from tests.oracles import LEGS, oracle_leg

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

def run_digest(result) -> Dict[str, object]:
    """Elapsed ticks plus the trace digest of a finished run."""
    tracer = result.vm.tracer
    assert tracer.overflow_dropped == 0, "trace ring buffer overflowed"
    lines = [json.dumps(event_to_dict(e), sort_keys=True)
             for e in tracer.events]
    return {"elapsed": int(result.elapsed), "trace_events": len(lines),
            "trace_sha256": hashlib.sha256(
                "\n".join(lines).encode("utf-8")).hexdigest()}


def leg_digests(spec: dict, leg: Tuple[str, str]
                ) -> List[Tuple[str, Dict[str, object]]]:
    """(leg label, digest) for the live ``(window_path, task_bodies)``
    leg, its recording and the replay of that recording.  The recording
    and the replay boot the live run's configuration with an explicit
    ``schedule=``; the replay must read the ``.psched`` the recording
    wrote and pick every dispatch from it."""
    label = ",".join(leg)
    run_spec = RunSpec.from_dict(spec)
    with tempfile.TemporaryDirectory() as tmp, oracle_leg(*leg):
        psched = Path(tmp) / "leg.psched"
        live = standalone_run(run_spec)
        plan = catalog.build(run_spec)

        def scheduled(schedule):
            vm = make_vm(config=live.vm.config, registry=plan.registry,
                         fault_plan=plan.fault_plan, schedule=schedule)
            return vm.run(plan.tasktype, *plan.args)

        recorded = scheduled(Schedule(path=psched))
        assert psched.is_file(), "the recording did not save its .psched"
        replayed = scheduled(psched)
        assert not replayed.vm.sched_hook.live_tail
        replayed.vm.sched_hook.check_complete()
    return [(label, run_digest(live)),
            (label + ",record", run_digest(recorded)),
            (label + ",replay", run_digest(replayed))]


def generate() -> dict:
    out = {}
    for name, spec in SPECS.items():
        seen = {}
        for leg in LEGS:
            seen.update(leg_digests(spec, leg))
        distinct = {json.dumps(d, sort_keys=True) for d in seen.values()}
        if len(distinct) != 1:
            raise AssertionError(f"{name}: legs disagree: {seen}")
        out[name] = {"spec": spec, **next(iter(seen.values()))}
        print(f"{name}: {len(seen)} legs agree on {out[name]['elapsed']}",
              file=sys.stderr)
    return {"legs": [",".join(leg) for leg in LEGS],
            "replay": "each leg recorded and replayed", "digests": out}


if __name__ == "__main__":
    data = generate()
    if "--write" in sys.argv:
        DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
