"""The four workloads: their specs, seeded schedules and seeded store.

The program under test only ever sees what is generated here -- the
run specs, their order, the arrival times and the pre-existing run
history.  Everything is a pure function of the ``--seed``.  The specs
themselves do not depend on the seed, so their expected virtual times
can be committed (``expected_ticks.json``, written by ``expected.py``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.faults import FaultPlan, TaskKill, dumps as dump_fault_plan
from repro.service.spec import RunSpec
from repro.service.store import DONE, RunRecord

WORKLOADS = ("lib_zoo", "svc_heavy", "svc_tiny_open", "svc_ckpt_read")

#: The Pisces Fortran program of the service soak test.
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

#: A worker killed mid-solve and its rows reassigned.  The plan's own
#: seed is fixed, not the workload's, so the run's virtual time is too.
CHAOS_PLAN = dump_fault_plan(FaultPlan(
    seed=7, kills=(TaskKill(at=5_000, tasktype="CWORKER"),)))

_ZOO = {
    "jacobi": {"app": "jacobi",
               "params": {"n": 24, "sweeps": 6, "n_workers": 6}},
    "jacobi_force": {"app": "jacobi_force",
                     "params": {"n": 24, "sweeps": 6, "force_pes": 4}},
    "matmul": {"app": "matmul", "params": {"n": 24, "n_workers": 6}},
    "integrate": {"app": "integrate",
                  "params": {"pieces": 48, "points_per_piece": 16,
                             "n_workers": 6}},
    # 8 stages + the coordinator need 9 slots: 2 clusters x 5.
    "pipeline": {"app": "pipeline",
                 "params": {"n_stages": 8, "n_items": 48, "slots": 5}},
    "fem": {"app": "fem", "params": {"n_elements": 24}},
    "truss": {"app": "truss", "params": {"n_panels": 8}},
    "spin": {"app": "spin", "params": {"rounds": 2000}},
}


def _with(name: str, **fields) -> Dict:
    return dict(_ZOO[name], **fields)


#: workload -> spec name -> RunSpec dict.
SPECS: Dict[str, Dict[str, Dict]] = {
    "lib_zoo": _ZOO,
    "svc_heavy": {name: _with(name, trace=False) for name in
                  ("pipeline", "fem", "truss", "spin", "jacobi_force")},
    "svc_tiny_open": {
        "spin10": {"app": "spin", "params": {"rounds": 10}},
        "integrate": {"app": "integrate"},
        "matmul": {"app": "matmul"},
        "jacobi12": {"app": "jacobi",
                     "params": {"n": 12, "sweeps": 2, "n_workers": 2}},
        "addup": {"app": "fortran", "params": {"source": ADDUP_SOURCE}},
    },
    "svc_ckpt_read": {
        "jacobi": _with("jacobi", checkpoint_every=2000),
        "jacobi_force": _with("jacobi_force", checkpoint_every=1000),
        "matmul": _with("matmul", checkpoint_every=1000),
        "chaos_jacobi": {"app": "chaos_jacobi",
                         "params": {"n": 20, "sweeps": 3, "n_workers": 3,
                                    "on_death": "reassign"},
                         "checkpoint_every": 2000,
                         "fault_plan": CHAOS_PLAN},
    },
}

#: svc_tiny_open's offered load, in arrivals per second.  10/s keeps
#: the two workers about a third busy.  At 20/s a 2-core box ran near
#: saturation, where its own speed swings (about +-15%) moved the
#: latency median by up to 30% from one run to the next.
OPEN_RATE = 10.0
OPEN_TENANTS = ("open0", "open1", "open2")
HISTORY_RECORDS = 5000
HISTORY_TENANTS = tuple(f"hist{i}" for i in range(8))


def shuffled_cycle(names, seed: Union[int, str], count: int) -> List[str]:
    """``count`` names made of consecutive seeded shuffles of ``names``."""
    rng = random.Random(seed)
    out: List[str] = []
    while len(out) < count:
        block = sorted(names)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def arrival_schedule(seed: int, seconds: float) -> List[Tuple[float, str, str]]:
    """svc_tiny_open's arrivals as ``(offset_s, spec_name, tenant)``.

    ``OPEN_RATE * seconds`` arrivals at sorted uniform offsets in
    ``[0, seconds)``: a Poisson process conditioned on its count, so the
    offered load is exact on every seed while the gaps stay
    exponential.  Tenants take arrivals round-robin.
    """
    count = round(OPEN_RATE * seconds)
    rng = random.Random(seed)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    order = shuffled_cycle(SPECS["svc_tiny_open"], seed + 1, count)
    return [(t, name, OPEN_TENANTS[i % len(OPEN_TENANTS)])
            for i, (t, name) in enumerate(zip(offsets, order))]


def seed_history(root: Path, seed: int) -> None:
    """Write ``HISTORY_RECORDS`` archived DONE runs of the
    ``HISTORY_TENANTS`` into a fresh store at ``root``, in the layout
    ``repro.service.store`` documents (``runs/<run_id>/record.json``
    plus an ``artifacts/`` directory).

    The specs are svc_tiny_open's own, so the resident records are the
    size the service keeps for real runs of this traffic.
    """
    rng = random.Random(seed)
    specs = SPECS["svc_tiny_open"]
    names = sorted(specs)
    runs = Path(root) / "runs"
    t = 1.7e9
    for seq in range(1, HISTORY_RECORDS + 1):
        t += rng.expovariate(OPEN_RATE)
        rec = RunRecord(
            run_id=f"r{seq:06d}",
            tenant=HISTORY_TENANTS[seq % len(HISTORY_TENANTS)],
            spec=RunSpec.from_dict(specs[rng.choice(names)]), state=DONE,
            seq=seq, submitted_at=t, started_at=t + 0.005,
            finished_at=t + 0.030,
            exit={"outcome": "done", "elapsed_ticks": 1000, "value": "None",
                  "resumed_from": None})
        run_dir = runs / rec.run_id
        (run_dir / "artifacts").mkdir(parents=True)
        with (run_dir / "record.json").open("w") as f:
            json.dump(rec.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")
