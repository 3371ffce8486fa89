"""Subprocess driver for the checkpoint kill -9 soak.

Three modes, one fixed chaos-jacobi scenario per (scenario, bodies):

* ``reference <out.json> <bodies> <scenario>`` -- run uninterrupted with
  checkpointing OFF and no host kill; dump the final artifacts.
  ``<bodies>`` is the task-body vehicle, ``auto`` or the ``callable``
  oracle (held through :func:`tests.oracles.oracle_leg`).
* ``victim <dir> <bodies> <scenario>`` -- run with periodic checkpoints
  into ``<dir>`` and a :class:`~repro.faults.HostKill` in the plan: the
  process dies by ``kill -9`` mid-run (exit code -9 as seen by the
  parent).  Exits 3 if the run somehow completes.
* ``restore <dir> <out.json>`` -- in a fresh process: find the latest
  valid bundle in ``<dir>``, rebuild the (closure-based) chaos registry,
  restore, resume to completion on the production vehicle, dump the
  same artifact shape.

The soak asserts the reference and restore dumps are byte-identical:
same virtual elapsed, same grid, same trace stream, same fault events.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.apps.chaos_jacobi import build_chaos_registry, run_chaos_jacobi
from repro.checkpoint import find_latest_checkpoint, restore_vm
from repro.config.configuration import ClusterSpec, Configuration
from repro.faults import RESTART, FaultPlan, HostKill, MessagePolicy, PECrash
from tests.oracles import oracle_leg

# One fixed problem; small enough to soak in CI, long enough in virtual
# time to cross several checkpoint marks before the kill fires.
N, SWEEPS, N_WORKERS = 10, 2, 3
SUPERVISION = RESTART(3, backoff_ticks=500)
ON_DEATH = "reassign"
RESEND_DELAY, IDLE_TIMEOUT, MAX_ROUNDS = 8_000, 60_000, 200
CHECKPOINT_EVERY = 500
KILL_AT = 5_000
TRACE = ("FAULT", "MSG_SEND", "MSG_ACCEPT")


def plan(scenario: str, host_kill: bool) -> FaultPlan:
    """The seeded plan for a scenario, with or without the host kill."""
    kills = (HostKill(at=KILL_AT),) if host_kill else ()
    if scenario == "faulty":
        return FaultPlan(seed=3, crashes=(PECrash(at=4_000, pe=4),),
                         messages=MessagePolicy(drop=0.05, delay=0.1,
                                                delay_ticks=700),
                         host_kills=kills, name="soak-faulty")
    return FaultPlan(seed=3, host_kills=kills, name="soak-plain")


def config(ckpt_dir: str = "") -> Configuration:
    return Configuration(
        clusters=(ClusterSpec(1, 3, 4), ClusterSpec(2, 4, 4)),
        name="ckpt-soak", trace_events=TRACE,
        checkpoint_every=CHECKPOINT_EVERY if ckpt_dir else 0,
        checkpoint_dir=ckpt_dir, checkpoint_keep=3, run_seed=11)


def registry():
    return build_chaos_registry(N, SWEEPS, N_WORKERS, SUPERVISION, ON_DEATH,
                                RESEND_DELAY, IDLE_TIMEOUT, MAX_ROUNDS)


def dump(out_path: str, vm, value, elapsed: int) -> None:
    grid, reason, rounds = value
    record = {
        "elapsed": int(elapsed),
        "reason": reason,
        "rounds": int(rounds),
        "grid_sha": (None if grid is None else hashlib.sha256(
            np.ascontiguousarray(grid).tobytes()).hexdigest()),
        "trace": [e.line() for e in vm.tracer.events],
        "faults": vm.faults.export_jsonl() if vm.faults is not None else "",
    }
    Path(out_path).write_text(json.dumps(record, indent=1), encoding="utf-8")


def main(argv) -> int:
    mode = argv[0]
    if mode == "reference":
        out, bodies, scenario = argv[1], argv[2], argv[3]
        with oracle_leg(task_bodies=bodies):
            r = run_chaos_jacobi(
                n=N, sweeps=SWEEPS, n_workers=N_WORKERS,
                supervision=SUPERVISION, on_death=ON_DEATH,
                resend_delay=RESEND_DELAY, idle_timeout=IDLE_TIMEOUT,
                max_rounds=MAX_ROUNDS, config=config(),
                fault_plan=plan(scenario, host_kill=False))
        r.vm.shutdown()
        dump(out, r.vm, (r.grid, r.reason, r.rounds), r.elapsed)
        return 0
    if mode == "victim":
        ckpt_dir, bodies, scenario = argv[1], argv[2], argv[3]
        with oracle_leg(task_bodies=bodies):
            run_chaos_jacobi(
                n=N, sweeps=SWEEPS, n_workers=N_WORKERS,
                supervision=SUPERVISION, on_death=ON_DEATH,
                resend_delay=RESEND_DELAY, idle_timeout=IDLE_TIMEOUT,
                max_rounds=MAX_ROUNDS, config=config(ckpt_dir=ckpt_dir),
                fault_plan=plan(scenario, host_kill=True))
        # The HostKill should have SIGKILLed us mid-run.
        return 3
    if mode == "restore":
        ckpt_dir, out = argv[1], argv[2]
        latest = find_latest_checkpoint(ckpt_dir)
        if latest is None:
            print("no valid checkpoint found", file=sys.stderr)
            return 4
        rr = restore_vm(latest, registry=registry())
        res = rr.resume()
        dump(out, rr.vm, res.value, res.elapsed)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
