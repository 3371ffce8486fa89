#!/usr/bin/env python3
"""Surviving ``kill -9``: checkpoint, crash, restore, same answer.

A fault-tolerant Jacobi solver runs with periodic checkpointing and a
:class:`~repro.faults.HostKill` in its fault plan -- mid-run, the
*host process itself* is SIGKILLed, the hardest crash there is: no
atexit hooks, no flushing, nothing but whatever already reached disk.

This script plays all three roles:

1. **reference** (in-process) -- the same solve, uninterrupted, with
   checkpointing off.  This is the answer recovery must reproduce.
2. **victim** (subprocess, ``--victim``) -- checkpointing on, host
   kill armed.  The parent observes exit code ``-SIGKILL`` and a
   ``.pckpt`` bundle left behind.
3. **recovery** (in-process) -- ``find_latest_checkpoint`` +
   ``restore_vm`` + ``resume()`` in a process that never saw the
   original run.  The restored VM replays the recorded schedule
   prefix, validates its state digest, switches to live execution and
   finishes the solve.

The payoff is the final comparison: elapsed virtual time, the result
grid, and the *entire trace stream* of the recovered run are
bit-identical to the uninterrupted reference.  Recovery does not
approximate the crashed run -- it completes it.

Run:  python examples/checkpoint_restore.py
"""

import hashlib
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.apps.chaos_jacobi import build_chaos_registry, run_chaos_jacobi
from repro.checkpoint import find_latest_checkpoint, restore_vm
from repro.config.configuration import ClusterSpec, Configuration
from repro.faults import RESTART, FaultPlan, HostKill

N, SWEEPS, N_WORKERS = 10, 2, 3
SUPERVISION = RESTART(3, backoff_ticks=500)
RESEND_DELAY, IDLE_TIMEOUT, MAX_ROUNDS = 8_000, 60_000, 200
CHECKPOINT_EVERY = 500          # virtual ticks between bundles
KILL_AT = 5_000                 # virtual tick of the SIGKILL
TRACE = ("FAULT", "MSG_SEND", "MSG_ACCEPT")


def config(ckpt_dir: str = "") -> Configuration:
    return Configuration(
        clusters=(ClusterSpec(1, 3, 4), ClusterSpec(2, 4, 4)),
        name="ckpt-example", trace_events=TRACE,
        checkpoint_every=CHECKPOINT_EVERY if ckpt_dir else 0,
        checkpoint_dir=ckpt_dir, checkpoint_keep=3, run_seed=11)


def registry():
    return build_chaos_registry(N, SWEEPS, N_WORKERS, SUPERVISION,
                                "reassign", RESEND_DELAY, IDLE_TIMEOUT,
                                MAX_ROUNDS)


def plan(host_kill: bool) -> FaultPlan:
    kills = (HostKill(at=KILL_AT),) if host_kill else ()
    return FaultPlan(seed=3, host_kills=kills, name="example")


def solve(ckpt_dir: str = "", host_kill: bool = False):
    return run_chaos_jacobi(
        n=N, sweeps=SWEEPS, n_workers=N_WORKERS, supervision=SUPERVISION,
        on_death="reassign", resend_delay=RESEND_DELAY,
        idle_timeout=IDLE_TIMEOUT, max_rounds=MAX_ROUNDS,
        config=config(ckpt_dir=ckpt_dir), fault_plan=plan(host_kill))


def grid_sha(grid) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid).tobytes()).hexdigest()


def main() -> None:
    if len(sys.argv) > 2 and sys.argv[1] == "--victim":
        # Role 2: this invocation dies by its own fault plan.
        solve(ckpt_dir=sys.argv[2], host_kill=True)
        sys.exit(3)   # unreachable unless the kill failed to fire

    print(__doc__.split("\n", 1)[0])

    print("\n[1] reference: uninterrupted solve, checkpointing off")
    ref = solve()
    ref.vm.shutdown()
    ref_trace = [e.line() for e in ref.vm.tracer.events]
    print(f"    elapsed {ref.elapsed} virtual ticks, "
          f"{ref.rounds} rounds, grid {grid_sha(ref.grid)[:12]}...")

    with tempfile.TemporaryDirectory() as ckpt_dir:
        print(f"\n[2] victim: same solve + checkpoints every "
              f"{CHECKPOINT_EVERY} ticks + HostKill at {KILL_AT}")
        proc = subprocess.run(
            [sys.executable, __file__, "--victim", ckpt_dir],
            capture_output=True, text=True)
        assert proc.returncode == -signal.SIGKILL, (
            f"victim exited {proc.returncode}, wanted "
            f"{-signal.SIGKILL}:\n{proc.stderr}")
        bundles = sorted(p.name for p in Path(ckpt_dir).glob("*.pckpt"))
        assert bundles, "victim died before writing any checkpoint"
        print(f"    killed by SIGKILL (exit {proc.returncode}); "
              f"{len(bundles)} bundle(s) survived:")
        for b in bundles:
            print(f"      {b}")

        print("\n[3] recovery: restore the latest bundle, resume to the end")
        latest = find_latest_checkpoint(ckpt_dir)
        rr = restore_vm(latest, registry=registry())
        print(f"    restored at virtual tick {rr.manifest['now']} "
              f"(dispatch {rr.manifest['dispatch_seq']})")
        res = rr.resume()
        grid, reason, rounds = res.value
        res_trace = [e.line() for e in rr.vm.tracer.events]
        print(f"    resumed: elapsed {res.elapsed} ticks, "
              f"{rounds} rounds, grid {grid_sha(grid)[:12]}...")

    assert res.elapsed == ref.elapsed, "virtual elapsed diverged"
    assert grid_sha(grid) == grid_sha(ref.grid), "result grid diverged"
    assert rounds == ref.rounds and reason == ref.reason
    assert res_trace == ref_trace, "trace stream diverged"
    print(f"\nrecovered run is bit-identical to the reference: "
          f"elapsed {res.elapsed}, {len(res_trace)} trace lines, "
          f"same grid.")


if __name__ == "__main__":
    main()
