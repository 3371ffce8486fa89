#!/usr/bin/env python3
"""The run service end to end: boot, submit, poll, fetch artifacts.

This script boots the multi-tenant run service as a real
``python -m repro.service`` subprocess (its own store, an ephemeral
port), then drives it through :class:`repro.service.client.ServiceClient`
the way an external tool would:

1. two tenants submit a mixed bag of runs -- a windows Jacobi solve,
   a matrix multiply, and a *fault-injected*
   chaos Jacobi whose plan kills a worker task mid-solve;
2. a third submission over tenant bob's quota is refused with the
   HTTP 429 -> :class:`~repro.errors.QuotaExceeded` mapping;
3. the runs are polled to completion; per-tenant usage and the run
   records (state machine, exit info, provenance axes) are printed;
4. the archived artifacts come back over HTTP: the trace-event JSONL,
   the metrics snapshot, and the fault-event log of the chaos run;
5. the payoff: the service run's virtual time equals the same spec
   executed standalone in this process -- multi-tenancy added nothing.

Run:  python examples/run_service.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.errors import QuotaExceeded
from repro.faults import FaultPlan, TaskKill, dumps as dump_plan
from repro.service.client import ServiceClient
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec

CHAOS_PLAN = dump_plan(FaultPlan(
    seed=7, kills=(TaskKill(at=5_000, tasktype="CWORKER"),)))

JACOBI = {"app": "jacobi", "params": {"n": 16, "sweeps": 3}}
MATMUL = {"app": "matmul", "params": {"n": 10, "n_workers": 2}}
CHAOS = {"app": "chaos_jacobi",
         "params": {"n": 12, "sweeps": 2, "on_death": "reassign"},
         "fault_plan": CHAOS_PLAN}


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="pisces-svc-"))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--root", str(root),
         "--workers", "2", "--quota", "bob=1,1,8"],
        stdout=subprocess.PIPE, env=env)
    try:
        boot = json.loads(proc.stdout.readline())
        print(f"service up at {boot['url']}  (store: {boot['root']})")

        alice = ServiceClient(boot["url"], tenant="alice")
        bob = ServiceClient(boot["url"], tenant="bob")

        # --- submit -------------------------------------------------
        runs = [alice.submit(JACOBI), alice.submit(CHAOS),
                bob.submit(MATMUL)]
        for r in runs:
            print(f"  submitted {r['run_id']} [{r['tenant']}] "
                  f"{r['spec']['app']}")

        # --- bob is over quota (max_queued=1) -----------------------
        try:
            bob.submit(MATMUL)
        except QuotaExceeded as e:
            print(f"  429 as expected: {e}")

        # --- poll to completion -------------------------------------
        finals = [alice.wait(r["run_id"], timeout=300) for r in runs]
        for rec in finals:
            print(f"  {rec['run_id']} -> {rec['state']}  "
                  f"elapsed={rec['exit']['elapsed_ticks']} ticks  "
                  f"bodies={rec['provenance']['task_bodies']}")
            assert rec["state"] == "DONE"

        print("  usage[alice]:", alice.usage())

        # --- fetch artifacts over HTTP ------------------------------
        chaos_id = runs[1]["run_id"]
        names = alice.artifacts(chaos_id)
        print(f"  artifacts of {chaos_id}: {', '.join(names)}")
        events = alice.trace(chaos_id, limit=3)
        print(f"  trace tail: {[e['etype'] for e in events]}")
        faults = alice.fetch_artifact(chaos_id, "run.faults.jsonl")
        print(f"  fault events archived: "
              f"{len(faults.decode().splitlines())}")
        spans = alice.spans(chaos_id)
        print(f"  spans derived: {len(spans)}")

        # --- the guarantee: service == standalone -------------------
        for rec, spec in zip(finals, (JACOBI, CHAOS, MATMUL)):
            ref = standalone_run(RunSpec.from_dict(spec))
            assert rec["exit"]["elapsed_ticks"] == ref.elapsed, spec
        print("  bit-identity: all three service runs match their "
              "standalone virtual time")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()


if __name__ == "__main__":
    main()
