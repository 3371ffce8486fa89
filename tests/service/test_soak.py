"""Acceptance soak: 3 tenants x 12 mixed-zoo runs on a 4-worker pool.

The load-bearing assertion is **bit-identity**: every run executed by
the service (concurrently, with tracing, metrics, the kill hook and --
for one run -- a fault plan and periodic checkpoints all active) has
exactly the virtual time and trace stream of the same spec executed
standalone and serially.  Multi-tenancy costs no determinism.

Also asserted here: over-quota submits refused (the 429 path), kill of
a live run, and fair-share execution ordering under a single worker.
"""

import json
import time

import pytest

from repro.errors import QuotaExceeded
from repro.faults import FaultPlan, TaskKill, dumps as dump_plan
from repro.obs.export import event_to_dict
from repro.service import (DONE, KILLED, RUNNING, RunService, TenantQuota)
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec

FORTRAN_SOURCE = """\
      TASK ADDUP
      INTEGER I
      INTEGER S
      S = 0
      DO 10 I = 1, 50
      S = S + I
10    CONTINUE
      END TASK
"""

#: One fault-plan run rides in the zoo: a worker kill mid-solve with
#: reassignment, exercised through the service's fault-plan plumbing.
CHAOS_PLAN = dump_plan(FaultPlan(
    seed=7, kills=(TaskKill(at=5_000, tasktype="CWORKER"),)))

#: The mixed zoo: 12 specs across the app catalog, one fault-plan run,
#: one checkpointing run, one Fortran-source run.
ZOO = [
    {"app": "jacobi", "params": {"n": 12, "sweeps": 2, "n_workers": 2}},
    {"app": "matmul", "params": {"n": 8, "n_workers": 2}},
    {"app": "integrate",
     "params": {"pieces": 8, "points_per_piece": 4, "n_workers": 2}},
    {"app": "pipeline", "params": {"n_stages": 3, "n_items": 6}},
    {"app": "fem", "params": {"n_elements": 8}},
    {"app": "truss", "params": {"n_panels": 3}},
    {"app": "jacobi_force", "params": {"n": 10, "sweeps": 2}},
    {"app": "chaos_jacobi",
     "params": {"n": 10, "sweeps": 2, "n_workers": 2,
                "on_death": "reassign"},
     "fault_plan": CHAOS_PLAN},
    {"app": "spin", "params": {"rounds": 50, "ticks_per_round": 20},
     "checkpoint_every": 200},
    {"app": "fortran", "params": {"source": FORTRAN_SOURCE}},
    {"app": "jacobi", "params": {"n": 10, "sweeps": 2, "n_workers": 2}},
    {"app": "matmul", "params": {"n": 10, "n_workers": 2}},
]

TENANTS = ("alice", "bob", "carol")


def wait_all(svc, run_ids, timeout=300.0):
    deadline = time.monotonic() + timeout
    pending = set(run_ids)
    while pending and time.monotonic() < deadline:
        for rid in list(pending):
            if not svc.get_run(rid).is_live:
                pending.discard(rid)
        time.sleep(0.05)
    assert not pending, f"runs never finished: {sorted(pending)}"


@pytest.mark.slow
def test_soak_three_tenants_twelve_runs_bit_identical(tmp_path):
    svc = RunService(
        tmp_path / "store", n_workers=4,
        quotas={"dave": TenantQuota(max_running=1, max_queued=1)},
        default_quota=TenantQuota(max_running=4, max_queued=16,
                                  pe_budget=32)).start()
    try:
        # --- submit the zoo round-robin across three tenants ----------
        submitted = []          # (run_id, spec_dict)
        for i, spec in enumerate(ZOO):
            rec = svc.submit(TENANTS[i % len(TENANTS)], spec)
            submitted.append((rec.run_id, spec))
        assert len(submitted) == 12

        # --- over-quota tenant is refused with QuotaExceeded ----------
        slow = {"app": "spin", "params": {"rounds": 500000}}
        dave_rec = svc.submit("dave", slow)
        deadline = time.monotonic() + 120
        while svc.get_run(dave_rec.run_id).state != RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        waiting = svc.submit("dave", slow)     # behind max_running=1
        with pytest.raises(QuotaExceeded):
            svc.submit("dave", slow)
        assert svc.kill(waiting.run_id).state == KILLED

        # --- kill endpoint terminates dave's live run cleanly ---------
        svc.kill(dave_rec.run_id)

        wait_all(svc, [rid for rid, _ in submitted] + [dave_rec.run_id])

        killed = svc.get_run(dave_rec.run_id)
        assert killed.state == KILLED
        assert killed.exit["outcome"] == "killed"

        # --- every zoo run: DONE, bit-identical to standalone ---------
        for rid, spec_dict in submitted:
            rec = svc.get_run(rid)
            assert rec.state == DONE, (rid, spec_dict, rec.exit)

            ref = standalone_run(RunSpec.from_dict(spec_dict))
            assert rec.exit["elapsed_ticks"] == ref.elapsed, \
                (spec_dict, rec.exit["elapsed_ticks"], ref.elapsed)

            with svc.store.artifact_path(rid, "run.events.jsonl").open() as f:
                service_events = [json.loads(l) for l in f if l.strip()]
            ref_events = [event_to_dict(e) for e in ref.vm.tracer.events]
            assert service_events == ref_events, spec_dict

        # the checkpointing spin run actually checkpointed
        ckpt_rid = [rid for rid, s in submitted if s.get("checkpoint_every")]
        assert list(svc.store.checkpoint_dir(ckpt_rid[0]).glob("*.pckpt"))

        # the fault-plan run archived its fault events
        chaos_rid = [rid for rid, s in submitted if s.get("fault_plan")][0]
        assert "run.faults.jsonl" in svc.store.list_artifacts(chaos_rid)
    finally:
        svc.stop(timeout=15.0, kill_live=True)


@pytest.mark.slow
def test_soak_fair_share_execution_order(tmp_path):
    """One worker, tenant a floods 6 runs before b submits 3: the
    execution order must interleave (DRR), not drain a's burst."""
    quick = {"app": "spin", "params": {"rounds": 5, "ticks_per_round": 10}}
    svc = RunService(tmp_path / "store", n_workers=1,
                     default_quota=TenantQuota(max_running=4, max_queued=16))
    try:
        a_ids = [svc.submit("a", quick).run_id for _ in range(6)]
        b_ids = [svc.submit("b", quick).run_id for _ in range(3)]
        svc.start()                       # workers see the full backlog
        wait_all(svc, a_ids + b_ids)

        recs = sorted((svc.get_run(r) for r in a_ids + b_ids),
                      key=lambda r: r.started_at)
        order = [r.tenant for r in recs]
        assert order == ["a", "b", "a", "b", "a", "b", "a", "a", "a"], order
    finally:
        svc.stop(timeout=10.0, kill_live=True)
