"""RunService in-process: lifecycle, kill, recovery, live queries."""

import time

import pytest

from repro.errors import InvalidRunSpec, QuotaExceeded, UnknownRun
from repro.service import (DONE, KILLED, QUEUED, RUNNING, RunService,
                           TenantQuota)
from repro.service.spec import RunSpec
from repro.service.store import ADMITTED, RunStore

QUICK = {"app": "spin", "params": {"rounds": 5, "ticks_per_round": 10}}
SLOW = {"app": "spin", "params": {"rounds": 400000, "ticks_per_round": 10}}


def wait_state(svc, run_id, *states, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rec = svc.get_run(run_id)
        if rec.state in states:
            return rec
        time.sleep(0.02)
    raise AssertionError(
        f"run {run_id} stuck in {svc.get_run(run_id).state}, "
        f"wanted {states}")


@pytest.fixture
def svc(tmp_path):
    s = RunService(tmp_path / "store", n_workers=2).start()
    yield s
    s.stop(timeout=10.0, kill_live=True)


class TestSubmitAndRun:

    def test_run_completes_with_artifacts(self, svc):
        rec = svc.submit("alice", QUICK)
        assert rec.state == QUEUED
        final = wait_state(svc, rec.run_id, DONE)
        assert final.exit["outcome"] == "done"
        assert final.exit["elapsed_ticks"] > 0
        assert "run.events.jsonl" in final.artifacts
        assert "manifest.json" in final.artifacts

    def test_record_carries_task_bodies_provenance(self, svc):
        """The service run record surfaces how the run executed
        (including the task_bodies axis the manifest records)."""
        rec = svc.submit("alice", QUICK)
        final = wait_state(svc, rec.run_id, DONE)
        assert final.provenance["task_bodies"] in ("auto", "callable")
        assert "exec_core" not in final.provenance
        assert final.provenance["dispatcher"] == "indexed"
        assert final.provenance["window_path"] == "fast"

    def test_bad_tenant_refused(self, svc):
        with pytest.raises(InvalidRunSpec, match="tenant"):
            svc.submit("", QUICK)
        with pytest.raises(InvalidRunSpec, match="tenant"):
            svc.submit("no/slashes", QUICK)

    def test_bad_spec_refused_before_queueing(self, svc):
        with pytest.raises(InvalidRunSpec):
            svc.submit("alice", {"app": "nope"})
        assert svc.list_runs(tenant="alice") == []

    def test_over_quota_submit_refused(self, tmp_path):
        svc = RunService(tmp_path / "q", n_workers=1,
                         default_quota=TenantQuota(max_queued=1))
        try:
            svc.submit("a", SLOW)
            with pytest.raises(QuotaExceeded):
                svc.submit("a", SLOW)
        finally:
            svc.stop(kill_live=True)

    def test_failed_run_records_error(self, svc):
        # chaos_jacobi with on_death=abort and max_rounds too small to
        # converge returns normally; instead force a failure with a
        # spec whose app builds but whose run raises: kill the master
        # via a fault plan with strict sends... simplest determinate
        # failure: fortran source whose task divides by zero.
        src = ("      TASK BOOM\n"
               "      INTEGER N\n"
               "      N = 1 / 0\n"
               "      END TASK\n")
        rec = svc.submit("alice", {"app": "fortran",
                                   "params": {"source": src}})
        final = wait_state(svc, rec.run_id, DONE, "FAILED")
        assert final.state == "FAILED"
        assert "error" in final.exit


class TestKill:

    def test_kill_running_run(self, svc):
        rec = svc.submit("alice", SLOW)
        wait_state(svc, rec.run_id, RUNNING)
        svc.kill(rec.run_id)
        final = wait_state(svc, rec.run_id, KILLED, timeout=30.0)
        assert final.exit["outcome"] == "killed"

    def test_kill_queued_run_is_immediate(self, tmp_path):
        svc = RunService(tmp_path / "k", n_workers=1)
        try:
            # not started: stays QUEUED
            rec = svc.submit("alice", QUICK)
            out = svc.kill(rec.run_id)
            assert out.state == KILLED
        finally:
            svc.stop(kill_live=True)

    def test_kill_terminal_run_is_idempotent(self, svc):
        rec = svc.submit("alice", QUICK)
        wait_state(svc, rec.run_id, DONE)
        assert svc.kill(rec.run_id).state == DONE

    def test_kill_unknown_run(self, svc):
        with pytest.raises(UnknownRun):
            svc.kill("r424242")

    def test_killed_run_frees_the_worker(self, tmp_path):
        svc = RunService(tmp_path / "f", n_workers=1).start()
        try:
            blocker = svc.submit("a", SLOW)
            follower = svc.submit("a", QUICK)
            wait_state(svc, blocker.run_id, RUNNING)
            svc.kill(blocker.run_id)
            final = wait_state(svc, follower.run_id, DONE, timeout=60.0)
            assert final.state == DONE
        finally:
            svc.stop(kill_live=True)


class TestRecovery:

    def test_boot_requeues_interrupted_runs(self, tmp_path):
        root = tmp_path / "r"
        store = RunStore(root)
        rec = store.create("alice", RunSpec.from_dict(QUICK))
        store.transition(rec.run_id, ADMITTED)
        store.transition(rec.run_id, RUNNING, started_at=1.0)

        svc = RunService(root, n_workers=1)
        try:
            assert [r.run_id for r in svc.recovered] == [rec.run_id]
            svc.start()
            final = wait_state(svc, rec.run_id, DONE)
            assert final.recovered == 1
            assert final.exit["outcome"] == "done"
        finally:
            svc.stop(kill_live=True)


class TestLiveQueries:

    def test_live_metrics_and_trace_and_status(self, svc):
        rec = svc.submit("alice", SLOW)
        wait_state(svc, rec.run_id, RUNNING)
        m = svc.metrics(rec.run_id)
        assert m["live"] is True and isinstance(m["metrics"], dict)
        status = svc.status_text(rec.run_id)
        assert "PE" in status or "TASK" in status.upper()
        svc.kill(rec.run_id)
        wait_state(svc, rec.run_id, KILLED, timeout=30.0)

    def test_archived_trace_and_spans(self, svc):
        rec = svc.submit("alice", QUICK)
        wait_state(svc, rec.run_id, DONE)
        events = svc.trace_events(rec.run_id)
        assert events and all("etype" in e for e in events)
        tail = svc.trace_events(rec.run_id, limit=3)
        assert tail == events[-3:]
        spans = svc.trace_spans(rec.run_id)
        assert spans and all(s["end"] >= s["start"] for s in spans)

    def test_health(self, svc):
        h = svc.health()
        assert h["status"] == "ok" and h["workers"] == 2
        assert "spin" in h["apps"]
