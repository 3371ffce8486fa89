"""RunService in-process: lifecycle, kill, recovery, live queries."""

import threading
import time

import pytest

from repro.errors import (ConfigurationError, InvalidRunSpec,
                          QuotaExceeded, UnknownRun)
from repro.service import (DONE, KILLED, QUEUED, RUNNING, RunService,
                           TenantQuota, catalog, executor)
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

    def test_record_carries_execution_provenance(self, svc):
        """The service run record surfaces how the run executed, and
        names no retired execution axis."""
        rec = svc.submit("alice", QUICK)
        final = wait_state(svc, rec.run_id, DONE)
        assert final.provenance["dispatcher"] == "indexed"
        assert final.provenance["repro_version"]
        for axis in ("exec_core", "window_path", "task_bodies"):
            assert axis not in final.provenance

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


    def test_unparsable_fault_plan_refused_at_submit(self, svc):
        with pytest.raises(InvalidRunSpec, match="fault_plan"):
            svc.submit("alice", dict(QUICK, fault_plan="garbage here"))
        assert svc.list_runs(tenant="alice") == []

    def test_failed_vm_build_fails_the_run_and_frees_its_slot(
            self, tmp_path, monkeypatch):
        """A run that fails before RUNNING ends FAILED (not stuck in
        ADMITTED holding one of its tenant's running slots)."""
        real = executor.build_vm

        def build_vm(rec, store, plan):
            if rec.spec.run_seed == 1:
                raise ConfigurationError("no VM for this one")
            return real(rec, store, plan)

        monkeypatch.setattr(executor, "build_vm", build_vm)
        svc = RunService(tmp_path / "b", n_workers=1,
                         default_quota=TenantQuota(max_running=1)).start()
        try:
            bad = svc.submit("a", dict(QUICK, run_seed=1))
            final = wait_state(svc, bad.run_id, "FAILED", timeout=30.0)
            assert "no VM for this one" in final.exit["error"]
            good = svc.submit("a", QUICK)
            assert wait_state(svc, good.run_id, DONE).state == DONE
        finally:
            svc.stop(kill_live=True)


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


class TestPlanBuilds:
    """``execute_run`` builds the catalog plan once per execution, and
    a submitted run is priced from the plan its validation built."""

    CKPT = {"app": "spin", "params": {"rounds": 200, "ticks_per_round": 50},
            "checkpoint_every": 2_000}

    @staticmethod
    def count_builds(monkeypatch):
        calls = []
        build = catalog.build

        def counting(spec):
            calls.append(spec)
            return build(spec)

        monkeypatch.setattr(catalog, "build", counting)
        return calls

    @staticmethod
    def execute(rec, store):
        handle = executor.ExecutionHandle(rec.run_id, threading.Event())
        return executor.execute_run(rec, store, handle)

    def test_fresh_run_builds_once(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "s")
        rec = store.create("alice", RunSpec.from_dict(QUICK))
        rec = store.transition(rec.run_id, ADMITTED)
        calls = self.count_builds(monkeypatch)
        final = self.execute(rec, store)
        assert final.state == DONE
        assert calls == [rec.spec]

    def test_checkpoint_resume_builds_once(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        store = RunStore(root)
        rec = store.create("alice", RunSpec.from_dict(self.CKPT))
        store.transition(rec.run_id, ADMITTED)
        rec = store.transition(rec.run_id, RUNNING, started_at=1.0)
        # The interrupted life: it ran and left its checkpoints behind.
        plan = catalog.build(rec.spec)
        vm = executor.build_vm(rec, store, plan)
        uninterrupted = vm.run(plan.tasktype, *plan.args,
                               shutdown=True).elapsed

        store = RunStore(root)
        [rec] = store.recover()
        rec = store.transition(rec.run_id, ADMITTED)
        calls = self.count_builds(monkeypatch)
        final = self.execute(rec, store)
        assert final.state == DONE and final.exit["resumed_from"]
        assert final.exit["elapsed_ticks"] == uninterrupted
        assert calls == [rec.spec]


    def test_submitted_run_builds_twice(self, tmp_path, monkeypatch):
        calls = self.count_builds(monkeypatch)
        svc = RunService(tmp_path / "s", n_workers=1)
        try:
            rec = svc.submit("alice", QUICK)
            assert len(calls) == 1            # validation at submit
            svc.start()
            wait_state(svc, rec.run_id, DONE)
        finally:
            svc.stop()
        assert calls == [rec.spec, rec.spec]  # + one execution

    def test_recovered_run_is_priced_by_a_build(self, tmp_path,
                                                monkeypatch):
        root = tmp_path / "s"
        store = RunStore(root)
        rec = store.create("alice", RunSpec.from_dict(QUICK))
        store.transition(rec.run_id, ADMITTED)
        calls = self.count_builds(monkeypatch)
        svc = RunService(root, n_workers=1).start()
        try:
            wait_state(svc, rec.run_id, DONE)
        finally:
            svc.stop()
        assert calls == [rec.spec, rec.spec]  # pricing + one execution


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
