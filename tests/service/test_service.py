"""RunService in-process: lifecycle, kill, recovery, live queries."""

import errno
import json
import sys
import threading
import time

import pytest

from repro.errors import (ConfigurationError, InvalidRunSpec,
                          QuotaExceeded, UnknownRun)
from repro.service import (DONE, KILLED, QUEUED, RUNNING, RunService,
                           TenantQuota, catalog, executor)
from repro.service.spec import RunSpec
from repro.service.store import RunStore
from repro.util import durable
from tests.service import crash_points

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

    def test_fault_plan_hash_in_manifest_and_provenance(self, svc):
        """A run with a fault plan records the sha256 of its canonical
        text in ``manifest.json`` and in the record's provenance."""
        import hashlib
        import json

        from repro.faults import FaultPlan, TaskKill, dumps
        plan = dumps(FaultPlan(seed=7, kills=(
            TaskKill(at=5_000, tasktype="CWORKER"),)))
        rec = svc.submit("alice", {
            "app": "chaos_jacobi", "fault_plan": plan,
            "params": {"n": 12, "sweeps": 2, "on_death": "reassign"}})
        final = wait_state(svc, rec.run_id, DONE)
        digest = hashlib.sha256(plan.encode()).hexdigest()
        assert digest == ("6b4439e2d64ebea4058625b5df8f45bf"
                          "056a27e71bf78d2a1f625ac6a137f14f")
        manifest = json.loads(svc.store.artifact_path(
            rec.run_id, "manifest.json").read_text())
        assert manifest["fault_plan_hash"] == digest
        assert final.provenance["fault_plan_hash"] == digest

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


    def test_over_budget_run_refused_and_the_tenant_runs_on(self,
                                                              tmp_path):
        """A run whose plan needs more PEs than its tenant's pe_budget
        could never be admitted; queued, it would block every later run
        of the tenant behind it."""
        svc = RunService(tmp_path / "o", n_workers=1).start()
        try:
            with pytest.raises(QuotaExceeded,
                               match=r"needs 17 PEs, over pe_budget=16"):
                svc.submit("alice", {"app": "jacobi_force",
                                     "params": {"force_pes": 16}})
            assert svc.list_runs(tenant="alice") == []
            rec = svc.submit("alice", QUICK)
            assert wait_state(svc, rec.run_id, DONE, timeout=10.0)
        finally:
            svc.stop(kill_live=True)

    def test_max_queued_holds_under_concurrent_submits(self, tmp_path):
        """Eight in-process submits at once against ``max_queued=2``:
        the quota check and the create are one step, so exactly two
        queue, in every trial."""
        for trial in range(20):
            svc = RunService(tmp_path / f"t{trial}",
                             default_quota=TenantQuota(max_queued=2))
            barrier = threading.Barrier(8)
            refused = []

            def submit():
                barrier.wait(timeout=30)
                try:
                    svc.submit("alice", QUICK)
                except QuotaExceeded:
                    refused.append(1)

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            queued = svc.list_runs(tenant="alice", state=QUEUED)
            assert (len(queued), len(refused)) == (2, 6), trial

    def test_unparsable_fault_plan_refused_at_submit(self, svc):
        with pytest.raises(InvalidRunSpec, match="fault_plan"):
            svc.submit("alice", dict(QUICK, fault_plan="garbage here"))
        assert svc.list_runs(tenant="alice") == []

    def test_failed_vm_build_fails_the_run_and_frees_its_slot(
            self, tmp_path, monkeypatch):
        """A run whose VM fails to build goes from RUNNING to FAILED
        (not stuck holding one of its tenant's running slots)."""
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


    def test_unbuildable_queued_record_fails_and_the_queue_runs_on(
            self, tmp_path):
        """A stored spec that no longer builds (here a Fortran source that
        does not preprocess) ends FAILED with the typed error when
        admission prices it; the workers live on and run the next."""
        root = tmp_path / "p"
        store = RunStore(root)
        bad = store.create("alice", RunSpec.from_dict(
            {"app": "fortran", "params": {"source": "      TASK BROKEN\n"
                                                    "      NOT FORTRAN\n"}}))
        good = store.create("alice", RunSpec.from_dict(QUICK))
        svc = RunService(root, n_workers=2).start()
        try:
            final = wait_state(svc, bad.run_id, "FAILED", timeout=5.0)
            assert final.exit["error"].startswith("InvalidRunSpec: ")
            assert "did not preprocess" in final.exit["error"]
            assert wait_state(svc, good.run_id, DONE, timeout=5.0)
        finally:
            svc.stop(kill_live=True)


    def test_queued_record_over_budget_fails_and_the_queue_runs_on(
            self, tmp_path):
        """A queued run that no longer fits its tenant's pe_budget (the
        quotas changed across a restart) ends FAILED with the typed
        error at selection; the tenant's next run is served."""
        root = tmp_path / "q"
        store = RunStore(root)
        over = store.create("alice", RunSpec.from_dict(
            {"app": "jacobi_force", "params": {"force_pes": 3}}))
        good = store.create("alice", RunSpec.from_dict(QUICK))
        svc = RunService(root, n_workers=1,
                         default_quota=TenantQuota(pe_budget=3)).start()
        try:
            final = wait_state(svc, over.run_id, "FAILED", timeout=5.0)
            assert final.exit["error"].startswith("QuotaExceeded: ")
            assert "needs 4 PEs, over pe_budget=3" in final.exit["error"]
            assert wait_state(svc, good.run_id, DONE, timeout=5.0)
        finally:
            svc.stop(kill_live=True)


class TestWorkers:

    def test_failed_admission_write_keeps_the_worker(self, tmp_path,
                                                      monkeypatch, capsys):
        """A store write that fails while a worker admits a run (a full
        disk) leaves the run QUEUED and the worker alive; the next pick
        admits and runs it."""
        svc = RunService(tmp_path / "w", n_workers=1)
        transition = svc.store.transition
        refused = []

        def full_once(run_id, new_state, **amend):
            if new_state == RUNNING and not refused:
                refused.append(run_id)
                raise OSError(errno.ENOSPC, "No space left on device")
            return transition(run_id, new_state, **amend)

        monkeypatch.setattr(svc.store, "transition", full_once)
        svc.start()
        try:
            rec = svc.submit("alice", QUICK)
            assert wait_state(svc, rec.run_id, DONE, timeout=10.0)
            assert refused == [rec.run_id]
            assert [t.is_alive() for t in svc._workers] == [True]
        finally:
            svc.stop(kill_live=True)
        assert "admission not recorded" in capsys.readouterr().err

    def test_failed_write_of_an_unbuildable_run_leaves_it_queued(
            self, tmp_path, monkeypatch, capsys):
        """An unbuildable queued run ends FAILED in one write.  When that
        write fails (a full disk) the run stays QUEUED -- not RUNNING
        without a plan -- and the next pick fails it and serves the
        queue."""
        root = tmp_path / "u"
        store = RunStore(root)
        bad = store.create("alice", RunSpec.from_dict(
            {"app": "fortran", "params": {"source": "      TASK BROKEN\n"
                                                    "      NOT FORTRAN\n"}}))
        good = store.create("alice", RunSpec.from_dict(QUICK))
        svc = RunService(root, n_workers=1)
        transition = svc.store.transition
        refused = []

        def full_once(run_id, new_state, **amend):
            if new_state == "FAILED" and not refused:
                refused.append(svc.store.get(run_id).state)
                raise OSError(errno.ENOSPC, "No space left on device")
            return transition(run_id, new_state, **amend)

        monkeypatch.setattr(svc.store, "transition", full_once)
        svc.start()
        try:
            final = wait_state(svc, bad.run_id, "FAILED", RUNNING,
                               timeout=5.0)
            assert final.state == "FAILED"
            assert final.exit["error"].startswith("InvalidRunSpec: ")
            assert refused == [QUEUED]
            assert wait_state(svc, good.run_id, DONE, timeout=5.0)
        finally:
            svc.stop(kill_live=True)
        assert "admission not recorded" in capsys.readouterr().err


class TestPlanBuilds:
    """A served run is built once: at submit, or, for a run recovered at
    boot, when admission first prices it.  Admission holds that plan
    and the executor runs it, so a Fortran source is preprocessed once
    and a fault plan parsed once per run."""

    CKPT = {"app": "spin", "params": {"rounds": 200, "ticks_per_round": 50},
            "checkpoint_every": 2_000}

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def count_builds(self, monkeypatch):
        return self.count_calls(monkeypatch, catalog, "build")

    @staticmethod
    def execute(rec, store, plan):
        handle = executor.ExecutionHandle(rec.run_id, threading.Event())
        return executor.execute_run(rec, store, handle, plan)

    @staticmethod
    def served(root, tenant, spec):
        """Submit ``spec`` to a one-worker service over ``root`` and run
        it to DONE; returns the final record."""
        svc = RunService(root, n_workers=1)
        try:
            rec = svc.submit(tenant, spec)
            svc.start()
            return wait_state(svc, rec.run_id, DONE)
        finally:
            svc.stop()

    def test_fresh_run_builds_once(self, tmp_path, monkeypatch):
        """The one build is the caller's: the executor runs the plan it
        is given and builds nothing."""
        store = RunStore(tmp_path / "s")
        rec = store.create("alice", RunSpec.from_dict(QUICK))
        rec = store.transition(rec.run_id, RUNNING)
        calls = self.count_builds(monkeypatch)
        final = self.execute(rec, store, catalog.build(rec.spec))
        assert final.state == DONE
        assert calls == [rec.spec]

    def interrupted_run(self, root):
        """A checkpointing run that ran and left its checkpoints behind
        but no terminal state: returns its record (RUNNING) and the
        uninterrupted result."""
        store = RunStore(root)
        rec = store.create("alice", RunSpec.from_dict(self.CKPT))
        rec = store.transition(rec.run_id, RUNNING, started_at=1.0)
        plan = catalog.build(rec.spec)
        vm = executor.build_vm(rec, store, plan)
        return rec, vm.run(plan.tasktype, *plan.args, shutdown=True)

    def test_checkpoint_resume_builds_once(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        rec, uninterrupted = self.interrupted_run(root)
        calls = self.count_builds(monkeypatch)
        svc = RunService(root, n_workers=1).start()
        try:
            final = wait_state(svc, rec.run_id, DONE)
        finally:
            svc.stop()
        assert final.recovered == 1 and final.exit["resumed_from"]
        assert final.exit["elapsed_ticks"] == uninterrupted.elapsed
        assert calls == [rec.spec]

    def test_checkpoint_resume_writes_three_records(self, tmp_path,
                                                    monkeypatch, capsys):
        """Recovery's QUEUED, admission's RUNNING and the terminal DONE,
        which names the bundle resumed from: resuming writes no record."""
        root = tmp_path / "s"
        rec, _ = self.interrupted_run(root)
        monkeypatch.setattr(durable, "os", crash_points._Steps(root, None))
        svc = RunService(root, n_workers=1).start()
        try:
            final = wait_state(svc, rec.run_id, DONE)
        finally:
            svc.stop()
        steps = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert [s["state"] for s in steps if s["step"] == "replace"
                and s["path"].endswith("record.json")] \
            == [QUEUED, RUNNING, DONE]
        assert final.resumed_from == final.exit["resumed_from"]
        assert final.resumed_from.endswith(".pckpt")

    def test_checkpoint_resume_archives_the_whole_schedule(self, tmp_path):
        """The resumed run's run.psched holds the checkpoint's decision
        prefix and the live tail after it: the uninterrupted run's."""
        root = tmp_path / "s"
        _, uninterrupted = self.interrupted_run(root)
        store = RunStore(root)
        [rec] = store.recover()
        rec = store.transition(rec.run_id, RUNNING)
        final = self.execute(rec, store, catalog.build(rec.spec))
        assert final.state == DONE and final.exit["resumed_from"]
        assert "run.psched" in final.artifacts
        archived = store.artifacts_dir(rec.run_id) / "run.psched"
        assert archived.read_text() == uninterrupted.vm.sched_hook.dumps()

    def test_submitted_run_builds_once(self, tmp_path, monkeypatch):
        calls = self.count_builds(monkeypatch)
        final = self.served(tmp_path / "s", "alice", QUICK)
        assert calls == [final.spec]          # validation at submit

    def test_recovered_run_is_priced_by_a_build(self, tmp_path,
                                                monkeypatch):
        """One build serves both the pricing and the execution."""
        root = tmp_path / "s"
        store = RunStore(root)
        rec = store.create("alice", RunSpec.from_dict(QUICK))
        store.transition(rec.run_id, RUNNING)
        plans = []
        build = catalog.build

        def recording(spec):
            plans.append(build(spec))
            return plans[-1]

        monkeypatch.setattr(catalog, "build", recording)
        ran = []
        build_vm = executor.build_vm

        def running(rec, store, plan):
            ran.append(plan)
            return build_vm(rec, store, plan)

        monkeypatch.setattr(executor, "build_vm", running)
        svc = RunService(root, n_workers=1).start()
        try:
            wait_state(svc, rec.run_id, DONE)
        finally:
            svc.stop()
        assert len(plans) == len(ran) == 1 and ran[0] is plans[0]

    def test_fortran_run_preprocesses_once(self, tmp_path, monkeypatch):
        from repro.fortran import preprocessor
        from tests.golden.digests import SPECS

        calls = self.count_calls(monkeypatch, preprocessor, "preprocess")
        self.served(tmp_path / "s", "alice", SPECS["fortran"])
        assert calls == [SPECS["fortran"]["params"]["source"]]

    def test_fault_plan_parsed_once(self, tmp_path, monkeypatch):
        from repro.faults import plan as fault_plan
        from tests.golden.digests import SPECS

        spec = SPECS["chaos_jacobi_taskkill"]
        calls = self.count_calls(monkeypatch, fault_plan, "loads")
        final = self.served(tmp_path / "s", "bob", spec)
        assert "run.faults.jsonl" in final.artifacts
        assert calls == [spec["fault_plan"]]

    def test_concurrent_submits_build_once_per_run(self, tmp_path,
                                                   monkeypatch):
        """Two tenants submit checkpointing runs while two workers
        select: no worker ever prices a run whose plan is not held."""
        calls = self.count_builds(monkeypatch)
        svc = RunService(tmp_path / "s", n_workers=2,
                         default_quota=TenantQuota(max_queued=64)).start()
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)          # interleave threads finely

        def tenant(name):
            for i in range(12):
                spec = dict(self.CKPT, params={"rounds": 100,
                                               "ticks_per_round": 50},
                            run_seed=len(name) * 100 + i)
                runs[name, i] = svc.submit(name, spec).run_id

        try:
            threads = [threading.Thread(target=tenant, args=(t,))
                       for t in ("alice", "bob")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            finals = [wait_state(svc, r, DONE) for r in runs.values()]
        finally:
            sys.setswitchinterval(interval)
            svc.stop()
        assert len(finals) == 24
        assert sorted(s.run_seed for s in calls) \
            == sorted(f.spec.run_seed for f in finals)


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
