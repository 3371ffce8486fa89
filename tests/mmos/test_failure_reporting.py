"""Behavioral tests: deadlock report enrichment and shutdown draining.

A hang must be diagnosable from the error alone: the DeadlockError
carries every blocked process's name, wait reason and deadline, and its
dump distinguishes a crashed-PE hang from a true deadlock.  Shutdown
must fail-fast pending ACCEPT waiters with EngineShutdown rather than
abandoning them.
"""

import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.taskid import SAME
from repro.errors import DeadlockError, EngineShutdown, ProcessKilled
from repro.faults import FaultPlan, PECrash, plan_scope
from repro.flex.presets import small_flex
from repro.mmos.scheduler import Engine


class TestDeadlockReport:
    def deadlock(self, make_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.vm.engine.block("waiting-forever")

        vm = make_vm(registry=registry)
        with pytest.raises(DeadlockError) as ei:
            vm.run("MAIN")
        return ei.value

    def test_blocked_processes_are_structured(self, make_vm, registry):
        err = self.deadlock(make_vm, registry)
        assert err.blocked, "DeadlockError.blocked must list the waiters"
        names = [name for name, _, _ in err.blocked]
        assert any("MAIN" in n for n in names)
        for name, blocked_on, deadline in err.blocked:
            assert isinstance(name, str) and blocked_on == "waiting-forever"
            assert deadline is None

    def test_message_names_each_waiter_and_reason(self, make_vm, registry):
        err = self.deadlock(make_vm, registry)
        s = str(err)
        assert "waiting-forever" in s
        assert "live processes" in s

    def test_true_deadlock_reports_no_failed_pes(self, make_vm, registry):
        assert "failed PEs" not in str(self.deadlock(make_vm, registry))

    def test_crashed_pe_hang_is_distinguishable(self, make_vm, registry):
        """A parent hung on a child that died with its PE must produce a
        dump naming the failed PE -- tellable apart from a true deadlock
        by the message alone."""

        @registry.tasktype("CHILD")
        def child(ctx):
            ctx.vm.engine.block("child-parked")

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("CHILD", on=2)
            ctx.vm.engine.block("hung-on-dead-child")

        plan = FaultPlan(seed=1, crashes=(PECrash(at=2_000, pe=4),))
        with plan_scope(plan):
            vm = make_vm(registry=registry)
        with pytest.raises(DeadlockError) as ei:
            vm.run("MAIN")
        s = str(ei.value)
        assert "failed PEs: [4]" in s
        assert "hung-on-dead-child" in s


class TestShutdownDrainsAcceptWaiters:
    def test_accept_waiter_unwinds_with_engine_shutdown(self):
        eng = Engine(small_flex(8))
        seen = []

        def waiter():
            try:
                eng.block("accept(RESULT)")
            except EngineShutdown as e:
                seen.append(str(e))
                raise

        eng.spawn("waiter", 3, waiter, daemon=True)
        assert eng.step()            # drive it into the accept block
        eng.shutdown()
        assert eng.drained_accept_waiters == ["waiter"]
        assert len(seen) == 1 and "shut down" in seen[0]
        assert eng.leaked_threads == []

    def test_engine_shutdown_is_a_process_kill(self):
        # Existing unwind handling (force exit hooks, lock hand-off)
        # treats shutdown like any other kill.
        assert issubclass(EngineShutdown, ProcessKilled)

    def test_non_accept_blockers_are_not_listed_as_drained(self):
        eng = Engine(small_flex(8))
        eng.spawn("parked", 3, lambda: eng.block("just-parked"),
                  daemon=True)
        assert eng.step()
        eng.shutdown()
        assert eng.drained_accept_waiters == []

    def test_task_parked_in_accept_is_drained_not_abandoned(self, make_vm,
                                                            registry):
        """A run aborted mid-ACCEPT (here: time limit) records exactly
        which tasks were still waiting on messages at shutdown."""
        from repro.errors import TimeLimitExceeded

        @registry.tasktype("SPINNER")
        def spinner(ctx):
            while True:
                ctx.compute(10_000)   # trips the time limit

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("SPINNER", on=SAME)
            ctx.accept("NEVER", delay=900_000)

        vm = make_vm(registry=registry, time_limit=50_000)
        with pytest.raises(TimeLimitExceeded):
            vm.run("MAIN")
        assert any("MAIN" in name
                   for name in vm.engine.drained_accept_waiters)
        assert vm.engine.leaked_threads == []
