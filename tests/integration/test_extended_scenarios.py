"""Extended integration scenarios: controller protocols, soak, Fortran."""

import numpy as np
import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.controllers import MSG_KILL
from repro.core.taskid import ANY, PARENT, TContr
from repro.core.vm import PiscesVM
from repro.flex.presets import nasa_langley_flex32
from repro.fortran import preprocess


class TestControllerKillProtocol:
    def test_kill_via_tcontr_message(self, make_vm, registry):
        """Tasks can ask a task controller to kill a task by message --
        the same mechanism the monitor uses (section 5/11)."""

        @registry.tasktype("HOG")
        def hog(ctx):
            ctx.send(PARENT, "IAM", ctx.self_id)
            ctx.accept("NEVER", delay=900_000, timeout_ok=True)

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("HOG", on=1)
            tid = ctx.accept("IAM").args[0]
            ctx.send(TContr(tid.cluster), MSG_KILL, tid)
            ctx.accept("X", delay=2000, timeout_ok=True)
            return tid

        vm = make_vm(registry=registry)
        r = vm.run("MAIN")
        assert not vm.tasks[r.value].alive
        assert r.stats.tasks_killed == 1


class TestSoak:
    def test_many_tasks_across_many_clusters(self, registry):
        """A 60-task fan-out over 10 clusters on the full NASA machine:
        every task replies, all slots recycle, heap drains clean."""

        @registry.tasktype("W")
        def w(ctx, k):
            ctx.compute(20 + (k % 7) * 15)
            ctx.send(PARENT, "DONE", k)

        @registry.tasktype("MAIN")
        def main(ctx):
            n = 60
            for k in range(n):
                ctx.initiate("W", k, on=ANY)
            res = ctx.accept(("DONE", 60), delay=5_000_000)
            return sorted(m.args[0] for m in res.messages)

        cfg = Configuration(
            clusters=tuple(ClusterSpec(i, 2 + i, 3) for i in range(1, 11)),
            name="soak")
        vm = PiscesVM(cfg, registry=registry,
                      machine=nasa_langley_flex32())
        r = vm.run("MAIN")
        assert r.value == list(range(60))
        assert r.stats.tasks_started == 61
        # held requests happened (60 tasks >> 30 slots) and drained
        assert r.stats.initiates_held > 0
        # every slot was recycled and all message storage recovered
        assert vm.storage_report()["message_bytes_live"] == 0
        for cr in vm.clusters.values():
            assert all(s.free for s in cr.slots)

    def test_deep_task_chain(self, make_vm, registry):
        """Recursion through INITIATE: a chain of 12 tasks, each the
        parent of the next; the result flows back up the tree."""

        @registry.tasktype("LINK")
        def link(ctx, depth):
            if depth == 0:
                ctx.send(PARENT, "VALUE", 1)
                return
            ctx.initiate("LINK", depth - 1, on=ANY)
            v = ctx.accept("VALUE").args[0]
            ctx.send(PARENT, "VALUE", v + 1)

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("LINK", 11, on=ANY)
            return ctx.accept("VALUE", delay=5_000_000).args[0]

        cfg = Configuration(
            clusters=(ClusterSpec(1, 3, 8), ClusterSpec(2, 4, 8)),
            name="chain")
        vm = make_vm(config=cfg, registry=registry)
        assert vm.run("MAIN").value == 12


class TestFortranIntegration:
    def test_pi_force_program(self, make_vm):
        """The examples' pi-by-force program, as a regression test."""
        src = """
        TASK MAIN
        HANDLER ANSWER
        ON CLUSTER 1 INITIATE PIFORCE(128)
        ACCEPT 1 OF ANSWER
        END TASK

        HANDLER ANSWER(PI)
        REAL PI
        PRINT *, 'PI', PI
        END HANDLER

        TASK PIFORCE(N)
        INTEGER N, I
        REAL H, X
        SHARED COMMON /ACC/ TOTAL
        REAL TOTAL
        LOCK L
        H = 1.0 / N
        FORCESPLIT
        PRESCHED DO 10 I = 1, N
          X = H * (I - 0.5)
          COMPUTE 8
          CRITICAL L
            TOTAL = TOTAL + 4.0 / (1.0 + X * X)
          END CRITICAL
        10 CONTINUE
        BARRIER
          TO PARENT SEND ANSWER(TOTAL * H)
        END BARRIER
        END TASK
        """
        prog = preprocess(src)
        cfg = Configuration(clusters=(
            ClusterSpec(1, 3, 4, secondary_pes=(4, 5, 6)),))
        vm = make_vm(config=cfg, registry=prog.registry)
        r = vm.run("MAIN")
        line = [l for l in r.console.splitlines() if "PI" in l][0]
        pi = float(line.rsplit(" ", 1)[1])
        assert abs(pi - 3.14159265) < 1e-3

    def test_fortran_task_using_windows_via_python_owner(self, make_vm):
        """Mixed program: a Python owner task exports an array; a
        Fortran task receives the window value and a Python helper task
        reads it -- window values round-trip through Fortran TASKID/
        WINDOW variables."""
        from repro.core.task import TaskRegistry

        src = """
        TASK RELAY
        WINDOW W
        ACCEPT 1 OF WIN
        W = LASTWIN
        TO PARENT SEND FWD(W)
        END TASK
        """
        # LASTWIN is not part of the language; use a handler instead.
        src = """
        TASK RELAY
        HANDLER WIN
        ACCEPT 1 OF WIN
        END TASK

        HANDLER WIN(W)
        WINDOW W
        TO PARENT SEND FWD(W)
        END HANDLER
        """
        prog = preprocess(src)
        reg = prog.registry

        @reg.tasktype("OWNER")
        def owner(ctx):
            a = np.arange(10.0)
            ctx.export_array("A", a)
            ctx.initiate("RELAY", on=1)
            ctx.accept("X", delay=1000, timeout_ok=True)
            ctx.broadcast("WIN", ctx.window("A"), cluster=1)
            w = ctx.accept("FWD").args[0]
            return float(np.asarray(ctx.window_read(w)).sum())

        vm = make_vm(registry=reg)
        assert vm.run("OWNER").value == 45.0
