"""Behavioral tests: controllers, slots, and task life-cycle."""

import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.taskid import PARENT, SAME, TaskId


class TestSlotManagement:
    def test_initiate_held_until_slot_frees(self, make_vm, registry):
        """Section 6: with all slots full the controller holds the
        request until another task terminates."""

        @registry.tasktype("SHORT")
        def short(ctx, k):
            ctx.compute(100)
            ctx.send(PARENT, "FIN", k)

        @registry.tasktype("MAIN")
        def main(ctx):
            # Cluster 2 has 1 slot; queue three tasks into it.
            for k in range(3):
                ctx.initiate("SHORT", k, on=2)
            res = ctx.accept(("FIN", 3))
            return [m.args[0] for m in res.messages]

        cfg = Configuration(clusters=(ClusterSpec(1, 3, 2),
                                      ClusterSpec(2, 4, 1)))
        vm = make_vm(config=cfg, registry=registry)
        r = vm.run("MAIN")
        assert sorted(r.value) == [0, 1, 2]
        # They ran one at a time through the single slot, FIFO.
        assert r.value == [0, 1, 2]
        assert r.stats.initiates_held >= 2

    def test_held_requests_counted(self, make_vm, registry):
        @registry.tasktype("W")
        def w(ctx):
            ctx.compute(50)

        @registry.tasktype("MAIN")
        def main(ctx):
            for _ in range(4):
                ctx.initiate("W", on=2)
            ctx.accept("X", delay=5000, timeout_ok=True)

        cfg = Configuration(clusters=(ClusterSpec(1, 3, 2),
                                      ClusterSpec(2, 4, 1)))
        vm = make_vm(config=cfg, registry=registry)
        r = vm.run("MAIN")
        assert r.stats.tasks_started == 5   # MAIN + 4 workers eventually

    def test_cluster_counters(self, make_vm, registry):
        @registry.tasktype("W")
        def w(ctx):
            pass

        @registry.tasktype("MAIN")
        def main(ctx):
            for _ in range(3):
                ctx.initiate("W", on=SAME)
            ctx.accept("X", delay=3000, timeout_ok=True)

        vm = make_vm(registry=registry)
        vm.run("MAIN")
        started = {key: c.value for key, c
                   in vm.counts.tasks_started.items()}
        assert started == {(1, "MAIN"): 1, (1, "W"): 3}
        assert vm.clusters[1].tasks_terminated >= 3


class TestKill:
    def test_kill_releases_slot_and_notifies(self, make_vm, registry):
        @registry.tasktype("HOG")
        def hog(ctx):
            ctx.send(PARENT, "IAM", ctx.self_id)
            ctx.accept("NEVER")   # blocks for the system default

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("HOG", on=SAME)
            tid = ctx.accept("IAM").args[0]
            assert ctx.vm.kill_task(tid)
            ctx.accept("X", delay=2000, timeout_ok=True)
            return tid

        vm = make_vm(registry=registry)
        r = vm.run("MAIN")
        tid = r.value
        assert not vm.tasks[tid].alive
        slot = vm.clusters[tid.cluster].slots[tid.slot - 1]
        assert slot.free
        assert r.stats.tasks_killed == 1

    def test_kill_of_unknown_or_done_task_returns_false(self, make_vm,
                                                        registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            return ctx.vm.kill_task(TaskId(1, 1, 99))

        vm = make_vm(registry=registry)
        assert vm.run("MAIN").value is False

    def test_killed_task_frees_its_messages(self, make_vm, registry):
        @registry.tasktype("HOG")
        def hog(ctx):
            ctx.send(PARENT, "IAM", ctx.self_id)
            ctx.accept("NEVER")

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("HOG", on=SAME)
            tid = ctx.accept("IAM").args[0]
            for i in range(5):
                ctx.send(tid, "JUNK", i)   # queues in HOG's in-queue
            heap = ctx.vm.machine.shared
            ctx.accept("X", delay=500, timeout_ok=True)
            before = heap.live_bytes_by_tag().get("message", 0)
            ctx.vm.kill_task(tid)
            ctx.accept("X", delay=2000, timeout_ok=True)
            after = heap.live_bytes_by_tag().get("message", 0)
            return before, after

        vm = make_vm(registry=registry)
        before, after = vm.run("MAIN").value
        assert after < before

    def test_kill_terminates_force_members(self, make_vm, registry):
        def region(m):
            if m.member > 0:
                m.vm.engine.block("member-stuck")
            else:
                m.task.vm.kill_task(m.self_id)

        @registry.tasktype("T")
        def t(ctx):
            ctx.forcesplit(region)

        cfg = Configuration(clusters=(
            ClusterSpec(1, 3, 2, secondary_pes=(4, 5)),))
        vm = make_vm(config=cfg, registry=registry)
        vm.run("T")   # completes without deadlock: members were killed
        assert vm.stats.tasks_killed == 1


class TestControllers:
    def test_controllers_occupy_reserved_slots(self, make_vm, registry):
        vm = make_vm(registry=registry)
        tcon_ids = [c.tid for c in vm.task_controllers.values()]
        assert all(t.slot == 0 for t in tcon_ids)
        assert vm.user_controller.tid.slot == -1
        assert vm.file_controller.tid.slot == -2

    def test_every_cluster_has_a_task_controller(self, make_vm, registry):
        vm = make_vm(registry=registry)
        assert set(vm.task_controllers) == set(vm.clusters)

    def test_unknown_message_to_task_controller_ignored(self, make_vm,
                                                        registry):
        from repro.core.taskid import TContr

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.send(TContr(1), "GIBBERISH", 1, 2)
            ctx.accept("X", delay=500, timeout_ok=True)
            return "survived"

        vm = make_vm(registry=registry)
        assert vm.run("MAIN").value == "survived"

    def test_user_controller_placement_configurable(self, make_vm, registry):
        cfg = Configuration(clusters=(ClusterSpec(1, 3, 2),
                                      ClusterSpec(2, 4, 2)),
                            user_cluster=2, file_cluster=2)
        vm = make_vm(config=cfg, registry=registry)
        assert vm.user_controller.cluster.number == 2
        assert vm.file_controller.cluster.number == 2
