"""Behavioral tests: windows between tasks and via the file controller."""

import numpy as np
import pytest

from repro.core.taskid import PARENT, SAME
from repro.errors import WindowError


class TestTaskWindows:
    def test_window_passed_in_message_and_read(self, make_vm, registry):
        @registry.tasktype("READER")
        def reader(ctx):
            ctx.send(PARENT, "GIMME")
            w = ctx.accept("WIN").args[0]
            data = ctx.window_read(w)
            ctx.send(PARENT, "SUM", float(np.asarray(data).sum()))

        @registry.tasktype("OWNER")
        def owner(ctx):
            a = np.arange(16.0).reshape(4, 4)
            ctx.export_array("A", a)
            ctx.initiate("READER", on=SAME)
            ctx.accept("GIMME")
            ctx.send(ctx.sender, "WIN",
                     ctx.window("A", region=(slice(0, 2), slice(0, 4))))
            return ctx.accept("SUM").args[0]

        vm = make_vm(registry=registry)
        assert vm.run("OWNER").value == float(np.arange(8.0).sum())

    def test_window_write_mutates_owner_array(self, make_vm, registry):
        @registry.tasktype("WRITER")
        def writer(ctx):
            ctx.send(PARENT, "GIMME")
            w = ctx.accept("WIN").args[0]
            ctx.window_write(w, np.full(w.shape, 9.0))
            ctx.send(PARENT, "DONE")

        @registry.tasktype("OWNER")
        def owner(ctx):
            a = np.zeros((4, 4))
            ctx.export_array("A", a)
            ctx.initiate("WRITER", on=SAME)
            ctx.accept("GIMME")
            ctx.send(ctx.sender, "WIN",
                     ctx.window("A", region=(slice(1, 3), slice(1, 3))))
            ctx.accept("DONE")
            return float(a.sum()), float(a[1, 1])

        vm = make_vm(registry=registry)
        total, corner = vm.run("OWNER").value
        assert total == 4 * 9.0 and corner == 9.0

    def test_partitioning_forwards_windows_not_data(self, make_vm, registry):
        """Section 8's point: a middle partitioning task forwards shrunk
        windows; array bytes move exactly once (owner -> leaf)."""

        @registry.tasktype("LEAF")
        def leaf(ctx, k):
            ctx.send(PARENT, "HELLO", k)
            w = ctx.accept("WIN").args[0]
            data = ctx.window_read(w)
            ctx.send(PARENT, "SUM", float(np.asarray(data).sum()))

        @registry.tasktype("PARTITIONER")
        def partitioner(ctx):
            w = ctx.accept("WIN").args[0]
            halves = w.split(2, axis=0)
            for k in range(2):
                ctx.initiate("LEAF", k, on=SAME)
            order = {}
            for _ in range(2):
                res = ctx.accept("HELLO")
                order[res.args[0]] = res.sender
            for k in range(2):
                ctx.send(order[k], "WIN", halves[k])
            total = 0.0
            for _ in range(2):
                total += ctx.accept("SUM").args[0]
            ctx.send(PARENT, "TOTAL", total)

        @registry.tasktype("OWNER")
        def owner(ctx):
            a = np.arange(64.0).reshape(8, 8)
            ctx.export_array("A", a)
            ctx.initiate("PARTITIONER", on=SAME)
            # give the partitioner the whole-array window
            import time
            ctx.accept("X", delay=500, timeout_ok=True)  # let it start
            # find the partitioner task: it is our child; send via broadcast
            ctx.broadcast("WIN", ctx.window("A"), cluster=1)
            return ctx.accept("TOTAL").args[0]

        vm = make_vm(registry=registry)
        r = vm.run("OWNER")
        assert r.value == float(np.arange(64.0).sum())
        # Bytes moved through windows = exactly one full array read.
        assert r.stats.window_bytes_read == 64 * 8
        assert r.stats.window_reads == 2

    def test_window_on_dead_owner_fails(self, make_vm, registry):
        @registry.tasktype("BRIEF")
        def brief(ctx):
            a = np.zeros(4)
            ctx.export_array("A", a)
            ctx.send(PARENT, "WIN", ctx.window("A"))

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("BRIEF", on=SAME)
            w = ctx.accept("WIN").args[0]
            ctx.accept("X", delay=2000, timeout_ok=True)  # owner dies
            ctx.window_read(w)

        vm = make_vm(registry=registry)
        with pytest.raises(WindowError):
            vm.run("MAIN")

    def test_window_transfer_cost_scales_with_size(self, make_vm, registry):
        def run(n, registry):
            @registry.tasktype(f"T{n}")
            def t(ctx):
                a = np.zeros(n)
                ctx.export_array("A", a)
                t0 = ctx.now()
                ctx.window_read(ctx.window("A"))
                return ctx.now() - t0
            return f"T{n}"

        small = run(16, registry)
        big = run(4096, registry)
        vm1 = make_vm(registry=registry)
        c_small = vm1.run(small).value
        vm2 = make_vm(registry=registry)
        c_big = vm2.run(big).value
        assert c_big > c_small

    def test_window_traffic_passes_through_message_heap(self, make_vm,
                                                        registry):
        @registry.tasktype("T")
        def t(ctx):
            a = np.zeros(512)
            ctx.export_array("A", a)
            before = ctx.vm.machine.shared.stats.high_water
            ctx.window_read(ctx.window("A"))
            after = ctx.vm.machine.shared.stats.high_water
            return after - before

        vm = make_vm(registry=registry)
        assert vm.run("T").value >= 512 * 8


class TestFileController:
    def test_file_window_read_write(self, make_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            w = ctx.file_window("INPUT")
            data = ctx.window_read(w)
            half = w.shrink((slice(0, 4),))
            ctx.window_write(half, np.full(4, -1.0))
            return float(np.asarray(data).sum())

        vm = make_vm(registry=registry)
        vm.export_file("INPUT", np.arange(8.0))
        r = vm.run("MAIN")
        assert r.value == float(np.arange(8.0).sum())
        assert list(vm.file_controller.arrays.get("INPUT")[:4]) == [-1.0] * 4

    def test_concurrent_overlapping_file_access_serialized(self, make_vm,
                                                           registry):
        """Section 8: 'the file controller can manage any parallel
        read/write requests for overlapping sections of an array'."""

        @registry.tasktype("WRITER")
        def writer(ctx, k):
            w = ctx.file_window("SHARED").shrink((slice(k * 2, k * 2 + 4),))
            ctx.window_write(w, np.full(4, float(k + 1)))
            ctx.send(PARENT, "DONE")

        @registry.tasktype("MAIN")
        def main(ctx):
            for k in range(3):
                ctx.initiate("WRITER", k, on=SAME)
            ctx.accept("DONE", count=3)
            return None

        vm = make_vm(registry=registry)
        vm.export_file("SHARED", np.zeros(8))
        vm.run("MAIN")
        log = vm.file_controller.arrays.access_log
        writes = [e for e in log if e[0] == "write"]
        assert len(writes) == 3
        # Serialization: access timestamps strictly ordered.
        times = [e[3] for e in writes]
        assert times == sorted(times)
        # Every cell holds one writer's value (no torn writes).
        arr = vm.file_controller.arrays.get("SHARED")
        assert set(arr.tolist()) <= {1.0, 2.0, 3.0}

    def test_file_window_protocol_by_message(self, make_vm, registry):
        """The asynchronous @FWINDOW protocol of section 8."""
        from repro.core.controllers import (MSG_FILE_WINDOW,
                                            MSG_FILE_WINDOW_REPLY)

        @registry.tasktype("MAIN")
        def main(ctx):
            fc = ctx.vm.file_controller
            ctx.send(fc.tid, MSG_FILE_WINDOW, "INPUT")
            w = ctx.accept(MSG_FILE_WINDOW_REPLY).args[0]
            return float(np.asarray(ctx.window_read(w)).sum())

        vm = make_vm(registry=registry)
        vm.export_file("INPUT", np.ones(5))
        assert vm.run("MAIN").value == 5.0

    def test_unknown_file_raises(self, make_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.file_window("MISSING")

        vm = make_vm(registry=registry)
        with pytest.raises(WindowError):
            vm.run("MAIN")
