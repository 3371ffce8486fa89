"""Unit tests: run metrics, lock contention in the metrics registry,
and the benchmarks' speedup table and load balance."""

import pytest

from benchmarks.scaling import ScalingPoint, load_balance, speedup_table
from repro.core.taskid import SELF
from repro.obs import collect_metrics


class TestCollectMetrics:
    def test_metrics_reflect_run(self, make_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.compute(500)
            ctx.send(SELF, "X")
            ctx.accept("X")

        vm = make_vm(registry=registry)
        vm.run("MAIN")
        m = collect_metrics(vm)
        assert m.elapsed >= 500
        assert m.stats.messages_sent >= 1
        assert m.stats.accepts == 1
        assert m.stats.tasks_started == 1
        assert 0.0 < m.mean_utilization <= 1.0
        assert "RUN METRICS" in m.table()

    def test_lock_contention_listing(self, make_vm, registry):
        """The registry lists each lock's acquisitions and the ticks
        each acquirer waited; the members that queued behind the
        holder show as non-zero waits."""
        def region(mm):
            with mm.critical("L"):
                mm.compute(50)

        @registry.tasktype("T", locks=("L",))
        def t(ctx):
            ctx.forcesplit(region)

        from repro.config.configuration import ClusterSpec, Configuration
        cfg = Configuration(clusters=(
            ClusterSpec(1, 3, 2, secondary_pes=(4, 5)),),
            metrics_enabled=True)
        vm = make_vm(config=cfg, registry=registry)
        vm.run("T")
        assert vm.metrics.counter("lock_acquisitions", lock="L").value == 3
        waits = vm.metrics.histogram("lock_wait_ticks", lock="L")
        assert waits.count == 3 and waits.total >= 50


class TestSpeedupTable:
    def test_relative_to_first_point(self):
        pts = [ScalingPoint("serial", 1, 1000),
               ScalingPoint("force4", 4, 300)]
        tbl = speedup_table(pts)
        assert "3.33x" in tbl and "83%" in tbl

    def test_empty(self):
        assert "no scaling points" in speedup_table([])


class TestLoadBalance:
    def test_perfect_balance_is_one(self):
        assert load_balance({0: 5, 1: 5, 2: 5}) == pytest.approx(1.0)

    def test_imbalance_grows(self):
        assert load_balance({0: 10, 1: 0}) == pytest.approx(2.0)

    def test_empty_map(self):
        assert load_balance({}) == 1.0


class TestTrafficMatrix:
    def test_counts_flows_by_tasktype(self, make_vm, registry):
        from repro.obs.analysis import traffic_matrix, traffic_table
        from repro.core.taskid import PARENT, SAME, USER

        @registry.tasktype("CHILD")
        def child(ctx):
            ctx.send(PARENT, "A")
            ctx.send(PARENT, "B")
            ctx.send(USER, "NOTE")

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("CHILD", on=SAME)
            ctx.accept("A")
            ctx.accept("B")

        vm = make_vm(registry=registry)
        vm.tracer.enable_all()
        vm.run("MAIN")
        m = traffic_matrix(vm)
        assert m[("CHILD", "MAIN")] == 2
        assert m[("CHILD", "<ucontr>")] == 1
        txt = traffic_table(vm)
        assert "CHILD" in txt and "messages" in txt

    def test_trace_fallback_names_controllers_and_the_terminal(
            self, make_vm, registry):
        """Metrics off, MSG_SEND traced: the matrix comes from the trace,
        with controllers named by kind and the terminal as <user>."""
        from repro.obs.analysis import traffic_matrix
        from repro.core.taskid import USER, USER_TERMINAL_ID
        from repro.core.tracing import TraceEvent, TraceEventType

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.send(USER, "NOTE")

        vm = make_vm(registry=registry)
        vm.tracer.enable(TraceEventType.MSG_SEND)
        r = vm.run("MAIN")
        assert not vm.metrics.enabled and not vm.msg_traffic
        vm.tracer.emit(TraceEvent(TraceEventType.MSG_SEND, USER_TERMINAL_ID,
                                  pe=1, ticks=r.elapsed, other=r.task))
        assert traffic_matrix(vm) == {("MAIN", "<ucontr>"): 1,
                                      ("MAIN", "<tcontr>"): 1,
                                      ("<user>", "MAIN"): 1}

    def test_without_tracing_reports_empty(self, make_vm, registry):
        from repro.obs.analysis import traffic_table

        @registry.tasktype("MAIN")
        def main(ctx):
            pass

        vm = make_vm(registry=registry)
        vm.run("MAIN")
        assert "no MSG_SEND" in traffic_table(vm)
