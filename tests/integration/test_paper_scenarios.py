"""Integration tests reproducing the paper's worked scenarios."""

import numpy as np
import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.taskid import ANY, Cluster, PARENT, SENDER
from repro.core.vm import PiscesVM
from repro.flex.presets import nasa_langley_flex32


def section9_configuration() -> Configuration:
    """The exact 18-PE mapping example of section 9:

    a. four clusters, numbered 1-4;
    b. clusters 1-4 on PEs 3-6, 4 slots each;
    c. PEs 7-15 run forces for BOTH clusters 3 and 4;
    d. PEs 16-20 run forces for cluster 2;
    e. no force PEs for cluster 1.
    """
    return Configuration(
        clusters=(
            ClusterSpec(1, 3, 4),
            ClusterSpec(2, 4, 4, tuple(range(16, 21))),
            ClusterSpec(3, 5, 4, tuple(range(7, 16))),
            ClusterSpec(4, 6, 4, tuple(range(7, 16))),
        ),
        name="section9-example")


class TestSection9MappingExample:
    """Every property the paper states about the example mapping."""

    def test_configuration_is_valid_on_the_nasa_machine(self):
        cfg = section9_configuration()
        cfg.validate(nasa_langley_flex32().spec)

    def test_uses_all_18_mmos_pes(self):
        assert section9_configuration().used_pes() == list(range(3, 21))

    def test_force_sizes(self, registry):
        cfg = section9_configuration()
        vm = PiscesVM(cfg, registry=registry,
                      machine=nasa_langley_flex32())
        try:
            # cluster 1: no splitting; cluster 2: 1+5; clusters 3,4: 1+9
            assert vm.clusters[1].force_size == 1
            assert vm.clusters[2].force_size == 6
            assert vm.clusters[3].force_size == 10
            assert vm.clusters[4].force_size == 10
        finally:
            vm.shutdown()

    def test_max_multiprogramming_on_shared_force_pe_is_8(self):
        """'The maximum number of simultaneous tasks that might be
        running on one of these PE's is ... 4+4=8 here.'"""
        cfg = section9_configuration()
        for pe in range(7, 16):
            assert cfg.max_multiprogramming(pe) == 8
        for pe in range(16, 21):
            assert cfg.max_multiprogramming(pe) == 4
        for pe in (3, 4, 5, 6):
            assert cfg.max_multiprogramming(pe) == 4

    def test_cluster1_forcesplit_causes_no_parallel_splitting(self,
                                                              registry):
        """Example item e, verbatim behaviour."""

        def region(m):
            return (m.member, m.force_size)

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        vm = PiscesVM(section9_configuration(), registry=registry,
                      machine=nasa_langley_flex32())
        try:
            r = vm.run("T", on=Cluster(1), shutdown=False)
            assert r.value == [(0, 1)]
        finally:
            vm.shutdown()

    def test_forces_from_clusters_3_and_4_share_pes_7_to_15(self,
                                                            registry):
        seen_pes = {}

        def region(m):
            return m.vm.engine.current().pe

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("T", on=Cluster(3))
            ctx.initiate("T", on=Cluster(4))
            ctx.accept("X", delay=1_000_000, timeout_ok=True)

        vm = PiscesVM(section9_configuration(), registry=registry,
                      machine=nasa_langley_flex32())
        try:
            vm.run("MAIN", on=Cluster(1), shutdown=False)
            results = [t.result for t in vm.tasks.values()
                       if t.ttype.name == "T"]
            for pes in results:
                assert pes[0] in (5, 6)                   # primary PE
                assert set(pes[1:]) == set(range(7, 16))  # shared force PEs
        finally:
            vm.shutdown()


class TestSection6TopologyIdiom:
    def test_taskid_exchange_builds_arbitrary_topology(self, make_vm,
                                                       registry):
        """Section 6: initial tree topology, then taskids flow in
        messages to wire a ring: main -> w0 -> w1 -> w2 -> main."""

        @registry.tasktype("RINGNODE")
        def ringnode(ctx, k):
            ctx.send(PARENT, "HELLO", k)
            nxt = ctx.accept("NEXT").args[0]
            res = ctx.accept("TOKEN")
            ctx.send(nxt, "TOKEN", res.args[0] + 1)

        @registry.tasktype("MAIN")
        def main(ctx):
            n = 3
            for k in range(n):
                ctx.initiate("RINGNODE", k, on=ANY)
            nodes = {}
            for _ in range(n):
                res = ctx.accept("HELLO")
                nodes[res.args[0]] = res.sender
            for k in range(n - 1):
                ctx.send(nodes[k], "NEXT", nodes[k + 1])
            ctx.send(nodes[n - 1], "NEXT", ctx.self_id)
            ctx.send(nodes[0], "TOKEN", 0)
            return ctx.accept("TOKEN").args[0]

        vm = make_vm(registry=registry)
        assert vm.run("MAIN").value == 3   # incremented at each hop


class TestTracedTimingAnalysis:
    def test_trace_to_file_then_offline_analysis(self, make_vm, registry,
                                                 tmp_path):
        """Section 12's workflow: trace to a file, analyze off-line."""
        from repro.core.tracing import TraceEvent
        from repro.obs.spans import CAT_TASK, derive_spans

        @registry.tasktype("WORKER")
        def worker(ctx, k):
            ctx.compute(300)
            ctx.send(PARENT, "DONE")

        @registry.tasktype("MAIN")
        def main(ctx):
            for k in range(2):
                ctx.initiate("WORKER", k, on=ANY)
            ctx.accept("DONE", count=2)

        vm = make_vm(registry=registry)
        vm.tracer.enable_all()
        trace_path = tmp_path / "run.trace"
        with open(trace_path, "w") as f:
            vm.tracer.to_file(f)
            vm.run("MAIN")
        with open(trace_path) as f:
            events = [TraceEvent.parse(line) for line in f if line.strip()]
        spans = [s for s in derive_spans(events) if s.cat == CAT_TASK]
        assert len(spans) == 3
        workers = [s for s in spans if s.name == "WORKER"]
        # both workers overlap with each other (parallel clusters)
        a, b = workers
        assert a.start < b.end and b.start < a.end
