"""Behavioral tests: FORCESPLIT, barriers, critical regions, loops."""

import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.errors import NotInForce, RuntimeLibraryError


def force_cfg(n_secondary=3, slots=2):
    return Configuration(clusters=(
        ClusterSpec(1, 3, slots,
                    secondary_pes=tuple(range(4, 4 + n_secondary))),),
        name="force")


class TestForceSplit:
    def test_force_size_is_configuration_property(self, make_vm, registry):
        """Section 7/9: the same program text runs for any force size."""

        def region(m):
            return m.member

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        for nsec in (0, 1, 3):
            vm = make_vm(config=force_cfg(nsec), registry=registry)
            r = vm.run("T")
            assert r.value == list(range(nsec + 1))

    def test_members_run_on_distinct_pes(self, make_vm, registry):
        def region(m):
            return m.vm.engine.current().pe

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(3), registry=registry)
        pes = vm.run("T").value
        assert pes == [3, 4, 5, 6]   # primary PE + the secondary PEs

    def test_members_overlap_in_virtual_time(self, make_vm, registry):
        def region(m):
            m.compute(1000)

        @registry.tasktype("T")
        def t(ctx):
            ctx.forcesplit(region)

        vm1 = make_vm(config=force_cfg(0), registry=registry)
        e1 = vm1.run("T").elapsed
        vm4 = make_vm(config=force_cfg(3), registry=registry)
        e4 = vm4.run("T").elapsed
        # 4 members do 4x the total work in barely more elapsed time.
        assert e4 < 2 * e1

    def test_primary_continues_after_members_finish(self, make_vm, registry):
        def region(m):
            m.compute(100 * (m.member + 1))
            return m.member * 10

        @registry.tasktype("T")
        def t(ctx):
            results = ctx.forcesplit(region)
            # back to ordinary task execution
            ctx.compute(10)
            return results

        vm = make_vm(config=force_cfg(2), registry=registry)
        assert vm.run("T").value == [0, 10, 20]

    def test_nested_forcesplit_rejected(self, make_vm, registry):
        def inner(m):
            return None

        def region(m):
            m.forcesplit(inner)

        @registry.tasktype("T")
        def t(ctx):
            ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(1), registry=registry)
        with pytest.raises(RuntimeLibraryError):
            vm.run("T")

    def test_force_property_outside_region_raises(self, make_vm, registry):
        @registry.tasktype("T")
        def t(ctx):
            _ = ctx.force

        vm = make_vm(config=force_cfg(1), registry=registry)
        with pytest.raises(NotInForce):
            vm.run("T")

    def test_forcesplit_traced(self, make_vm, registry):
        from repro.core.tracing import TraceEventType

        def region(m):
            return None

        @registry.tasktype("T")
        def t(ctx):
            ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(2), registry=registry)
        vm.tracer.enable(TraceEventType.FORCE_SPLIT)
        vm.run("T")
        evs = vm.tracer.of_type(TraceEventType.FORCE_SPLIT)
        assert len(evs) == 1 and "size=3" in evs[0].info


class TestBarrier:
    def test_barrier_body_runs_once_in_primary(self, make_vm, registry):
        log = []

        def region(m):
            m.compute(10 * (m.member + 1))
            m.barrier(lambda: log.append(("body", m.member)))
            m.compute(5)

        @registry.tasktype("T", shared={"S": {"x": ("i8", ())}})
        def t(ctx):
            ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(3), registry=registry)
        vm.run("T")
        assert log == [("body", 0)]   # exactly once, by the primary

    def test_barrier_orders_phases(self, make_vm, registry):
        def region(m):
            blk = m.common("S")
            blk.counts[(m.member,)] = 1
            m.barrier()
            # after the barrier every member sees everyone's mark
            return sum(blk.counts.tolist())

        @registry.tasktype("T", shared={"S": {"counts": ("i8", (4,))}})
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(3), registry=registry)
        assert vm.run("T").value == [4, 4, 4, 4]

    def test_barrier_reusable_across_generations(self, make_vm, registry):
        def region(m):
            blk = m.common("S")
            for _ in range(3):
                m.barrier(lambda: blk.gen.__setitem__((), blk.gen[()] + 1))
            return int(blk.gen[()])

        @registry.tasktype("T", shared={"S": {"gen": ("i8", ())}})
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(2), registry=registry)
        assert vm.run("T").value == [3, 3, 3]

    def test_size_one_force_barrier_is_trivial(self, make_vm, registry):
        def region(m):
            m.barrier(lambda: None)
            return "ok"

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(0), registry=registry)
        assert vm.run("T").value == ["ok"]

    def test_barrier_enter_traced_per_member(self, make_vm, registry):
        from repro.core.tracing import TraceEventType

        def region(m):
            m.barrier()

        @registry.tasktype("T")
        def t(ctx):
            ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(2), registry=registry)
        vm.tracer.enable(TraceEventType.BARRIER_ENTER)
        vm.run("T")
        assert len(vm.tracer.of_type(TraceEventType.BARRIER_ENTER)) == 3


class TestCritical:
    def test_critical_protects_shared_update(self, make_vm, registry):
        def region(m):
            blk = m.common("S")
            for _ in range(10):
                with m.critical("L"):
                    v = blk.x[()]
                    m.compute(3)        # widen the race window
                    blk.x[()] = v + 1

        @registry.tasktype("T", shared={"S": {"x": ("i8", ())}},
                           locks=("L",))
        def t(ctx):
            ctx.forcesplit(region)
            return int(ctx.common("S").x[()])

        vm = make_vm(config=force_cfg(3), registry=registry)
        assert vm.run("T").value == 40

    def test_lock_grants_are_fifo(self, make_vm, registry):
        order = []

        def region(m):
            with m.critical("L"):
                m.compute(50)
                order.append(m.member)

        @registry.tasktype("T", locks=("L",))
        def t(ctx):
            ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(3), registry=registry)
        vm.run("T")
        assert sorted(order) == [0, 1, 2, 3]
        assert len(set(order)) == 4

    def test_lock_unlock_traced(self, make_vm, registry):
        from repro.core.tracing import TraceEventType

        def region(m):
            with m.critical("L"):
                pass

        @registry.tasktype("T", locks=("L",))
        def t(ctx):
            ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(1), registry=registry)
        vm.tracer.enable(TraceEventType.LOCK, TraceEventType.UNLOCK)
        vm.run("T")
        assert len(vm.tracer.of_type(TraceEventType.LOCK)) == 2
        assert len(vm.tracer.of_type(TraceEventType.UNLOCK)) == 2

    def test_contention_statistics(self, make_vm, registry):
        def region(m):
            with m.critical("L"):
                m.compute(100)

        @registry.tasktype("T", locks=("L",))
        def t(ctx):
            ctx.forcesplit(region)
            lk = ctx.task.shared_state.locks["L"]
            return lk.acquisitions, lk.contended_acquisitions

        vm = make_vm(config=force_cfg(3), registry=registry)
        acq, contended = vm.run("T").value
        assert acq == 4 and contended >= 1


class TestLoops:
    def test_presched_interleaves_iterations(self, make_vm, registry):
        def region(m):
            return list(m.presched(range(10)))

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(2), registry=registry)
        parts = vm.run("T").value
        assert parts[0] == [0, 3, 6, 9]
        assert parts[1] == [1, 4, 7]
        assert parts[2] == [2, 5, 8]

    def test_presched_partition_complete_and_disjoint(self, make_vm,
                                                      registry):
        def region(m):
            return list(m.presched(17))

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(3), registry=registry)
        parts = vm.run("T").value
        flat = sorted(i for p in parts for i in p)
        assert flat == list(range(17))

    def test_selfsched_covers_all_iterations_once(self, make_vm, registry):
        def region(m):
            out = []
            for i in m.selfsched(range(12)):
                m.compute(10 * (i % 4))
                out.append(i)
            return out

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(3), registry=registry)
        parts = vm.run("T").value
        flat = sorted(i for p in parts for i in p)
        assert flat == list(range(12))

    def test_selfsched_balances_skewed_work_better_than_presched(
            self, make_vm, registry):
        # Iteration cost grows with index; PRESCHED gives the cyclic
        # pattern (balanced here), so skew the cost per *block* instead:
        # first half cheap, second half expensive -- cyclic PRESCHED
        # still balances, so use a pathological alternating cost where
        # cyclic assignment concentrates cost on one member.
        def presched_region(m):
            t0 = m.now()
            for i in m.presched(range(16)):
                m.compute(100 if i % 4 == m.force.size else 100 * (i % 4 == 0))
            return m.now() - t0

        def selfsched_region(m):
            for i in m.selfsched(range(16)):
                m.compute(400 if i % 4 == 0 else 1)
            return None

        @registry.tasktype("PRE")
        def pre(ctx):
            # every 4th iteration costs 400, others 1; with 4 members the
            # cyclic map gives ALL expensive iterations to member 0.
            def region(m):
                for i in m.presched(range(16)):
                    m.compute(400 if i % 4 == 0 else 1)
            ctx.forcesplit(region)

        @registry.tasktype("SELF")
        def self_(ctx):
            ctx.forcesplit(selfsched_region)

        vm1 = make_vm(config=force_cfg(3), registry=registry)
        t_pre = vm1.run("PRE").elapsed
        vm2 = make_vm(config=force_cfg(3), registry=registry)
        t_self = vm2.run("SELF").elapsed
        assert t_self < t_pre

    def test_parseg_distributes_segments_round_robin(self, make_vm,
                                                     registry):
        def region(m):
            segs = [lambda k=k: k for k in range(7)]
            return m.parseg(*segs)

        @registry.tasktype("T")
        def t(ctx):
            return ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(2), registry=registry)
        parts = vm.run("T").value
        assert parts[0] == [0, 3, 6]
        assert parts[1] == [1, 4]
        assert parts[2] == [2, 5]

    def test_selfsched_mismatched_totals_rejected(self, make_vm, registry):
        def region(m):
            n = 5 if m.member == 0 else 6
            for _ in m.selfsched(range(n)):
                pass

        @registry.tasktype("T")
        def t(ctx):
            ctx.forcesplit(region)

        vm = make_vm(config=force_cfg(1), registry=registry)
        with pytest.raises(RuntimeLibraryError):
            vm.run("T")
