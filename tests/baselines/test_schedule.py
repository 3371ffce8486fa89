"""Unit tests: the SCHEDULE-style baseline (``benchmarks/baselines``)."""

import pytest

from benchmarks.baselines.schedule import (
    DISPATCH_COST,
    ScheduleProgram,
    ScheduleRunner,
)
from benchmarks.baselines.seq import run_program_serial, run_serial_ticks
from repro.errors import PiscesError


def diamond(cost=100):
    """a -> (b, c) -> d."""
    p = ScheduleProgram()
    p.unit("a", cost)
    p.unit("b", cost, deps=["a"])
    p.unit("c", cost, deps=["a"])
    p.unit("d", cost, deps=["b", "c"])
    return p


class TestProgram:
    def test_critical_path_and_work(self):
        p = diamond(100)
        assert p.critical_path() == 300
        assert p.total_work() == 400

    def test_duplicate_unit_rejected(self):
        p = ScheduleProgram().unit("a", 1)
        with pytest.raises(PiscesError):
            p.unit("a", 1)

    def test_dep_on_undeclared_rejected(self):
        with pytest.raises(PiscesError):
            ScheduleProgram().unit("b", 1, deps=["a"])

    def test_cycle_detected(self):
        # Cycles cannot be built through the declaration API (deps must
        # pre-exist), so test the detector directly.
        p = ScheduleProgram()
        p.unit("a", 1)
        p.unit("b", 1, deps=["a"])
        p._units["a"].deps = ("b",)
        with pytest.raises(PiscesError, match="cycle"):
            p._topo_order()

    def test_negative_cost_rejected(self):
        with pytest.raises(PiscesError):
            ScheduleProgram().unit("a", -1)


class TestRunner:
    def test_respects_dependencies(self):
        p = diamond()
        res = ScheduleRunner(p, n_pes=2).run()
        u = res.units
        assert u["a"].end <= u["b"].start
        assert u["a"].end <= u["c"].start
        assert max(u["b"].end, u["c"].end) <= u["d"].start

    def test_two_pes_overlap_the_diamond_middle(self):
        p = diamond(100)
        r1 = ScheduleRunner(diamond(100), n_pes=1).run()
        r2 = ScheduleRunner(p, n_pes=2).run()
        assert r2.elapsed < r1.elapsed
        # lower bounds: critical path and work/PEs
        assert r2.elapsed >= r2.critical_path
        assert r1.elapsed >= r1.total_work

    def test_unit_functions_executed(self):
        ran = []
        p = ScheduleProgram()
        p.unit("a", 10, fn=lambda: ran.append("a"))
        p.unit("b", 10, deps=["a"], fn=lambda: ran.append("b"))
        ScheduleRunner(p, n_pes=2).run()
        assert ran == ["a", "b"]

    def test_wide_fanout_scales(self):
        def wide(n):
            p = ScheduleProgram()
            p.unit("root", 10)
            for i in range(12):
                p.unit(f"w{i}", 200, deps=["root"])
            return p

        e1 = ScheduleRunner(wide(12), n_pes=1).run().elapsed
        e4 = ScheduleRunner(wide(12), n_pes=4).run().elapsed
        assert e4 < e1 / 2.5

    def test_determinism(self):
        r1 = ScheduleRunner(diamond(), n_pes=3).run()
        r2 = ScheduleRunner(diamond(), n_pes=3).run()
        assert r1.elapsed == r2.elapsed
        assert {n: u.pe for n, u in r1.units.items()} == \
               {n: u.pe for n, u in r2.units.items()}

    def test_too_many_workers_for_machine_rejected(self):
        from repro.flex.presets import small_flex
        with pytest.raises(PiscesError):
            ScheduleRunner(diamond(), n_pes=10, machine=small_flex(6))
        with pytest.raises(PiscesError):
            ScheduleRunner(diamond(), n_pes=0)

    def test_pe_busy_accounting(self):
        res = ScheduleRunner(diamond(100), n_pes=2).run()
        assert sum(res.pe_busy.values()) >= res.total_work


class TestSerialBaseline:
    def test_serial_ticks_sum(self):
        assert run_serial_ticks([100, 200, 300]) == 600

    def test_program_serial_equals_total_work(self):
        p = diamond(50)
        assert run_program_serial(p) == p.total_work()
