"""Unit tests: per-PE occupancy views over the causal profiler's
slice stream."""

import pytest

from repro.flex.presets import small_flex
from repro.mmos.process import co_charge
from repro.mmos.scheduler import Engine
from repro.obs.profile import CausalProfiler, idle_report, pe_gantt


SLICES = [
    (3, 0, 100, "a"),
    (3, 150, 200, "b"),
    (4, 0, 200, "c"),
]


def profiled(slices):
    """A profiler that watched one process per (pe, start, end, name)
    slice: released at ``start``, charging ``end - start`` ticks."""
    eng = Engine(small_flex(8))
    prof = CausalProfiler()
    eng.observe(prof)

    def body(ticks):
        def run():
            yield co_charge(ticks)
        return run

    for pe, start, end, name in slices:
        eng.spawn(name, pe, body(end - start), start_time=start)
    eng.run()
    eng.shutdown()
    assert sorted((s.pe, s.start, s.end, s.name)
                  for s in prof.slices()) == sorted(slices)
    return prof


class TestActivities:
    def test_busy_and_utilization(self):
        prof = profiled(SLICES)
        assert prof.accounting().busy_by_pe == {3: 150, 4: 200}
        rows = {pe: u for pe, u, _ in idle_report(prof)}
        assert rows[4] == pytest.approx(1.0)
        assert rows[3] == pytest.approx(0.75)

    def test_largest_gap(self):
        gaps = {pe: g for pe, _, g in idle_report(profiled(SLICES))}
        assert gaps[3] == 50
        assert gaps[4] == 0

    def test_idle_report_rows(self):
        rows = idle_report(profiled(SLICES))
        assert [r[0] for r in rows] == [3, 4]

    def test_empty(self):
        assert idle_report(CausalProfiler()) == []
        assert "no slices recorded" in pe_gantt(CausalProfiler())


class TestGantt:
    def test_renders_rows_per_pe(self):
        g = pe_gantt(profiled(SLICES), width=40)
        assert "PE  3" in g and "PE  4" in g
        assert g.count("#") > 0

    def test_live_recording_from_vm(self, make_vm, registry):
        from repro.core.taskid import ANY, PARENT

        @registry.tasktype("W")
        def w(ctx, k):
            ctx.compute(300)
            ctx.send(PARENT, "DONE")

        @registry.tasktype("MAIN")
        def main(ctx):
            for k in range(2):
                ctx.initiate("W", k, on=ANY)
            ctx.accept("DONE", count=2)

        vm = make_vm(registry=registry)
        prof = vm.enable_profiling()
        vm.run("MAIN")
        pes = {s.pe for s in prof.slices() if s.end > s.start}
        assert {3, 4} <= pes
        g = pe_gantt(prof)
        assert "PE  3" in g
        # both worker PEs show real utilization
        rows = {pe: u for pe, u, _ in idle_report(prof)}
        assert rows[4] > 0
