"""Unit tests: the section-13 storage measurement helpers."""

import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.vm import PiscesVM
from repro.flex.presets import nasa_langley_flex32
from repro.obs import measure, run_report, storage_table
from repro.obs.analysis import PAPER_LOCAL_BOUND, PAPER_SHARED_TABLE_BOUND


@pytest.fixture
def nasa_vm(registry):
    """The paper's own machine with the section-9 example configuration."""
    cfg = Configuration(
        clusters=(ClusterSpec(1, 3, 4),
                  ClusterSpec(2, 4, 4, tuple(range(16, 21))),
                  ClusterSpec(3, 5, 4, tuple(range(7, 16))),
                  ClusterSpec(4, 6, 4, tuple(range(7, 16)))),
        name="section9")
    vm = PiscesVM(cfg, registry=registry, machine=nasa_langley_flex32())
    yield vm
    vm.shutdown()


class TestPaperBounds:
    def test_local_overhead_under_2_5_percent(self, nasa_vm):
        m = measure(nasa_vm)
        assert m.local_fraction_max < PAPER_LOCAL_BOUND
        assert m.meets_local_bound

    def test_shared_tables_under_0_3_percent(self, nasa_vm):
        m = measure(nasa_vm)
        assert 0 < m.shared_table_fraction < PAPER_SHARED_TABLE_BOUND
        assert m.meets_shared_bound

    def test_table_render(self, nasa_vm):
        m = measure(nasa_vm)
        txt = storage_table([m])
        assert "SECTION 13" in txt and "OK" in txt
        assert "section9" in txt

    def test_run_report_combines_sections(self, nasa_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.compute(100)

        nasa_vm.tracer.enable_all()
        nasa_vm.run("MAIN", shutdown=False)
        rep = run_report(nasa_vm)
        assert "RUN METRICS" in rep and "SECTION 13" in rep and "#" in rep


class TestEnrichedReport:
    def test_report_includes_traffic_and_pe_occupancy(self, nasa_vm,
                                                      registry):
        from repro.core.taskid import SELF

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.send(SELF, "NOTE")
            ctx.accept("NOTE")
            ctx.compute(200)

        nasa_vm.tracer.enable_all()
        nasa_vm.enable_profiling()
        nasa_vm.run("MAIN", shutdown=False)
        rep = run_report(nasa_vm)
        assert "MESSAGE TRAFFIC" in rep
        assert "PE  3" in rep          # per-PE occupancy chart
