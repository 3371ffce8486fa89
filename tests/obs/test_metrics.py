"""Unit + integration tests: the observability metrics registry."""

import json
from dataclasses import replace

import pytest

from repro import PiscesVM
from repro.faults import FaultPlan, MessagePolicy, dumps as dump_plan
from repro.faults import loads as load_plan
from repro.faults.injector import FAILURE_KINDS
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.service import catalog
from repro.service.executor import standalone_run
from repro.service.spec import RunSpec
from tests.golden.digests import SPECS


class TestCounter:
    def test_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x", pe=1, op="read")
        b = reg.counter("x", op="read", pe=1)   # label order irrelevant
        assert a is b
        assert a is not reg.counter("x", pe=2, op="read")

    def test_numpy_scalars_coerced(self):
        np = pytest.importorskip("numpy")
        c = MetricsRegistry().counter("x")
        c.inc(np.int64(3))
        assert type(c.value) is int and c.value == 3


class TestGauge:
    def test_set_and_high_water(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.value == 2 and g.high_water == 7

    def test_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.inc(4)
        g.dec()
        assert g.value == 3 and g.high_water == 4


class TestHistogram:
    def test_bucket_counts_sum_to_count(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0, 1, 3, 10, 999, 10**7):
            h.observe(v)
        assert sum(h.bucket_counts) == h.count == 6
        assert len(h.bucket_counts) == len(DEFAULT_BUCKETS) + 1

    def test_sum_min_max_mean(self):
        h = MetricsRegistry().histogram("lat")
        for v in (10, 20, 30):
            h.observe(v)
        assert (h.total, h.min, h.max) == (60, 10, 30)
        assert h.mean == pytest.approx(20.0)

    def test_values_above_last_bound_land_in_inf_bucket(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(DEFAULT_BUCKETS[-1] + 1)
        assert h.bucket_counts[-1] == 1

    def test_quantile_is_bucketed_upper_bound(self):
        h = MetricsRegistry().histogram("lat")
        for _ in range(99):
            h.observe(3)      # bucket bound 5
        h.observe(40_000)     # bucket bound 50_000
        assert h.quantile(0.5) == 5.0
        assert h.quantile(1.0) == 50_000.0

    def test_empty_quantile_none(self):
        assert MetricsRegistry().histogram("lat").quantile(0.9) is None

    def test_as_dict_only_nonempty_buckets(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(3)
        d = h.as_dict()
        assert d["buckets"] == {"5": 1}
        assert d["count"] == 1 and d["sum"] == 3


class TestRegistry:
    def test_families_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.gauge("aa")
        reg.histogram("mm")
        assert reg.families() == ["aa", "mm", "zz"]

    def test_counter_total_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("msgs", pe=1).inc(2)
        reg.counter("msgs", pe=2).inc(3)
        assert reg.counter_total("msgs") == 5

    def test_histogram_merged(self):
        reg = MetricsRegistry()
        reg.histogram("lat", pe=1).observe(10)
        reg.histogram("lat", pe=2).observe(30)
        m = reg.histogram_merged("lat")
        assert m.count == 2 and m.total == 40
        assert (m.min, m.max) == (10, 30)
        assert reg.histogram_merged("nothing") is None

    def test_snapshot_deterministic_and_json(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b", x=2).inc()
            reg.counter("b", x=1).inc()
            reg.gauge("a").set(4)
            reg.histogram("c", op="w").observe(9)
            return json.dumps(reg.snapshot(), sort_keys=True)

        assert build() == build()

    def test_snapshot_text_renders(self):
        reg = MetricsRegistry()
        reg.counter("msgs", pe=1).inc(7)
        txt = reg.snapshot_text()
        assert "METRICS SNAPSHOT" in txt and "msgs{pe=1}" in txt

    def test_snapshot_text_empty(self):
        assert "(no metrics recorded)" in MetricsRegistry().snapshot_text()

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.families() == []

    def test_null_registry_disabled(self):
        assert NULL_REGISTRY.enabled is False


class TestVMIntegration:
    def _program(self, registry):
        from repro.core.taskid import PARENT, SAME

        @registry.tasktype("CHILD")
        def child(ctx, n):
            ctx.compute(50)
            ctx.send(PARENT, "DONE", n)

        @registry.tasktype("MAIN")
        def main(ctx):
            for i in range(3):
                ctx.initiate("CHILD", i, on=SAME)
            res = ctx.accept("DONE", count=3)
            return res.count

    def test_disabled_run_collects_nothing(self, make_vm, registry):
        self._program(registry)
        vm = make_vm(registry=registry)
        assert not vm.config.metrics_enabled
        vm.run("MAIN")
        assert vm.metrics.families() == []

    def test_enabled_run_matches_stats(self, make_vm, registry):
        self._program(registry)
        vm = make_vm(registry=registry, metrics_enabled=True)
        vm.run("MAIN")
        reg = vm.metrics
        assert reg.counter_total("tasks_started") == vm.stats.tasks_started
        assert (reg.counter_total("messages_sent")
                == vm.stats.messages_sent)
        assert reg.counter_total("messages_accepted") == 3
        lat = reg.histogram_merged("send_accept_latency_ticks")
        assert lat is not None and lat.count == 3 and lat.min >= 0
        assert reg.counter_total("dispatches") > 0

    def test_metrics_do_not_perturb_virtual_time(self, make_vm, registry):
        self._program(registry)
        vm_off = make_vm(registry=registry)
        r_off = vm_off.run("MAIN")
        reg2 = type(registry)()
        self._program(reg2)
        vm_on = make_vm(registry=reg2, metrics_enabled=True)
        r_on = vm_on.run("MAIN")
        assert r_off.elapsed == r_on.elapsed

    def test_two_metered_runs_identical_snapshots(self, make_vm, registry):
        self._program(registry)
        vm1 = make_vm(registry=registry, metrics_enabled=True)
        vm1.run("MAIN")
        reg2 = type(registry)()
        self._program(reg2)
        vm2 = make_vm(registry=reg2, metrics_enabled=True)
        vm2.run("MAIN")
        assert (json.dumps(vm1.metrics.snapshot(), sort_keys=True)
                == json.dumps(vm2.metrics.snapshot(), sort_keys=True))

    def test_slot_occupancy_gauge_high_water(self, make_vm, registry):
        self._program(registry)
        vm = make_vm(registry=registry, metrics_enabled=True)
        vm.run("MAIN")
        gauges = [g for key, g in vm.metrics._gauges.items()
                  if key[0] == "slot_occupancy"]
        assert gauges and max(g.high_water for g in gauges) >= 2


#: chaos_jacobi under seeded duplicate and corrupt faults: 2 of its 22
#: deliveries are duplicate copies, and 3 of its 8 fault events are
#: corruption detections (failure semantics, not injected faults).
DUP_CORRUPT_SPEC = {
    "app": "chaos_jacobi",
    "params": {"n": 10, "sweeps": 2, "n_workers": 2},
    "fault_plan": dump_plan(FaultPlan(
        seed=3, messages=MessagePolicy(duplicate=0.2, corrupt=0.1)))}


def run_spec(spec: dict, metrics: bool):
    """``standalone_run`` with the metrics switch exposed."""
    rs = RunSpec.from_dict(spec)
    plan = catalog.build(rs)
    config = replace(plan.config, metrics_enabled=metrics,
                     run_seed=rs.run_seed)
    vm = PiscesVM(config, registry=plan.registry,
                  fault_plan=load_plan(rs.fault_plan) if rs.fault_plan
                  else None)
    return vm.run(plan.tasktype, *plan.args, shutdown=True)


class TestOneCountPerEvent:
    @pytest.fixture(scope="class")
    def dup_corrupt(self):
        return standalone_run(RunSpec.from_dict(DUP_CORRUPT_SPEC))

    def test_duplicate_copies_are_sent_messages_in_the_registry(
            self, dup_corrupt):
        reg, st = dup_corrupt.vm.metrics, dup_corrupt.stats
        assert st.messages_duplicated == 2
        assert reg.counter_total("messages_sent") == st.messages_sent == 22
        assert (reg.counter_total("message_bytes_sent")
                == st.message_bytes_sent == 8112)

    def test_faults_injected_excludes_failure_semantics(self, dup_corrupt):
        reg, st = dup_corrupt.vm.metrics, dup_corrupt.stats
        by_kind = {kind: c.value for kind, c
                   in dup_corrupt.vm.counts.faults_injected.items()}
        assert reg.counter_total("faults_injected") == 8
        assert st.faults_injected == 5 == sum(
            n for kind, n in by_kind.items() if kind not in FAILURE_KINDS)
        assert st.corruptions_detected == by_kind["corrupt_detected"] == 3

    def test_stats_fields_with_a_family_are_read_only(self, dup_corrupt):
        with pytest.raises(AttributeError):
            dup_corrupt.stats.messages_sent += 1

    def test_run_counts_count_while_metrics_are_off(self):
        off = run_spec(SPECS["jacobi"], metrics=False)
        on = run_spec(SPECS["jacobi"], metrics=True)
        assert off.vm.metrics.snapshot() == {}
        assert off.vm.metrics.families() == []
        assert off.stats == on.stats and off.stats.messages_sent > 0
        off.vm.enable_metrics()
        assert (off.vm.metrics.snapshot()["messages_sent"]
                == on.vm.metrics.snapshot()["messages_sent"])

    def test_reset_drops_metrics_only_instruments_and_keeps_run_counts(self):
        r = run_spec(SPECS["jacobi"], metrics=True)
        before = r.stats.as_dict()
        r.vm.metrics.reset()
        families = r.vm.metrics.families()
        assert "tasks_started" in families and "dispatches" not in families
        assert r.stats.as_dict() == before

    def test_null_registry_stays_empty(self):
        for spec in SPECS.values():
            for metrics in (False, True):
                run_spec(spec, metrics)
        assert not (NULL_REGISTRY._counters or NULL_REGISTRY._gauges
                    or NULL_REGISTRY._histograms or NULL_REGISTRY._families)
