"""Admission: quotas at submit and run time, DRR fair share."""

import pytest

from repro.errors import QuotaExceeded
from repro.service import catalog
from repro.service.admission import AdmissionScheduler, TenantQuota
from repro.service.spec import RunSpec
from repro.service.store import DONE, KILLED, QUEUED, RUNNING, RunStore

SPIN = RunSpec(app="spin", params={"rounds": 3})           # 1 PE
FORCE = RunSpec(app="jacobi_force", params={"force_pes": 3})  # 4 PEs

GENEROUS = TenantQuota(max_running=99, max_queued=99, pe_budget=999)


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestSubmitQuota:

    def test_under_quota_passes(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_queued=2))
        store.create("t", SPIN)
        sched.check_submit("t", catalog.build(SPIN))

    def test_max_queued_refused(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_queued=2))
        store.create("t", SPIN)
        store.create("t", SPIN)
        with pytest.raises(QuotaExceeded, match="max_queued"):
            sched.check_submit("t", catalog.build(SPIN))

    def test_selected_run_counts_as_running_not_waiting(self, store):
        """A selected run holds a running slot and no longer a queued
        one: one run of a (1 running, 1 queued) tenant on a worker
        leaves room for the next submit."""
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_running=1, max_queued=1))
        store.create("t", SPIN)
        assert sched.select() is not None
        usage = sched.usage("t")
        assert (usage["running"], usage["queued"]) == (1, 0)
        sched.check_submit("t", catalog.build(SPIN))
        store.create("t", SPIN)
        with pytest.raises(QuotaExceeded, match="1 runs already waiting"):
            sched.check_submit("t", catalog.build(SPIN))

    def test_quotas_are_per_tenant(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_queued=1))
        store.create("a", SPIN)
        with pytest.raises(QuotaExceeded):
            sched.check_submit("a", catalog.build(SPIN))
        sched.check_submit("b", catalog.build(SPIN))

    def test_plan_over_pe_budget_refused(self, store):
        """No admission could ever fit a 4-PE plan in a 3-PE budget."""
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(pe_budget=3))
        with pytest.raises(QuotaExceeded,
                           match=r"needs 4 PEs, over pe_budget=3"):
            sched.check_submit("t", catalog.build(FORCE))
        sched.check_submit("t", catalog.build(SPIN))

    def test_plan_needing_exactly_the_pe_budget_accepted(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(pe_budget=4))
        plan = catalog.build(FORCE)
        assert len(plan.config.used_pes()) == 4
        sched.check_submit("t", plan)


class TestRunQuotas:

    def test_max_running_gates_selection(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_running=1, max_queued=99))
        store.create("t", SPIN)
        store.create("t", SPIN)
        assert sched.select() is not None       # first admitted
        assert sched.select() is None           # second gated

    def test_pe_budget_gates_selection(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_running=99, max_queued=99,
                                             pe_budget=5))
        store.create("t", FORCE)                # 4 PEs
        store.create("t", FORCE)                # would be 8 > 5
        assert sched.select() is not None
        assert sched.select() is None

    def test_queued_run_over_pe_budget_fails_in_one_write(self, store):
        """A stored run over its tenant's budget (quotas changed since it
        queued) ends FAILED, straight from QUEUED, and the next run of
        the tenant is selected."""
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(pe_budget=3))
        over = store.create("t", FORCE)                 # 4 PEs
        spin = store.create("t", SPIN)
        states = []
        transition = store.transition
        store.transition = lambda run_id, new_state, **amend: (
            states.append((run_id, new_state))
            or transition(run_id, new_state, **amend))
        assert sched.select().run_id == spin.run_id
        assert states == [(over.run_id, "FAILED"), (spin.run_id, RUNNING)]
        assert "QuotaExceeded: " in store.get(over.run_id).exit["error"]

    def test_one_tenant_blocked_does_not_block_others(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_running=1, max_queued=99))
        store.create("a", SPIN)
        store.create("a", SPIN)
        store.create("b", SPIN)
        first = sched.select()
        second = sched.select()
        assert {first.tenant, second.tenant} == {"a", "b"}
        assert sched.select() is None


class TestFairShare:

    def test_drr_interleaves_tenants_despite_burst(self, store):
        """Tenant a floods 4 runs before b submits 2; with a quantum of
        one 1-PE run, selection must alternate, not drain a's burst
        first."""
        sched = AdmissionScheduler(store, default_quota=GENEROUS, quantum=1)
        for _ in range(4):
            store.create("a", SPIN)
        for _ in range(2):
            store.create("b", SPIN)
        order = [sched.select().tenant for _ in range(6)]
        assert order == ["a", "b", "a", "b", "a", "a"]

    def test_three_tenants_round_robin(self, store):
        sched = AdmissionScheduler(store, default_quota=GENEROUS, quantum=1)
        for t in ("c", "c", "a", "a", "b", "b"):
            store.create(t, SPIN)
        order = [sched.select().tenant for _ in range(6)]
        assert order == ["a", "b", "c", "a", "b", "c"]

    def test_expensive_runs_admitted_less_often(self, store):
        """DRR with a quantum below the expensive run's cost: tenant a
        (1-PE runs) gets several runs per visit-cycle while tenant b
        (4-PE runs) must bank deficit across rotations."""
        sched = AdmissionScheduler(store, default_quota=GENEROUS, quantum=2)
        for _ in range(4):
            store.create("a", SPIN)
        for _ in range(2):
            store.create("b", FORCE)
        order = []
        for _ in range(10):
            rec = sched.select()
            if rec is None:
                break
            order.append(rec.tenant)
        # b's first 4-PE run needs two quanta (2 x 2 >= 4): admitted on
        # b's second visit, after a has already had two turns.
        assert order.index("b") >= 2
        assert order.count("a") == 4 and order.count("b") == 2

    def test_admitted_pe_cost_is_charged_to_the_deficit(self, store):
        """Two backlogged tenants, 1-PE runs against 4-PE runs, with a
        quantum below both costs: charging each admission's PE cost
        keeps every tenant's admitted PEs within one quantum plus one
        run of an equal share, after every admission."""
        quantum = 1
        sched = AdmissionScheduler(store, default_quota=GENEROUS,
                                   quantum=quantum)
        for _ in range(20):
            store.create("a", SPIN)
            store.create("b", FORCE)
        pes = {"a": 0, "b": 0}
        for _ in range(25):
            rec = sched.select()
            pes[rec.tenant] += sched.run_cost(rec)
            share = sum(pes.values()) / 2
            for tenant, admitted in pes.items():
                assert abs(admitted - share) <= quantum + 4, pes
        assert pes["a"] > 0 and pes["b"] > 0

    def test_default_quantum_shares_pes_not_run_counts(self, store):
        """At the default quantum, above both costs, a visit goes on
        while the tenant's leftover deficit covers its next run: two
        backlogged tenants of 1-PE and 4-PE runs keep their admitted
        PEs within one quantum plus one run of each other."""
        sched = AdmissionScheduler(store, default_quota=GENEROUS)
        for _ in range(20):
            store.create("a", SPIN)
            store.create("b", FORCE)
        pes = {"a": 0, "b": 0}
        order = []
        for _ in range(15):
            rec = sched.select()
            order.append(rec.tenant)
            pes[rec.tenant] += sched.run_cost(rec)
            assert abs(pes["a"] - pes["b"]) <= sched.quantum + 4, pes
        assert order[:10] == ["a"] * 8 + ["b"] * 2

    def test_burst_lets_the_other_tenant_in_after_one_quantum(self, store):
        sched = AdmissionScheduler(store, default_quota=GENEROUS)
        for _ in range(50):
            store.create("a", SPIN)
        store.create("b", SPIN)
        order = [sched.select().tenant for _ in range(10)]
        assert order == ["a"] * 8 + ["b", "a"]

    def test_a_tenant_held_by_its_quota_banks_no_quantum(self, store):
        """Tenant a's 1-PE runs wait behind its own 4-PE run (pe_budget
        4) while b is admitted five times; once a's run ends, a banked
        nothing, so the two alternate instead of a taking five."""
        sched = AdmissionScheduler(
            store, quotas={"a": TenantQuota(99, 99, pe_budget=4)},
            default_quota=GENEROUS, quantum=1)
        big = store.create("a", FORCE)
        assert sched.select().run_id == big.run_id
        for _ in range(10):
            store.create("a", SPIN)
            store.create("b", SPIN)
        assert [sched.select().tenant for _ in range(5)] == ["b"] * 5
        store.transition(big.run_id, DONE)
        order = [sched.select().tenant for _ in range(4)]
        assert order.count("a") == 2, order

    def test_quantum_below_one_pe_refused(self, store):
        with pytest.raises(ValueError, match="quantum"):
            AdmissionScheduler(store, quantum=0)

    def test_selection_marks_running(self, store):
        """Selection moves the run to RUNNING and stamps its start, in
        the one record write it makes."""
        sched = AdmissionScheduler(store, default_quota=GENEROUS)
        rec = store.create("t", SPIN)
        writes = []
        transition = store.transition
        store.transition = lambda run_id, new_state, **amend: (
            writes.append(new_state) or transition(run_id, new_state, **amend))
        got = sched.select()
        assert got.run_id == rec.run_id and got.state == RUNNING
        assert writes == [RUNNING]
        assert got.started_at >= rec.submitted_at
        assert store.get(rec.run_id) == got
        assert store.list(state=QUEUED) == []

    def test_empty_queue_selects_none(self, store):
        sched = AdmissionScheduler(store, default_quota=GENEROUS)
        assert sched.select() is None

    def test_held_plans_are_only_live_runs(self, store):
        sched = AdmissionScheduler(store, default_quota=GENEROUS)
        for _ in range(20):
            store.create("t", SPIN)
        while (rec := sched.select()) is not None:
            store.transition(rec.run_id, DONE)
        live = store.create("t", FORCE)
        killed = store.create("t", SPIN)
        sched.hold(killed.run_id, catalog.build(SPIN))
        assert sched.select().run_id == live.run_id
        assert set(sched._plans) == {live.run_id, killed.run_id}
        store.transition(killed.run_id, KILLED)       # killed while queued
        store.transition(live.run_id, DONE)
        assert sched.select() is None
        assert sched._plans == {}

    def test_held_plan_prices_and_is_handed_over(self, store, monkeypatch):
        sched = AdmissionScheduler(store, default_quota=GENEROUS)
        rec = store.create("t", FORCE)
        plan = catalog.build(FORCE)
        sched.hold(rec.run_id, plan)
        monkeypatch.setattr(catalog, "build", None)     # no second build
        assert sched.run_cost(rec) == 4
        assert sched.select().run_id == rec.run_id
        assert sched.plan(rec) is plan


class TestUsage:

    def test_usage_reflects_states_and_cost(self, store):
        sched = AdmissionScheduler(
            store, default_quota=TenantQuota(max_running=2, max_queued=8,
                                             pe_budget=16))
        store.create("t", FORCE)
        store.create("t", SPIN)
        assert sched.usage("t")["queued"] == 2
        sched.select()                           # admits the FORCE run
        u = sched.usage("t")
        assert u["running"] == 1 and u["queued"] == 1
        assert u["pes_in_use"] == 4
        assert u["pe_budget"] == 16
