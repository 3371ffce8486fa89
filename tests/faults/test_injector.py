"""Unit tests: the fault injector's determinism contract and recording."""

import json

import pytest

from repro.faults import (
    CORRUPTION_MARKER,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    MessagePolicy,
    PECrash,
    TaskKill,
    corrupt_args,
    plan_scope,
)


def message_injector(seed=0, **policy_kw):
    """An injector for pure message-fault decisions (no VM needed)."""
    plan = FaultPlan(seed=seed, messages=MessagePolicy(**policy_kw))
    return FaultInjector(object(), plan)


LOSSY = dict(drop=0.1, duplicate=0.1, delay=0.1, corrupt=0.1)


class TestMessageFaultStream:
    def test_same_seed_same_decision_stream(self):
        a = message_injector(seed=123, **LOSSY)
        b = message_injector(seed=123, **LOSSY)
        stream_a = [a.on_message("DATA") for _ in range(500)]
        stream_b = [b.on_message("DATA") for _ in range(500)]
        assert stream_a == stream_b
        assert set(stream_a) > {None}      # something actually fired

    def test_different_seeds_differ(self):
        a = [message_injector(seed=1, **LOSSY).on_message("DATA")
             for _ in range(100)]
        # Re-drive with another seed over the same delivery sequence.
        inj = message_injector(seed=2, **LOSSY)
        b = [inj.on_message("DATA") for _ in range(100)]
        assert a != b

    def test_ineligible_types_consume_no_randomness(self):
        plain = message_injector(seed=7, **LOSSY)
        mixed = message_injector(seed=7, drop=0.1, duplicate=0.1, delay=0.1,
                                 corrupt=0.1, protected=("PROT",))
        plain_stream = [plain.on_message("DATA") for _ in range(100)]
        mixed_stream = []
        for _ in range(100):
            # System, failure-notification and protected types interleave
            # freely without perturbing the eligible stream.
            assert mixed.on_message("@SYSTEM") is None
            assert mixed.on_message("TASK_DIED") is None
            assert mixed.on_message("PROT") is None
            mixed_stream.append(mixed.on_message("DATA"))
        assert mixed_stream == plain_stream

    def test_certain_drop_always_drops(self):
        inj = message_injector(seed=3, drop=1.0)
        assert all(inj.on_message("DATA") == "drop" for _ in range(20))

    def test_single_class_policy_only_emits_that_class(self):
        inj = message_injector(seed=5, corrupt=0.5)
        actions = {inj.on_message("DATA") for _ in range(200)}
        assert actions == {None, "corrupt"}

    def test_eligibility(self):
        inj = message_injector(seed=0, drop=0.5, protected=("ROWS",))
        assert inj.message_eligible("DATA")
        assert not inj.message_eligible("@ACK")
        assert not inj.message_eligible("TASK_DIED")
        assert not inj.message_eligible("ROWS")

    def test_checksums_only_when_corruption_possible(self):
        assert message_injector(corrupt=0.01).checksums
        assert not message_injector(drop=0.5).checksums

    def test_delay_ticks_exposed(self):
        assert message_injector(delay=0.1, delay_ticks=777).delay_ticks == 777


class TestCorruptArgs:
    def test_marker_replaces_first_element(self):
        assert corrupt_args((1, 2, 3)) == (CORRUPTION_MARKER, 2, 3)

    def test_empty_payload_still_marked(self):
        assert corrupt_args(()) == (CORRUPTION_MARKER,)


class TestFaultEvent:
    def test_line_is_stable_sorted_json(self):
        ev = FaultEvent(at=12, seq=3, kind="drop", detail="type=X")
        assert json.loads(ev.line()) == {"at": 12, "seq": 3, "kind": "drop",
                                         "detail": "type=X"}
        assert ev.line().index('"at"') < ev.line().index('"kind"')


class TestRecordingAgainstAVM:
    @pytest.fixture
    def vm(self, make_vm, registry):
        # A far-future crash keeps the plan non-empty without firing.
        plan = FaultPlan(seed=1, crashes=(PECrash(at=10**9, pe=4),))
        with plan_scope(plan):
            return make_vm(registry=registry, trace_events=("FAULT",))

    def test_injected_events_count_and_trace(self, vm):
        inj = vm.faults
        assert inj is not None
        inj.record("drop", "type=X from=1.1.1 to=2.1.1")
        inj.record("restart", "task=2.1.1")
        assert vm.stats.faults_injected == 1     # semantics events excluded
        kinds = [e.info.split(":")[0] for e in vm.tracer.events]
        assert kinds == ["drop", "restart"]

    def test_export_and_write_jsonl(self, vm, tmp_path):
        vm.faults.record("drop", "a")
        vm.faults.record("delay", "b")
        text = vm.faults.export_jsonl()
        lines = text.splitlines()
        assert [json.loads(l)["kind"] for l in lines] == ["drop", "delay"]
        assert [json.loads(l)["seq"] for l in lines] == [0, 1]
        p = vm.faults.write_jsonl(tmp_path / "faults.jsonl")
        assert p.read_text() == text + "\n"


class TestTimedFaultPump:
    def test_pump_fires_in_time_order_up_to_the_slice(self, make_vm,
                                                      registry):
        plan = FaultPlan(seed=1,
                         crashes=(PECrash(at=200, pe=4),),
                         kills=(TaskKill(at=100, tasktype="W"),))
        with plan_scope(plan):
            vm = make_vm(registry=registry)
        inj = vm.faults
        assert inj.pump(150)       # fires only the t=100 kill (a miss)
        assert [e.kind for e in inj.events] == ["task_kill_miss"]
        assert not vm.machine.pes[4].failed
        assert inj.pump(300)       # now the crash
        assert vm.machine.pes[4].failed
        assert vm.clusters[2].failed

    def test_pump_none_fires_exactly_the_earliest(self, make_vm, registry):
        plan = FaultPlan(seed=1, kills=(TaskKill(at=100, tasktype="W"),
                                        TaskKill(at=200, tasktype="W")))
        with plan_scope(plan):
            vm = make_vm(registry=registry)
        assert vm.faults.pump(None)
        assert len(vm.faults.events) == 1
        assert vm.faults.pump(None)
        assert len(vm.faults.events) == 2
        assert not vm.faults.pump(None)    # heap drained

    def test_empty_plan_installs_no_injector(self, make_vm, registry):
        vm = make_vm(registry=registry)
        assert vm.faults is None
        assert vm.engine._fault_pump is None
