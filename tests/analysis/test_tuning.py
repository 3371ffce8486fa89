"""Behavioral tests: the configuration-tuning sweep helpers."""

import pytest

from repro.obs import force_size_sweep
from repro.obs.analysis import sweep
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.task import TaskRegistry
from repro.flex.presets import small_flex


@pytest.fixture
def force_program():
    reg = TaskRegistry()

    def region(m):
        for _ in m.presched(range(16)):
            m.compute(400)

    @reg.tasktype("WORK")
    def work(ctx):
        ctx.forcesplit(region)
        return "done"

    return reg


class TestForceSizeSweep:
    def test_sweep_finds_larger_forces_faster(self, force_program):
        res = force_size_sweep("WORK", force_program,
                               lambda: small_flex(12), sizes=(1, 2, 4))
        elapsed = [t.elapsed for t in res.trials]
        assert elapsed[0] > elapsed[1] > elapsed[2]
        assert res.best.label == "force of 4"

    def test_values_preserved(self, force_program):
        res = force_size_sweep("WORK", force_program,
                               lambda: small_flex(12), sizes=(1, 2))
        assert all(t.value == "done" for t in res.trials)

    def test_table_marks_best(self, force_program):
        res = force_size_sweep("WORK", force_program,
                               lambda: small_flex(12), sizes=(1, 4))
        txt = res.table()
        assert "CONFIGURATION TUNING" in txt and "<-- best" in txt


class TestGenericSweep:
    def test_custom_configuration_family(self, force_program):
        configs = [
            ("1 slot", Configuration(clusters=(ClusterSpec(1, 3, 1),),
                                     name="a")),
            ("4 slots", Configuration(clusters=(ClusterSpec(1, 3, 4),),
                                      name="b")),
        ]
        res = sweep("WORK", force_program, configs,
                    lambda: small_flex(12))
        assert len(res.trials) == 2
        assert {t.label for t in res.trials} == {"1 slot", "4 slots"}
