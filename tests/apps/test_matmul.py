"""Behavioral tests: the three-grain matrix multiply."""

import numpy as np
import pytest

from repro.apps.matmul import (
    make_inputs,
    run_matmul_force,
    run_matmul_hybrid,
    run_matmul_tasks,
)
from repro.flex.presets import nasa_langley_flex32, small_flex


@pytest.fixture(scope="module")
def expected():
    A, B = make_inputs(16)
    return np.asarray(A) @ np.asarray(B)


class TestCorrectness:
    def test_task_grain(self, expected):
        r = run_matmul_tasks(n=16, n_workers=4, machine=small_flex(12))
        r.vm.shutdown()
        assert np.array_equal(r.C, expected)      # integer sums are exact
        assert r.vm.stats.window_bytes_read > 0   # data moved by windows

    def test_force_grain(self, expected):
        r = run_matmul_force(n=16, force_pes=3, machine=small_flex(12))
        r.vm.shutdown()
        assert np.allclose(r.C, expected)
        assert r.vm.stats.window_bytes_read == 0  # SHARED COMMON only

    def test_hybrid_grain(self, expected):
        r = run_matmul_hybrid(n=16, n_clusters=2,
                              force_pes_per_cluster=2,
                              machine=nasa_langley_flex32())
        r.vm.shutdown()
        assert np.allclose(r.C, expected)
        assert r.vm.stats.forcesplits == 2        # one per worker task

    def test_all_grains_agree_exactly(self, expected):
        rs = [run_matmul_tasks(n=16, n_workers=2, machine=small_flex(12)),
              run_matmul_force(n=16, force_pes=1, machine=small_flex(12))]
        for r in rs:
            r.vm.shutdown()
        assert np.array_equal(rs[0].C, rs[1].C)


class TestScaling:
    def test_more_workers_reduce_task_grain_elapsed(self):
        # Large enough that compute dwarfs the task-grain overheads.
        r1 = run_matmul_tasks(n=32, n_workers=1, machine=small_flex(12))
        r1.vm.shutdown()
        r4 = run_matmul_tasks(n=32, n_workers=4, machine=small_flex(12))
        r4.vm.shutdown()
        assert r4.elapsed < r1.elapsed

    def test_bigger_force_reduces_force_grain_elapsed(self):
        r1 = run_matmul_force(n=16, force_pes=0, machine=small_flex(12))
        r1.vm.shutdown()
        r4 = run_matmul_force(n=16, force_pes=3, machine=small_flex(12))
        r4.vm.shutdown()
        assert r4.elapsed < r1.elapsed
