"""Tests: the library of complete Pisces Fortran programs."""

import pytest

from repro.apps import fortran_programs as fp
from repro.flex.presets import small_flex
from tests.oracles import TASK_BODIES, oracle_leg


class TestLibrary:
    def test_names_listed(self):
        assert set(fp.names()) == {"pi_by_force", "master_worker",
                                   "ring_token", "window_sum"}

    def test_load_returns_preprocessed_program(self):
        prog = fp.load("master_worker")
        assert "MAIN" in prog.task_names()
        assert "_task_MAIN" in prog.python_source

    def test_pi_by_force(self):
        r = fp.run("pi_by_force", machine=small_flex(12))
        r.vm.shutdown()
        line = [l for l in r.result.console.splitlines() if "PI" in l][0]
        assert abs(float(line.rsplit(" ", 1)[1]) - 3.14159265) < 1e-4
        assert r.vm.stats.forcesplits == 1

    def test_master_worker(self):
        r = fp.run("master_worker", machine=small_flex(12))
        r.vm.shutdown()
        assert "ALL 6 WORKERS DONE" in r.result.console
        assert r.vm.stats.tasks_started == 7

    def test_ring_token_full_circle(self):
        """The token increments at every hop: 4 nodes -> comes back 4.
        Exercises the handler-writes-SHARED-COMMON pattern."""
        r = fp.run("ring_token", machine=small_flex(12))
        r.vm.shutdown()
        assert "TOKEN CAME BACK AS 4" in r.result.console

    def test_window_sum(self):
        r = fp.run("window_sum", machine=small_flex(12))
        r.vm.shutdown()
        assert "HALFSUM 21.0" in r.result.console   # 1+..+6
        assert r.vm.stats.window_bytes_read == 6 * 8

    def test_all_programs_deterministic(self):
        for name in fp.names():
            a = fp.run(name, machine=small_flex(12))
            a.vm.shutdown()
            b = fp.run(name, machine=small_flex(12))
            b.vm.shutdown()
            assert a.result.console == b.result.console
            assert a.result.elapsed == b.result.elapsed


@pytest.mark.parametrize("name", fp.names())
def test_both_vehicles_give_one_history(name):
    """Each library program on coroutines and on worker threads: the
    same elapsed ticks, trace and console."""
    runs = []
    for bodies in TASK_BODIES:
        with oracle_leg(task_bodies=bodies):
            r = fp.run(name, machine=small_flex(12))
        r.vm.shutdown()
        runs.append((r.result.elapsed, r.result.console,
                     [e.line() for e in r.vm.tracer.events]))
    assert runs[0] == runs[1]
