"""Unit tests: the deterministic discrete-event engine."""

import pytest

from repro.errors import (
    DeadlockError,
    NotInProcess,
    ProcessKilled,
    TimeLimitExceeded,
)
from repro.flex.presets import small_flex
from repro.mmos.process import ProcState, co_block, co_charge, co_preempt
from repro.mmos.scheduler import Engine


def make_engine(n_pes=8, **kw):
    return Engine(small_flex(n_pes), **kw)


class TestBasicExecution:
    def test_single_process_runs_to_completion(self):
        eng = make_engine()
        p = eng.spawn("t", 3, lambda: 42)
        eng.run()
        assert p.result == 42
        assert p.state is ProcState.DONE

    def test_charge_advances_pe_clock(self):
        eng = make_engine()

        def body():
            eng.charge(123)

        eng.spawn("t", 3, body)
        eng.run()
        assert eng.machine.clocks[3].ticks == 123

    def test_processes_on_different_pes_overlap_in_virtual_time(self):
        eng = make_engine()

        def body():
            eng.charge(100)

        eng.spawn("a", 3, body)
        eng.spawn("b", 4, body)
        eng.run()
        assert eng.machine.elapsed() == 100   # parallel, not 200

    def test_processes_on_same_pe_serialize(self):
        eng = make_engine()

        def body():
            eng.charge(100)

        eng.spawn("a", 3, body)
        eng.spawn("b", 3, body)
        eng.run()
        assert eng.machine.elapsed() == 200

    def test_round_robin_between_same_pe_processes(self):
        eng = make_engine()
        order = []

        def body(name):
            def run():
                for i in range(3):
                    eng.charge(10)
                    eng.preempt(0)
                    order.append(name)
            return run

        eng.spawn("a", 3, body("a"))
        eng.spawn("b", 3, body("b"))
        eng.run()
        assert order[:4] == ["a", "b", "a", "b"]

    def test_exception_in_process_propagates_to_run(self):
        eng = make_engine()

        def bad():
            raise ValueError("boom")

        eng.spawn("t", 3, bad)
        with pytest.raises(ValueError, match="boom"):
            eng.run()

    def test_spawn_on_unknown_pe_rejected(self):
        eng = make_engine(4)
        with pytest.raises(ValueError):
            eng.spawn("t", 99, lambda: None)


class TestBlockingAndWake:
    def test_wake_passes_info(self):
        eng = make_engine()
        got = {}

        def consumer():
            got["v"] = eng.block("waiting")

        def producer():
            eng.charge(50)
            eng.preempt(0)
            assert eng.wake(pc, info="payload")

        pc = eng.spawn("c", 3, consumer)
        eng.spawn("p", 4, producer)
        eng.run()
        assert got["v"] == "payload"

    def test_wake_time_is_respected(self):
        eng = make_engine()
        times = {}

        def consumer():
            eng.block("waiting")
            times["resumed"] = eng.now()

        def producer():
            eng.charge(10)
            eng.preempt(0)
            eng.wake(pc, at_time=500)   # event happens "later"

        pc = eng.spawn("c", 3, consumer)
        eng.spawn("p", 4, producer)
        eng.run()
        assert times["resumed"] >= 500

    def test_wake_of_non_blocked_process_returns_false(self):
        eng = make_engine()

        def a():
            eng.preempt(0)

        pa = eng.spawn("a", 3, a)

        def b():
            # pa is READY (or RUNNING), not BLOCKED
            assert not eng.wake(pa)

        eng.spawn("b", 4, b)
        eng.run()

    def test_timeout_fires_at_deadline(self):
        eng = make_engine()
        out = {}

        def body():
            eng.block("sleep", deadline=777)
            p = eng.current()
            out["timed_out"] = p.timed_out
            out["t"] = eng.now()

        eng.spawn("t", 3, body)
        eng.run()
        assert out["timed_out"] is True
        assert out["t"] == 777

    def test_wake_before_deadline_cancels_timeout(self):
        eng = make_engine()
        out = {}

        def sleeper():
            v = eng.block("sleep", deadline=10_000)
            out["timed_out"] = eng.current().timed_out
            out["v"] = v

        def waker():
            eng.charge(100)
            eng.preempt(0)
            eng.wake(ps, info="early")

        ps = eng.spawn("s", 3, sleeper)
        eng.spawn("w", 4, waker)
        eng.run()
        assert out["timed_out"] is False
        assert out["v"] == "early"


class TestDeadlockAndLimits:
    def test_deadlock_detected_with_dump(self):
        eng = make_engine()
        eng.spawn("stuck", 3, lambda: eng.block("never"))
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        assert "never" in str(ei.value)

    def test_blocked_daemons_do_not_deadlock(self):
        eng = make_engine()
        eng.spawn("ctrl", 3, lambda: eng.block("serve"), daemon=True)
        eng.spawn("user", 4, lambda: 1)
        eng.run()   # returns normally

    def test_time_limit_enforced(self):
        eng = make_engine(time_limit=100)

        def body():
            for _ in range(100):
                eng.charge(50)
                eng.preempt(0)

        eng.spawn("t", 3, body)
        with pytest.raises(TimeLimitExceeded):
            eng.run()

    def test_a_dispatch_at_the_time_limit_runs_one_past_it_raises(self):
        """The second slice starts at tick 100: with ``time_limit=100``
        it runs, with 99 the dispatch raises."""
        def run(limit):
            eng = make_engine(time_limit=limit)
            ran = []

            def body():
                yield co_charge(100)
                yield co_preempt(0)
                ran.append(eng.now())

            eng.spawn("t", 3, body)
            eng.run()
            return ran

        assert run(100) == [100]
        with pytest.raises(TimeLimitExceeded):
            run(99)

    def test_a_kill_landing_in_a_slice_that_ends_blocked_leaves_it_runnable(
            self):
        """A process killed during its own slice that then blocks must
        not park where nothing wakes it: the slice ends READY and the
        next dispatch unwinds it."""
        eng = make_engine()
        log = []

        def victim():
            try:
                eng.kill(eng.current())
                yield co_block("forever")
                log.append("resumed")
            finally:
                log.append("unwound")

        p = eng.spawn("v", 3, victim)
        assert eng.step()
        assert p.state is ProcState.READY and p.blocked_on == "killed"
        assert eng.step()
        assert p.state is ProcState.DONE and log == ["unwound"]

    def test_kill_unwinds_blocked_process(self):
        eng = make_engine()
        cleaned = {}

        def victim():
            try:
                eng.block("forever")
            finally:
                cleaned["yes"] = True

        pv = eng.spawn("v", 3, victim)

        def killer():
            eng.charge(10)
            eng.preempt(0)
            eng.kill(pv)

        eng.spawn("k", 4, killer)
        eng.run()
        assert cleaned.get("yes")
        assert pv.state is ProcState.DONE

    def test_kill_is_idempotent_on_done_process(self):
        eng = make_engine()
        p = eng.spawn("t", 3, lambda: None)
        eng.run()
        eng.kill(p)   # no-op, no error
        assert p.state is ProcState.DONE


class TestEngineInterface:
    def test_kernel_calls_outside_process_rejected(self):
        eng = make_engine()
        with pytest.raises(NotInProcess):
            eng.charge(1)
        with pytest.raises(NotInProcess):
            eng.preempt()

    def test_now_outside_process_is_elapsed(self):
        eng = make_engine()
        eng.spawn("t", 3, lambda: eng.charge(99))
        eng.run()
        assert eng.now() == 99

    def test_negative_charge_rejected(self):
        eng = make_engine()

        def body():
            with pytest.raises(ValueError):
                eng.charge(-1)

        eng.spawn("t", 3, body)
        eng.run()

    def test_run_while_stops_on_predicate(self):
        eng = make_engine()
        count = {"n": 0}

        def body():
            for _ in range(10):
                count["n"] += 1
                eng.preempt(0)

        eng.spawn("t", 3, body)
        eng.run_while(lambda: count["n"] < 3)
        assert count["n"] == 3
        eng.shutdown()

    def test_state_dump_lists_live_processes(self):
        eng = make_engine()
        eng.spawn("alpha", 3, lambda: eng.block("zzz"))
        eng.step()
        dump = eng.state_dump()
        assert "alpha" in dump and "zzz" in dump
        eng.shutdown()

    def test_shutdown_reaps_all_threads(self):
        eng = make_engine()
        procs = [eng.spawn(f"p{i}", 3, lambda: eng.block("x"))
                 for i in range(4)]
        for _ in range(4):
            eng.step()
        eng.shutdown()
        for p in procs:
            assert p.state is ProcState.DONE
            assert not p.thread.is_alive()


class TestDeterminism:
    def test_identical_runs_produce_identical_schedules(self):
        def run_once():
            eng = make_engine()
            log = []

            def body(name, pe):
                def run():
                    for i in range(4):
                        eng.charge(7 * (1 + len(name)))
                        eng.preempt(0)
                        log.append((name, eng.now()))
                return run

            for i, pe in [(0, 3), (1, 4), (2, 3), (3, 5)]:
                eng.spawn(f"p{i}", pe, body(f"p{i}", pe))
            eng.run()
            return log

        assert run_once() == run_once()
