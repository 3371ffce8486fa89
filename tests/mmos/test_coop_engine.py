"""Unit tests for the engine's cooperative discrete-event loop.

Covers both body vehicles on the one engine -- coroutine bodies resumed
on the engine thread and the same generators driven as callable bodies
on worker threads through ``drive_kernel_ops`` -- the KernelOp protocol
(charge/preempt/block yields, wake-info resume values, timeout
observation), kill/exit semantics parity between the vehicles, deadlock
parity, and the shutdown contract (``leaked_threads`` /
``drained_accept_waiters``) where coroutine processes have no OS thread
to leak.
"""

import inspect
import threading

import pytest

from repro.config.configuration import map_legacy_axes
from repro.errors import (ConfigurationError, DeadlockError, EngineShutdown,
                          ProcessKilled)
from repro.flex.presets import small_flex
from repro.mmos.kernel import MMOSKernel
from repro.mmos.process import (
    ProcState,
    co_block,
    co_charge,
    co_preempt,
    drive_kernel_ops,
)
from repro.mmos.scheduler import Engine
from repro.obs.profile import CausalProfiler
from tests.oracles import BOTH_VEHICLES



def make_engine(bodies="auto", **kw):
    """An engine; with ``bodies="callable"`` every generator body is
    driven as a callable body on a worker thread instead."""
    eng = Engine(small_flex(8), **kw)
    if bodies == "callable":
        spawn = eng.spawn

        def spawn_callable(name, pe, target, **kwargs):
            if not inspect.isgeneratorfunction(target):
                return spawn(name, pe, target, **kwargs)
            return spawn(name, pe, lambda: drive_kernel_ops(eng, target()),
                         **kwargs)
        eng.spawn = spawn_callable
    return eng


class TestCoreSelection:
    def test_factory_returns_the_right_class(self):
        assert type(MMOSKernel(small_flex(8)).engine) is Engine

    def test_bad_core_rejected(self):
        assert map_legacy_axes({"exec_core": "threaded"}) == {}
        with pytest.raises(ConfigurationError, match="exec_core"):
            map_legacy_axes({"exec_core": "fibers"})


class TestCoroutineBodies:
    @BOTH_VEHICLES
    def test_basic_charge_preempt_block(self, bodies):
        eng = make_engine(bodies)

        def body():
            yield co_charge(10)
            yield co_preempt(2)
            yield co_block("nap", deadline=eng.now() + 5, cost=1)
            return "done"

        p = eng.spawn("w", 3, body)
        eng.run()
        assert p.state is ProcState.DONE
        assert p.result == "done"
        eng.shutdown()

    @BOTH_VEHICLES
    def test_no_thread_for_coroutines_on_coop(self, bodies):
        eng = make_engine(bodies)
        p = eng.spawn("w", 3, lambda: iter(()))  # not a genfunc: callable
        q = None

        def body():
            yield co_charge(1)

        q = eng.spawn("g", 4, body)
        eng.run()
        if bodies == "auto":
            assert q.thread is None, "coroutine body must not get a thread"
        else:
            assert q.thread is not None
        eng.shutdown()

    @BOTH_VEHICLES
    def test_wake_info_is_the_yield_value(self, bodies):
        eng = make_engine(bodies)
        got = []

        def waiter():
            info = yield co_block("mailbox")
            got.append(info)

        w = eng.spawn("waiter", 3, waiter)

        def waker():
            yield co_charge(3)
            eng.wake(w, info={"payload": 7})
            yield co_preempt(1)

        eng.spawn("waker", 4, waker)
        eng.run()
        assert got == [{"payload": 7}]
        eng.shutdown()

    @BOTH_VEHICLES
    def test_deadline_timeout_observable(self, bodies):
        eng = make_engine(bodies)
        seen = []

        def body():
            yield co_block("accept(X)", deadline=eng.now() + 50)
            seen.append(eng.current().timed_out)

        eng.spawn("w", 3, body)
        eng.run()
        assert seen == [True]
        eng.shutdown()

    @BOTH_VEHICLES
    def test_now_and_charge_allowed_inside_gen_body(self, bodies):
        eng = make_engine(bodies)
        stamps = []

        def body():
            stamps.append(eng.now())
            eng.charge(25)            # plain call, allowed in both vehicles
            yield co_preempt(0)
            stamps.append(eng.now())

        eng.spawn("w", 3, body)
        eng.run()
        assert stamps[1] - stamps[0] == 25
        eng.shutdown()

    def test_blocking_kernel_call_from_gen_body_rejected_on_coop(self):
        eng = make_engine()

        def body():
            eng.preempt(1)            # must yield co_preempt instead
            yield co_charge(1)

        eng.spawn("w", 3, body)
        with pytest.raises(RuntimeError, match="co_preempt"):
            eng.run()
        eng.shutdown()

    @BOTH_VEHICLES
    def test_non_kernelop_yield_rejected(self, bodies):
        eng = make_engine(bodies)

        def body():
            yield 42

        eng.spawn("w", 3, body)
        with pytest.raises(RuntimeError, match="KernelOp"):
            eng.run()
        eng.shutdown()

    @BOTH_VEHICLES
    def test_body_exception_surfaces(self, bodies):
        eng = make_engine(bodies)

        def body():
            yield co_charge(1)
            raise ValueError("boom")

        eng.spawn("w", 3, body)
        with pytest.raises(ValueError, match="boom"):
            eng.run()
        eng.shutdown()


class TestKillSemantics:
    @BOTH_VEHICLES
    def test_killed_coroutine_sees_generator_exit_not_processkilled(self, bodies):
        """Parity contract: drive_kernel_ops raises ProcessKilled
        *outside* the generator, so a body can only ever observe
        GeneratorExit (via close) -- the coroutine vehicle must match."""
        eng = make_engine(bodies)
        observed = []

        def victim():
            try:
                yield co_block("forever")
            except GeneratorExit:
                observed.append("generator-exit")
                raise
            except ProcessKilled:      # pragma: no cover - would be a bug
                observed.append("process-killed")

        v = eng.spawn("victim", 3, victim)

        def killer():
            yield co_charge(5)
            eng.kill(v)
            yield co_preempt(1)

        eng.spawn("killer", 4, killer)
        eng.run()
        assert observed == ["generator-exit"]
        assert v.state is ProcState.DONE
        assert v.result is None
        eng.shutdown()

    @BOTH_VEHICLES
    def test_on_exit_runs_for_killed_coroutine(self, bodies):
        eng = make_engine(bodies)
        log = []

        def victim():
            yield co_block("forever")

        v = eng.spawn("victim", 3, victim)
        v.on_exit = lambda proc: log.append("exited")

        def killer():
            yield co_charge(5)
            eng.kill(v)
            yield co_preempt(1)

        eng.spawn("killer", 4, killer)
        eng.run()
        assert log == ["exited"]
        eng.shutdown()


class TestDeterminismParity:
    def _mixed_run(self, bodies):
        eng = make_engine(bodies)
        prof = CausalProfiler()
        eng.observe(prof)
        order = []

        def gen_body(tag, rounds):
            def body():
                for i in range(rounds):
                    order.append((tag, i, eng.now()))
                    yield co_charge(3)
                    yield co_preempt(2)
            return body

        def fn_body(tag, rounds):
            def body():
                for i in range(rounds):
                    order.append((tag, i, eng.now()))
                    eng.charge(3)
                    eng.preempt(2)
            return body

        for k in range(4):
            eng.spawn(f"g{k}", 3 + (k % 4), gen_body(f"g{k}", 5))
            eng.spawn(f"f{k}", 3 + (k % 4), fn_body(f"f{k}", 5))
        eng.run()
        slices = [(s.pe, s.start, s.end, s.name) for s in prof.slices()]
        out = (order, slices, eng.machine.clocks.snapshot(),
               eng.dispatch_count)
        eng.shutdown()
        return out

    def test_mixed_body_population_identical_across_cores(self):
        assert self._mixed_run("auto") == self._mixed_run("callable")

    @BOTH_VEHICLES
    def test_deadlock_detected_for_parked_coroutines(self, bodies):
        eng = make_engine(bodies)

        def body():
            yield co_block("park")

        eng.spawn("p1", 3, body)
        eng.spawn("p2", 4, body)
        with pytest.raises(DeadlockError):
            eng.run()
        eng.shutdown()


class TestCoopShutdown:
    def test_gen_only_run_never_leaks_threads(self):
        eng = make_engine()

        def parked():
            yield co_block("park")

        def acceptor():
            yield co_block("accept(RESULT)")

        eng.spawn("parked", 3, parked, daemon=True)
        eng.spawn("acceptor", 4, acceptor, daemon=True)
        assert eng.step() and eng.step()
        eng.shutdown()
        assert eng.leaked_threads == []
        assert eng.drained_accept_waiters == ["acceptor"]

    def test_coroutine_finally_runs_at_shutdown_drain(self):
        eng = make_engine()
        log = []

        def parked():
            try:
                yield co_block("park")
            finally:
                log.append("cleanup")

        eng.spawn("parked", 3, parked, daemon=True)
        assert eng.step()
        eng.shutdown()
        assert log == ["cleanup"]
        assert eng.leaked_threads == []

    def test_no_user_threads_exist_in_a_gen_only_run(self):
        eng = make_engine()
        before = threading.active_count()

        def body():
            for _ in range(3):
                yield co_charge(2)
                yield co_preempt(1)

        for k in range(8):
            eng.spawn(f"w{k}", 3 + (k % 4), body)
        assert threading.active_count() == before, \
            "spawning coroutine processes must not create threads"
        eng.run()
        eng.shutdown()
        assert eng.leaked_threads == []

    def test_stuck_callable_body_reported_like_threaded_core(self):
        """A worker that swallows the kill and parks in user code is
        reported, never silently abandoned."""
        eng = make_engine()
        release = threading.Event()

        def stubborn():
            try:
                eng.block("forever")
            except ProcessKilled:
                # Swallows the kill and parks outside any kernel point.
                release.wait()

        eng.spawn("stuck", 3, stubborn, daemon=True)
        assert eng.step()
        with pytest.warns(RuntimeWarning, match="leaked 1 thread"):
            eng.shutdown(join_timeout=0.1)
        assert eng.leaked_threads == ["stuck"]
        release.set()

    def test_accept_waiter_callable_unwinds_with_engine_shutdown(self):
        eng = make_engine()
        seen = []

        def waiter():
            try:
                eng.block("accept(RESULT)")
            except EngineShutdown as e:
                seen.append(str(e))
                raise

        eng.spawn("waiter", 3, waiter, daemon=True)
        assert eng.step()
        eng.shutdown()
        assert eng.drained_accept_waiters == ["waiter"]
        assert len(seen) == 1 and "shut down" in seen[0]
        assert eng.leaked_threads == []
