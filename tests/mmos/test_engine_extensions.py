"""Unit tests: engine on_exit hooks, slice recording through the
profiler hook, step horizon, dispatcher selection and shutdown leak
reporting."""

import threading

import pytest

from repro.config.configuration import simple_configuration
from repro.core.vm import PiscesVM
from repro.correctness.recorder import Schedule
from repro.errors import ProcessKilled, ScheduleFormatError
from repro.flex.presets import small_flex
from repro.mmos.process import ProcState, co_block, co_charge
from repro.mmos.scheduler import Engine
from repro.obs.profile import CausalProfiler


def make_engine(**kw):
    return Engine(small_flex(8), **kw)


def make_vm(**kw):
    """An unbooted VM: it resolves the schedule, nothing runs."""
    return PiscesVM(simple_configuration(n_clusters=1, slots=2),
                    autoboot=False, **kw)


def recorded_schedule_text():
    eng = make_engine(schedule=Schedule())
    eng.spawn("t", 3, lambda: eng.charge(10))
    eng.run()
    eng.shutdown()
    return eng.sched_hook.dumps()


class TestOnExit:
    def test_on_exit_runs_after_normal_return(self):
        eng = make_engine()
        log = []
        p = eng.spawn("t", 3, lambda: 42)
        p.on_exit = lambda proc: log.append(("exit", proc.result))
        eng.run()
        assert log == [("exit", 42)]

    def test_on_exit_runs_when_killed_before_first_slice(self):
        eng = make_engine()
        log = []
        p = eng.spawn("victim", 3, lambda: log.append("ran"))
        p.on_exit = lambda proc: log.append("exited")
        eng.kill(p)
        eng.run()
        assert log == ["exited"]       # target never ran, hook did

    def test_on_exit_runs_on_exception(self):
        eng = make_engine()
        log = []

        def bad():
            raise ValueError("x")

        p = eng.spawn("t", 3, bad)
        p.on_exit = lambda proc: log.append("cleanup")
        with pytest.raises(ValueError):
            eng.run()
        assert log == ["cleanup"]

    def test_on_exit_exception_surfaces_if_no_prior_error(self):
        eng = make_engine()
        p = eng.spawn("t", 3, lambda: None)

        def bad_hook(proc):
            raise RuntimeError("hook boom")

        p.on_exit = bad_hook
        with pytest.raises(RuntimeError, match="hook boom"):
            eng.run()


def work_slices(prof):
    """The profiler's (pe, start, end, name) slices that charged ticks."""
    return [(s.pe, s.start, s.end, s.name)
            for s in prof.slices() if s.end > s.start]


class TestSliceRecording:
    def test_slices_cover_charged_work_exactly(self):
        eng = make_engine()
        prof = CausalProfiler()
        eng.observe(prof)

        def body():
            eng.charge(100)
            eng.preempt(0)
            eng.charge(50)

        eng.spawn("t", 3, body)
        eng.run()
        total = sum(end - start for _, start, end, _ in work_slices(prof))
        assert total == 150
        assert total == eng.machine.clocks[3].busy_ticks

    def test_slices_do_not_overlap_per_pe(self):
        eng = make_engine()
        prof = CausalProfiler()
        eng.observe(prof)

        def body():
            for _ in range(5):
                eng.charge(10)
                eng.preempt(0)

        eng.spawn("a", 3, body)
        eng.spawn("b", 3, body)
        eng.run()
        pe3 = sorted((s, e) for pe, s, e, _ in work_slices(prof) if pe == 3)
        for (s1, e1), (s2, e2) in zip(pe3, pe3[1:]):
            assert e1 <= s2

    def test_no_ghost_slices_after_shutdown(self):
        eng = make_engine()
        prof = CausalProfiler()
        eng.observe(prof)
        eng.spawn("stuck", 3, lambda: eng.block("zzz"), daemon=True)
        eng.spawn("t", 4, lambda: eng.charge(30))
        eng.run()
        before = prof.slices()
        eng.shutdown()
        # draining the killed daemon recorded no slice
        assert prof.slices() == before
        total3 = sum(e - s for pe, s, e, _ in work_slices(prof) if pe == 3)
        assert total3 == eng.machine.clocks[3].busy_ticks


class TestStepHorizon:
    def test_step_refuses_slices_beyond_horizon(self):
        eng = make_engine()

        def body():
            eng.block("sleep", deadline=10_000)

        eng.spawn("t", 3, body)
        assert eng.step(horizon=100)            # initial dispatch at t=0
        # now it is blocked until 10_000: refused within horizon
        assert not eng.step(horizon=100)
        # allowed when the horizon covers the deadline
        assert eng.step(horizon=20_000)
        eng.shutdown()

    def test_refused_slice_is_not_lost(self):
        # The indexed dispatcher pops the heap entry to inspect it; a
        # horizon refusal must push it back, or the process starves.
        eng = make_engine()
        eng.spawn("t", 3, lambda: eng.block("z", deadline=5_000))
        assert eng.step(horizon=100)
        assert not eng.step(horizon=100)
        assert not eng.step(horizon=100)    # repeated refusals are stable
        assert eng.step()                   # no horizon: deadline fires
        eng.run()
        eng.shutdown()


class TestDispatcherSelection:
    """The heap picks live; a schedule passed to the VM -- a parsed
    recording or a ``.psched`` path -- selects replay."""

    def test_bad_dispatcher_rejected(self, tmp_path):
        bad = tmp_path / "bad.psched"
        bad.write_text("not a schedule\n")
        with pytest.raises(ScheduleFormatError):
            make_vm(schedule=bad)

    def test_explicit_argument_beats_env(self, monkeypatch, tmp_path):
        sched = Schedule.parse(recorded_schedule_text())
        monkeypatch.setenv("PISCES_REPLAY_SCHEDULE",
                           str(tmp_path / "missing.psched"))
        eng = make_vm(schedule=sched).engine
        assert eng.dispatcher == "replay" and eng.sched_hook is sched
        path = tmp_path / "run.psched"
        path.write_text(recorded_schedule_text())
        assert make_vm(schedule=path).engine.dispatcher == "replay"

    def test_engine_reads_no_environment(self, monkeypatch, tmp_path):
        """Neither the engine nor the VM reads the former
        PISCES_REPLAY_SCHEDULE/PISCES_RECORD_SCHEDULE variables."""
        monkeypatch.setenv("PISCES_REPLAY_SCHEDULE",
                           str(tmp_path / "missing.psched"))
        monkeypatch.setenv("PISCES_RECORD_SCHEDULE",
                           str(tmp_path / "out.psched"))
        for eng in (make_engine(), make_vm().engine):
            assert eng.dispatcher == "indexed" and eng.sched_hook is None


class TestShutdownLeakReporting:
    @pytest.mark.parametrize("core", ["threaded", "coop"])
    def test_clean_shutdown_reports_no_leaks(self, core):
        """Callable bodies on worker threads ("threaded") and coroutine
        bodies on the engine thread ("coop") both reap cleanly."""
        eng = make_engine()
        if core == "threaded":
            eng.spawn("d", 3, lambda: eng.block("parked"), daemon=True)
            eng.spawn("t", 4, lambda: eng.charge(10))
        else:
            def parked():
                yield co_block("parked")

            def work():
                yield co_charge(10)

            eng.spawn("d", 3, parked, daemon=True)
            eng.spawn("t", 4, work)
        eng.run()
        eng.shutdown()
        assert eng.leaked_threads == []

    def test_stuck_thread_is_counted_and_warned(self):
        eng = make_engine()
        release = threading.Event()

        def stubborn():
            try:
                eng.block("forever")
            except ProcessKilled:
                # Swallows the kill and parks outside any kernel point:
                # exactly the hang shutdown must make diagnosable.
                release.wait()

        eng.spawn("stuck", 3, stubborn, daemon=True)
        assert eng.step()     # drive it into the block
        with pytest.warns(RuntimeWarning, match="leaked 1 thread"):
            eng.shutdown(join_timeout=0.1)
        assert eng.leaked_threads == ["stuck"]
        release.set()         # let the OS thread unwind
