"""Record/replay: ``.psched`` artifacts and bit-identical re-execution.

The replay contract is total: same elapsed virtual time, same trace
stream line for line, same RunStats, same result value -- for every
shipped communication style (windows, force, task-parallel, pipeline)
and for the fault-tolerant solver under an actively lossy fault plan.
"""

from dataclasses import replace

import pytest

from repro import PiscesVM, record_run, replay_run, run_app
from repro.apps.chaos_jacobi import build_chaos_registry
from repro.apps.jacobi import build_force_registry, build_windows_registry
from repro.apps.matmul import build_tasks_registry
from repro.apps.pipeline import build_pipeline_registry
from repro.config.configuration import simple_configuration
from repro.correctness import Schedule
from repro.errors import ReplayDivergence, ScheduleFormatError
from repro.faults import FaultPlan, MessagePolicy

#: Lossy-but-healable transport for the chaos replay case: drops and
#: duplicates force the solver down its retry paths, and the replay
#: must retrace every one of them.
CHAOS_PLAN = FaultPlan(
    seed=11, name="replay-chaos",
    messages=MessagePolicy(drop=0.05, duplicate=0.04, delay=0.08,
                           delay_ticks=600))


def _chaos_registry():
    return build_chaos_registry(10, 2, 2, None, "reassign",
                                8_000, 60_000, 200)


#: (id, tasktype, args, registry builder, make_vm kwargs)
APPS = [
    ("jacobi-windows", "JMASTER", (),
     lambda: build_windows_registry(10, 2, 3), {}),
    ("jacobi-force", "JFORCE", (10, 2),
     lambda: build_force_registry(10, 2),
     dict(n_clusters=1, force_pes_per_cluster=3)),
    ("matmul-tasks", "MMASTER", (),
     lambda: build_tasks_registry(8, 3), {}),
    ("pipeline", "COORD", (),
     lambda: build_pipeline_registry(3, list(range(8))), {}),
    ("chaos-jacobi", "CMASTER", (),
     _chaos_registry, dict(fault_plan=CHAOS_PLAN)),
]


@pytest.mark.parametrize("name,ttype,args,build,kw", APPS,
                         ids=[a[0] for a in APPS])
def test_replay_is_bit_identical(name, ttype, args, build, kw):
    rec = record_run(ttype, *args, registry=build(), **kw)
    rep = replay_run(ttype, *args, schedule=rec, registry=build(), **kw)
    assert rep.elapsed == rec.elapsed
    assert [e.line() for e in rep.vm.tracer.events] == rec.trace_lines
    assert rep.stats == rec.result.stats
    assert type(rep.value) is type(rec.result.value)


class TestPschedFormat:
    DECISIONS = [("P", (0, "root")), ("P", (1, "worker:1")),
                 ("D", (0, 0)), ("D", (1, 120)), ("S", (2, 7)),
                 ("L", (0, "RED")), ("A", ("1.1.2", "1.1.1", "WIN:rows"))]

    def test_dumps_parse_round_trip(self):
        rec = Schedule(meta={"app": "unit"})
        for tag, record in self.DECISIONS:
            rec.take(tag, record)
        text = rec.dumps()
        s = Schedule.parse(text)
        assert s.dumps() == text
        assert s.name_of(1) == "worker:1"
        assert s.peek_dispatch() == (0, 0)
        # Feeding the same stream back must verify the whole schedule
        # without divergence.
        for tag, record in self.DECISIONS:
            s.take(tag, record)
        s.check_complete()

    def test_strict_replay_raises_on_a_mismatch_and_an_extra_decision(self):
        s = Schedule.parse(Schedule({"D": [(0, 0)]}).dumps())
        with pytest.raises(ReplayDivergence, match="diverged at dispatch"):
            s.take("D", (1, 0), "other")
        s.take("D", (0, 0))
        with pytest.raises(ReplayDivergence, match="past the recorded"):
            s.take("D", (0, 5))

    def test_live_tail_verifies_then_records(self):
        s = Schedule.parse(Schedule({"D": [(0, 0)]}).dumps(), live_tail=True)
        with pytest.raises(ReplayDivergence):
            s.take("D", (1, 0))
        s.take("D", (0, 0))
        s.take("D", (1, 9))
        assert s.streams["D"] == [(0, 0), (1, 9)]
        assert s.position()["D"] == 2

    def test_prefix_dumps_only_what_was_taken_with_count_meta(self):
        s = Schedule.parse(Schedule(
            {"P": [(0, "a"), (1, "b")], "D": [(0, 0), (1, 4)]},
            meta={"app": "x"}).dumps())
        s.take("P", (0, "a"))
        s.take("D", (0, 0))
        assert s.dumps(prefix=True) == (
            "#psched 1\nmeta dispatches=1 spawns=1\nP 0:a\nD 0:0\n")

    def test_artifact_file_round_trips(self, tmp_path):
        p = tmp_path / "jacobi.psched"
        rec = record_run("JMASTER", registry=build_windows_registry(8, 2, 2),
                         path=p)
        assert rec.psched_path == p and p.exists()
        head = p.read_text().splitlines()[0]
        assert head == "#psched 1"
        loaded = Schedule.load(p)
        rep = replay_run("JMASTER", schedule=loaded,
                         registry=build_windows_registry(8, 2, 2))
        assert rep.elapsed == rec.elapsed

    def test_parse_rejects_garbage(self):
        with pytest.raises(ScheduleFormatError):
            Schedule.parse("not a schedule\n")

    def test_tampered_schedule_diverges(self, tmp_path):
        p = tmp_path / "t.psched"
        record_run("JMASTER", registry=build_windows_registry(8, 2, 2),
                   path=p)
        # Point a mid-stream dispatch record at a spawn ordinal the run
        # never creates: the replay dispatcher must refuse to invent it.
        # (Swapping two same-instant records would merely be a different
        # *feasible* schedule, which replay executes happily -- only
        # decisions that cannot be honoured diverge.)
        lines = p.read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("D "):
                continue
            toks = line.split()
            _, _, start = toks[len(toks) // 2].partition(":")
            toks[len(toks) // 2] = f"999:{start}"
            lines[i] = " ".join(toks)
            break
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayDivergence):
            replay_run("JMASTER", schedule=p,
                       registry=build_windows_registry(8, 2, 2))

    def test_incomplete_consumption_is_an_error(self):
        """Replaying a *different* (smaller) program against a longer
        recording either diverges or leaves the schedule unconsumed --
        never silently passes."""
        rec = record_run("JMASTER", registry=build_windows_registry(10, 3, 3))
        with pytest.raises(ReplayDivergence):
            replay_run("JMASTER", schedule=rec,
                       registry=build_windows_registry(10, 1, 3))


class TestOneSchedule:
    """The VM resolves the run's one decision stream in one place: the
    ``schedule=`` argument (a ``Schedule`` or a ``.psched`` path), else
    a recording when checkpointing."""

    @staticmethod
    def run(**kw):
        return run_app("JMASTER", registry=build_windows_registry(8, 2, 2),
                       **kw)

    def test_explicit_schedule_beats_both_env_vars(self, tmp_path,
                                                   monkeypatch):
        """The former PISCES_RECORD_SCHEDULE/PISCES_REPLAY_SCHEDULE
        variables are read by nothing: the argument alone decides."""
        out = tmp_path / "env.psched"
        monkeypatch.setenv("PISCES_RECORD_SCHEDULE", str(out))
        monkeypatch.setenv("PISCES_REPLAY_SCHEDULE",
                           str(tmp_path / "missing.psched"))
        sched = Schedule()
        r = self.run(schedule=sched)
        assert r.vm.sched_hook is sched and sched.position()["D"] > 0
        assert not out.exists()
        # A recording replays through the same argument.
        sched.live_tail = False
        r2 = self.run(schedule=sched)
        assert r2.vm.engine.dispatcher == "replay"
        assert r2.elapsed == r.elapsed
        assert self.run().vm.engine.dispatcher == "indexed"

    def test_schedule_path_autosaves_and_replays(self, tmp_path):
        p = tmp_path / "run.psched"
        r = self.run(schedule=Schedule(path=p))
        assert p.exists()
        r2 = self.run(schedule=p)
        assert r2.vm.engine.dispatcher == "replay"
        r2.vm.sched_hook.check_complete()
        assert r2.elapsed == r.elapsed
        assert r2.stats == r.stats

    def test_missing_schedule_file_is_an_error(self, tmp_path):
        with pytest.raises(OSError):
            self.run(schedule=tmp_path / "missing.psched")

    def test_checkpointing_records_only_without_a_schedule(self, tmp_path):
        config = replace(simple_configuration(n_clusters=1, slots=2),
                         checkpoint_every=1_000,
                         checkpoint_dir=str(tmp_path))
        made = PiscesVM(config, autoboot=False).sched_hook
        assert made is not None and made.live_tail and not made.replays
        given = Schedule.parse(Schedule().dumps())
        assert PiscesVM(config, schedule=given,
                        autoboot=False).sched_hook is given
        config = replace(config, checkpoint_every=0)
        assert PiscesVM(config, autoboot=False).sched_hook is None

    def test_strict_replay_raises_on_an_extra_decision(self):
        rec = record_run("JMASTER", registry=build_windows_registry(8, 2, 2),
                         trace=False)
        rec.schedule.streams["A"].pop()
        with pytest.raises(ReplayDivergence, match="extra accept match"):
            replay_run("JMASTER", schedule=rec, trace=False,
                       registry=build_windows_registry(8, 2, 2))
