"""Record/replay: ``.psched`` artifacts and bit-identical re-execution.

The replay contract is total: same elapsed virtual time, same trace
stream line for line, same RunStats, same result value -- for every
shipped communication style (windows, force, task-parallel, pipeline)
and for the fault-tolerant solver under an actively lossy fault plan.
"""

import os

import pytest

from repro import record_run, replay_run, run_app
from repro.apps.chaos_jacobi import build_chaos_registry
from repro.apps.jacobi import build_force_registry, build_windows_registry
from repro.apps.matmul import build_tasks_registry
from repro.apps.pipeline import build_pipeline_registry
from repro.correctness import Schedule, ScheduleRecorder
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
    def test_dumps_parse_round_trip(self):
        rec = ScheduleRecorder(meta={"app": "unit"})
        rec.on_spawn(0, "root")
        rec.on_spawn(1, "worker:1")
        rec.on_dispatch(0, 0, "root")
        rec.on_dispatch(1, 120, "worker:1")
        rec.on_selfsched(2, 7)
        rec.on_lock_grant(0, "RED")
        rec.on_accept_match("1.1.2", "1.1.1", "WIN:rows")
        text = rec.dumps()
        s = Schedule.parse(text)
        assert s.name_of(1) == "worker:1"
        assert s.peek_dispatch() == (0, 0)
        # Feeding the same stream back through the verify hooks must
        # consume the whole schedule without divergence.
        s.on_spawn(0, "root")
        s.on_spawn(1, "worker:1")
        s.on_dispatch(0, 0, "root")
        s.on_dispatch(1, 120, "worker:1")
        s.on_selfsched(2, 7)
        s.on_lock_grant(0, "RED")
        s.on_accept_match("1.1.2", "1.1.1", "WIN:rows")
        s.check_complete()

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


class TestEnvWiring:
    def test_record_env_autosaves_on_shutdown(self, tmp_path, monkeypatch):
        p = tmp_path / "env.psched"
        monkeypatch.setenv("PISCES_RECORD_SCHEDULE", str(p))
        r = run_app("JMASTER", registry=build_windows_registry(8, 2, 2))
        assert p.exists()
        monkeypatch.delenv("PISCES_RECORD_SCHEDULE")
        monkeypatch.setenv("PISCES_REPLAY_SCHEDULE", str(p))
        r2 = run_app("JMASTER", registry=build_windows_registry(8, 2, 2))
        assert r2.elapsed == r.elapsed
        assert r2.stats == r.stats

    def test_replay_dispatcher_without_schedule_is_an_error(self, monkeypatch,
                                                            tmp_path):
        monkeypatch.setenv("PISCES_REPLAY_SCHEDULE",
                           str(tmp_path / "missing.psched"))
        with pytest.raises(OSError):
            run_app("JMASTER", registry=build_windows_registry(8, 2, 2))
