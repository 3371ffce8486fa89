"""Causal profiler: wait attribution, critical path, exporters, API.

Two layers of coverage: engine-level scenarios drive the profiler hooks
directly (precise virtual timestamps, every wait category), and
VM-level tests run real apps through ``api.profile_run`` and the export
surfaces (metrics rollup, manifest, dispatcher determinism).
"""

import json

import pytest

from repro import api
from repro.apps.jacobi import build_windows_registry
from repro.core.tracing import TraceEventType
from repro.flex.presets import small_flex
from repro.mmos.scheduler import Engine
from repro.obs.profile import (
    CausalProfiler,
    extract_critical_path,
    profile_report,
    write_profile,
)
from repro.obs.profile.export import chrome_profile_trace, folded_stacks
from repro.obs.profile.profiler import (
    WAIT_ACCEPT,
    WAIT_BARRIER,
    WAIT_CATEGORIES,
    WAIT_DISPATCH,
    WAIT_FAULT,
    WAIT_LOCK,
    WAIT_WINDOW,
    WaitAccounting,
    _split_name,
    wait_category,
)

PES = list(range(3, 11))    # small_flex(8) MMOS PEs


def make_engine():
    eng = Engine(small_flex(8))
    prof = CausalProfiler()
    eng.observe(prof)
    return eng, prof


class TestWaitCategory:
    @pytest.mark.parametrize("reason,cat", [
        ("critical(LOCK1)", WAIT_LOCK),
        ("barrier(gen 3)", WAIT_BARRIER),
        ("barrier-post(gen 2)", WAIT_BARRIER),
        ("force-join", WAIT_BARRIER),
        ("accept(GO,STOP)", WAIT_ACCEPT),
        ("accept(retry1:GO)", WAIT_FAULT),
        ("tcontr-wait", WAIT_ACCEPT),
        ("ucontr-wait", WAIT_ACCEPT),
        ("window-overlap-wait", WAIT_WINDOW),
        ("disk-io", WAIT_WINDOW),
        ("killed", WAIT_FAULT),
        ("nap", WAIT_DISPATCH),
        ("schedule-idle", WAIT_DISPATCH),
    ])
    def test_reason_mapping(self, reason, cat):
        assert wait_category(reason) == cat

    def test_every_category_is_reachable(self):
        reached = {wait_category(r) for r in (
            "critical(L)", "barrier(gen 1)", "accept(GO)",
            "accept(retry2:GO)", "window-overlap-wait", "nap")}
        assert reached == set(WAIT_CATEGORIES)

    def test_split_name(self):
        assert _split_name("JWORKER@1.3.1") == ("JWORKER", 1)
        assert _split_name("JFORCE@2.2.0#f3") == ("JFORCE", 2)
        assert _split_name("tcontr@1.1.0") == ("tcontr", 1)
        assert _split_name("engine-idle") == ("engine-idle", None)


class TestEngineAttribution:
    def test_wake_resolves_block_into_categorized_wait(self):
        """p1 blocks on a lock at t=0; p0 wakes it at t=10 after real
        work: the blocked ticks are lock-wait, bit-exact."""
        eng, prof = make_engine()
        handles = {}

        def waiter():
            eng.block("critical(L)", cost=0)
            eng.charge(7)

        def worker():
            eng.charge(10)
            eng.wake(handles["w"], info="unlock")
            eng.charge(5)

        handles["w"] = eng.spawn("waiter", PES[1], waiter)
        eng.spawn("worker", PES[0], worker)
        eng.run()
        acct = prof.accounting()
        assert acct.totals == {WAIT_LOCK: 10}
        waits = prof.waits()
        assert [(w.category, w.start, w.end) for w in waits] == [
            (WAIT_LOCK, 0, 10)]
        assert waits[0].name == "waiter"
        eng.shutdown()

    def test_deadline_wait_is_window_wait(self):
        eng, prof = make_engine()

        def sleeper():
            eng.charge(3)
            eng.block("window-overlap-wait", deadline=eng.now() + 20, cost=0)
            eng.charge(4)

        eng.spawn("s", PES[0], sleeper)
        eng.run()
        acct = prof.accounting()
        assert acct.totals == {WAIT_WINDOW: 20}
        eng.shutdown()

    def test_killed_blocked_process_attributes_to_its_wait(self):
        eng, prof = make_engine()
        handles = {}

        def victim():
            eng.block("accept(GO)", cost=0)

        def killer():
            eng.charge(5)
            eng.kill(handles["v"])
            eng.charge(2)

        handles["v"] = eng.spawn("victim", PES[1], victim)
        eng.spawn("killer", PES[0], killer)
        eng.run()
        acct = prof.accounting()
        # Blocked interval up to the kill is the original accept-wait.
        assert acct.totals.get(WAIT_ACCEPT) == 5
        eng.shutdown()

    def test_accept_retry_reason_lands_in_fault_recovery(self):
        eng, prof = make_engine()
        handles = {}

        def retrier():
            eng.block("accept(retry1:GO)", cost=0)
            eng.charge(2)

        def waker():
            eng.charge(8)
            eng.wake(handles["r"])

        handles["r"] = eng.spawn("r", PES[1], retrier)
        eng.spawn("k", PES[0], waker)
        eng.run()
        assert prof.accounting().totals == {WAIT_FAULT: 8}
        eng.shutdown()

    def test_dispatch_queue_wait_from_pe_contention(self):
        """Two processes on one PE: the second's queueing ticks are
        dispatch-queue-wait."""
        eng, prof = make_engine()

        def body():
            eng.charge(10)

        eng.spawn("a", PES[0], body)
        eng.spawn("b", PES[0], body)
        eng.run()
        acct = prof.accounting()
        assert acct.totals == {WAIT_DISPATCH: 10}
        assert acct.by_pe == {(PES[0], WAIT_DISPATCH): 10}
        eng.shutdown()

    def test_slices_cover_all_work(self):
        eng, prof = make_engine()

        def body():
            eng.charge(6)
            eng.preempt(2)
            eng.charge(3)

        eng.spawn("a", PES[0], body)
        eng.spawn("b", PES[1], body)
        eng.run()
        assert prof.total_work() == 2 * 11
        assert prof.elapsed() == 11
        eng.shutdown()


class TestCriticalPath:
    def _lock_scenario(self):
        eng, prof = make_engine()
        handles = {}

        def waiter():
            eng.block("critical(L)", cost=0)
            eng.charge(7)

        def worker():
            eng.charge(10)
            eng.wake(handles["w"])

        handles["w"] = eng.spawn("waiter", PES[1], waiter)
        eng.spawn("worker", PES[0], worker)
        eng.run()
        cp = extract_critical_path(prof)
        eng.shutdown()
        return cp

    def test_path_tiles_elapsed_exactly(self):
        cp = self._lock_scenario()
        assert cp.elapsed == 17
        assert cp.segments[0].start == 0
        assert cp.segments[-1].end == cp.elapsed
        for a, b in zip(cp.segments, cp.segments[1:]):
            assert a.end == b.start, "path segments must tile, no gaps"
        assert cp.path_work_ticks + cp.path_wait_ticks == cp.elapsed

    def test_wake_jumps_to_waker_with_release_note(self):
        cp = self._lock_scenario()
        kinds = [(s.kind, s.process, s.ticks) for s in cp.segments]
        assert kinds == [("work", "worker", 10), ("work", "waiter", 7)]
        assert "released lock-wait of waiter" in cp.segments[0].detail

    def test_deadline_wait_appears_on_path(self):
        eng, prof = make_engine()

        def sleeper():
            eng.charge(3)
            eng.block("disk-io", deadline=eng.now() + 20, cost=0)
            eng.charge(4)

        eng.spawn("s", PES[0], sleeper)
        eng.run()
        cp = extract_critical_path(prof)
        eng.shutdown()
        assert [(s.kind, s.label, s.ticks) for s in cp.segments] == [
            ("work", "s", 3), ("wait", WAIT_WINDOW, 20), ("work", "s", 4)]

    def test_what_if_table_ranks_by_ticks(self):
        cp = self._lock_scenario()
        rows = cp.what_if(5)
        assert rows[0]["ticks"] >= rows[-1]["ticks"]
        assert rows[0]["max_elapsed_saving_pct"] == pytest.approx(
            100.0 * rows[0]["ticks"] / cp.elapsed, abs=0.1)

    def test_efficiency_summary(self):
        cp = self._lock_scenario()
        # work 17 over 17 elapsed on 2 PEs: parallelism 1.0, eff 0.5
        assert cp.total_work == 17
        assert cp.parallelism == pytest.approx(1.0)
        assert cp.efficiency == pytest.approx(0.5)

    def test_empty_profile(self):
        prof = CausalProfiler()
        cp = extract_critical_path(prof)
        assert cp.segments == [] and cp.elapsed == 0


class TestExporters:
    def _profiled(self):
        eng, prof = make_engine()
        handles = {}

        def waiter():
            eng.block("accept(GO)", cost=0)
            eng.charge(4)

        def worker():
            eng.charge(6)
            eng.wake(handles["w"])

        handles["w"] = eng.spawn("WK@1.2.1", PES[1], waiter)
        eng.spawn("WRK@1.3.1", PES[0], worker)
        eng.run()
        eng.shutdown()
        return prof

    def test_folded_stacks_virtual(self):
        prof = self._profiled()
        lines = folded_stacks(prof, "virtual")
        by_key = dict(l.rsplit(" ", 1) for l in lines)
        assert by_key[f"PE{PES[0]};WRK@1.3.1;work"] == "6"
        assert by_key[f"PE{PES[1]};WK@1.2.1;work"] == "4"
        assert by_key[f"PE{PES[1]};WK@1.2.1;wait;accept-wait"] == "6"

    def test_folded_stacks_wall_has_no_wait_frames(self):
        prof = self._profiled()
        assert not any(";wait;" in l for l in folded_stacks(prof, "wall"))

    def test_folded_stacks_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            folded_stacks(self._profiled(), "cpu")

    def test_chrome_trace_wait_slices_are_colored(self):
        prof = self._profiled()
        arr = chrome_profile_trace(prof)
        json.dumps(arr)     # strictly serializable (no numpy leaks)
        waits = [e for e in arr if e.get("cat") == "wait"]
        assert waits and all("cname" in e for e in waits)
        work = [e for e in arr if e.get("cat") == "work"]
        assert {e["ph"] for e in waits + work} == {"X"}

    def test_write_profile_bundle(self, tmp_path):
        prof = self._profiled()
        paths = write_profile(prof, tmp_path)
        assert sorted(paths) == ["chrome", "critical_path", "folded",
                                 "report", "wall_folded"]
        for p in paths.values():
            assert p.exists() and p.stat().st_size > 0
        cp = json.loads(paths["critical_path"].read_text())
        assert cp["path_work_ticks"] + cp["path_wait_ticks"] == cp["elapsed"]

    def test_report_renders_all_sections(self):
        prof = self._profiled()
        text = profile_report(prof)
        assert "CAUSAL PROFILE" in text
        assert "wait states" in text
        assert "per-PE utilization" in text
        assert "critical path:" in text


class TestProfileRunApi:
    @pytest.fixture(scope="class")
    def profiled(self):
        return api.profile_run("JMASTER",
                               registry=build_windows_registry(10, 2, 3))

    def test_returns_profile_and_path(self, profiled):
        assert profiled.elapsed > 0
        assert profiled.profiler.elapsed() == profiled.elapsed
        cp = profiled.critical_path
        assert cp.segments[-1].end == profiled.elapsed
        assert 0.0 < cp.efficiency <= 1.0

    def test_metrics_rollup(self, profiled):
        reg = profiled.vm.metrics
        snap = reg.snapshot()
        names = {fam["name"] for fam in snap["families"]} \
            if isinstance(snap, dict) and "families" in snap \
            else set(reg.families())
        assert "wait_ticks_task" in names
        assert "pe_utilization_pct" in names
        # Counter totals must equal the accounting's totals.
        acct = profiled.profiler.accounting()
        assert reg.counter_total("wait_ticks_task") == acct.total_wait_ticks

    def test_report_and_export(self, profiled, tmp_path):
        text = profiled.report()
        assert "critical path:" in text
        paths = profiled.export(tmp_path)
        assert all(p.exists() for p in paths.values())

    def test_accounting_dataclass_roundtrip(self, profiled):
        acct = WaitAccounting.from_profiler(profiled.profiler)
        assert acct.total_wait_ticks == sum(acct.totals.values())
        assert sum(acct.busy_by_pe.values()) == profiled.profiler.total_work()

    def test_utilization_timeline_fractions(self, profiled):
        tl = profiled.profiler.utilization_timeline(n_buckets=10)
        assert tl, "jacobi must keep at least one PE busy"
        for row in tl.values():
            assert len(row) == 10
            assert all(0.0 <= f <= 1.0 for f in row)


class TestDeterminismAcrossDispatchers:
    def _fingerprint(self, dispatcher, monkeypatch):
        if dispatcher == "scan":
            from tests.oracles import ScanEngine
            monkeypatch.setattr("repro.mmos.kernel.Engine", ScanEngine)
        pr = api.profile_run("JMASTER",
                             registry=build_windows_registry(12, 2, 3))
        acct = pr.profiler.accounting()
        fp = (
            sorted(acct.totals.items()),
            sorted(acct.by_task.items()),
            [(s.kind, s.start, s.end, s.label, s.pe)
             for s in pr.critical_path.segments],
            pr.elapsed,
        )
        pr.vm.shutdown()
        return fp

    def test_profile_identical_indexed_vs_scan(self, monkeypatch):
        """The acceptance criterion: the critical-path report on seeded
        jacobi is identical under the heap and the scan oracle."""
        assert (self._fingerprint("indexed", monkeypatch)
                == self._fingerprint("scan", monkeypatch))


class TestManifest:
    def test_export_run_writes_manifest_with_profile_bundle(self, tmp_path):
        pr = api.profile_run(
            "JMASTER", registry=build_windows_registry(10, 2, 3),
            trace_events=tuple(t.value for t in TraceEventType))
        out = api.export_run(pr.vm, tmp_path)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["profile"] is True
        assert man["dispatcher"] in ("indexed", "replay")
        assert "window_path" not in man
        assert man["repro_version"]
        assert man["elapsed_ticks"] == pr.elapsed
        assert "summary" in man["config"]
        # every exported artifact is named in the manifest
        listed = set(man["files"])
        assert {"jsonl", "chrome", "profile_chrome",
                "profile_critical_path"} <= listed
        assert (tmp_path / "run.profile.folded.txt").exists()
        pr.vm.shutdown()

    def test_manifest_without_faults_or_races(self, tmp_path):
        r = api.run_app("JMASTER", registry=build_windows_registry(8, 1, 2),
                        shutdown=False)
        out = api.export_run(r.vm, tmp_path)
        man = json.loads(out["manifest"].read_text())
        assert man["seed"] is None
        assert man["fault_plan_hash"] is None
        assert man["detect_races"] is None
        assert man["profile"] is False
        r.vm.shutdown()
