"""Checkpoint capture, periodic policy, and bit-identical restore."""

import errno
import json
import os
from dataclasses import replace

import pytest

from repro import PARENT, TaskRegistry, simple_configuration
from repro.api import make_vm, restore_vm
from repro.checkpoint import checkpoint_vm, find_latest_checkpoint, load_bundle
from repro.checkpoint.format import dumps_bundle
from repro.core.tracing import TraceEventType
from repro.errors import CheckpointError, CheckpointFormatError
from repro.service import catalog
from repro.service.spec import RunSpec
from repro.util import durable
from tests.oracles import (BOTH_VEHICLES, callable_bodies, leg_of,
                           reference_windows)

ALL_TRACE = tuple(t.value for t in TraceEventType)


def build_registry():
    reg = TaskRegistry()

    @reg.tasktype("WORKER")
    def worker(ctx, n):
        total = 0
        for i in range(n):
            total += i * i
        yield from ctx.compute(n)
        ctx.send(PARENT, "DONE", total)

    @reg.tasktype("MAIN")
    def main(ctx):
        for i in range(6):
            ctx.initiate("WORKER", 50 + i)
        acc = 0
        for _ in range(6):
            m = yield from ctx.accept("DONE")
            acc += m.args[0]
        return acc

    return reg


def config(ckpt_dir=None, every=500, keep=3):
    return replace(
        simple_configuration(n_clusters=2, slots=4, name="ckpt-test"),
        trace_events=ALL_TRACE,
        checkpoint_every=(every if ckpt_dir else 0),
        checkpoint_dir=str(ckpt_dir) if ckpt_dir else "",
        checkpoint_keep=keep)


def run(ckpt_dir=None, **cfg_kwargs):
    reg = build_registry()
    vm = make_vm(config=config(ckpt_dir, **cfg_kwargs),
                 registry=reg)
    r = vm.run("MAIN")
    return r, [e.line() for e in vm.tracer.events]


@BOTH_VEHICLES
class TestRestoreIdentity:
    def test_restore_resumes_bit_identically(self, bodies, tmp_path):
        base, base_trace = run()
        _, _ = run(ckpt_dir=tmp_path)
        latest = find_latest_checkpoint(tmp_path)
        assert latest is not None
        rr = restore_vm(latest, registry=build_registry())
        res = rr.resume()
        assert res.value == base.value
        assert res.elapsed == base.elapsed
        assert [e.line() for e in rr.vm.tracer.events] == base_trace

    def test_checkpointing_is_a_pure_observer(self, bodies, tmp_path):
        """Virtual time and the trace stream are bit-identical with
        checkpointing on and off."""
        base, base_trace = run()
        ck, ck_trace = run(ckpt_dir=tmp_path)
        assert ck.value == base.value
        assert ck.elapsed == base.elapsed
        assert ck_trace == base_trace
        assert ck.stats.checkpoints_written > 0
        assert ck.stats.checkpoint_bytes > 0

    def test_restored_run_rewrites_identical_bundles(self, bodies, tmp_path):
        """A restored run re-crosses the same checkpoint marks during
        replay and writes byte-identical bundles -- recovery composes
        across repeated crashes."""
        run(ckpt_dir=tmp_path)
        bundles = {p.name: p.read_bytes()
                   for p in tmp_path.glob("*.pckpt")}
        latest = find_latest_checkpoint(tmp_path)
        rr = restore_vm(latest, registry=build_registry())
        rr.resume()
        for name, original in bundles.items():
            rewritten = (tmp_path / name)
            assert rewritten.exists(), f"restored run did not re-mark {name}"
            assert rewritten.read_bytes() == original

    def test_restore_detects_wrong_task_code(self, bodies, tmp_path):
        """A registry whose kernel-visible behaviour diverges from the
        original run fails replay verification (ReplayDivergence is a
        PiscesError) instead of silently computing garbage."""
        from repro.errors import PiscesError
        run(ckpt_dir=tmp_path)
        wrong = TaskRegistry()

        @wrong.tasktype("WORKER")
        def worker(ctx, n):
            # Diverges structurally: two sends instead of one.
            ctx.send(PARENT, "DONE", n)
            ctx.send(PARENT, "DONE", n)

        @wrong.tasktype("MAIN")
        def main(ctx):
            for i in range(6):
                ctx.initiate("WORKER", 50 + i)
            acc = 0
            for _ in range(6):
                acc += ctx.accept("DONE").args[0]
            return acc

        rr = restore_vm(find_latest_checkpoint(tmp_path), registry=wrong)
        with pytest.raises(PiscesError):
            rr.resume()


class TestCaptureGuards:
    def test_checkpoint_before_run_raises(self, tmp_path):
        vm = make_vm(config=config(), registry=build_registry())
        with pytest.raises(CheckpointError, match="vm.run"):
            checkpoint_vm(vm, tmp_path / "x.pckpt")
        vm.shutdown()

    def test_checkpoint_from_task_code_raises(self, tmp_path):
        reg = TaskRegistry()
        seen = {}

        @reg.tasktype("MAIN")
        def main(ctx):
            try:
                checkpoint_vm(ctx.vm, tmp_path / "x.pckpt")
            except CheckpointError as e:
                seen["err"] = str(e)

        vm = make_vm(config=config(), registry=reg)
        vm.run("MAIN")
        assert "between dispatches" in seen["err"]

    def test_checkpoint_without_recorder_raises(self, tmp_path):
        reg = build_registry()
        vm = make_vm(config=config(), registry=reg)
        vm._run_request = ("MAIN", (), 1)
        if vm.engine.sched_hook is None:
            with pytest.raises(CheckpointError, match="decision stream"):
                checkpoint_vm(vm, tmp_path / "x.pckpt")
        vm.shutdown()


class TestPeriodicPolicy:
    def test_keep_prunes_old_bundles(self, tmp_path):
        r, _ = run(ckpt_dir=tmp_path, every=300, keep=2)
        assert r.stats.checkpoints_written > 2
        assert len(list(tmp_path.glob("*.pckpt"))) == 2

    def test_full_disk_warns_once_and_the_run_goes_on(
            self, tmp_path, monkeypatch, capsys):
        class FullDisk:
            def __getattr__(self, name):
                return getattr(os, name)

            def fsync(self, fd):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def spin(every):
            plan = catalog.build(RunSpec(app="spin", params={
                "rounds": 2000, "ticks_per_round": 10}))
            cfg = replace(plan.config, checkpoint_every=every,
                          checkpoint_dir=str(tmp_path / "ckpt"))
            r = make_vm(config=cfg, registry=plan.registry).run(
                plan.tasktype, *plan.args)
            return r.elapsed, r.value

        want = spin(0)
        monkeypatch.setattr(durable, "os", FullDisk())
        assert spin(500) == want
        assert capsys.readouterr().err.count("checkpoint failed") == 1
        assert list((tmp_path / "ckpt").rglob("*")) == []

    def test_marks_derive_from_virtual_time(self, tmp_path):
        """Each bundle lands in a distinct interval bucket of the
        virtual clock (the mark sequence is a pure function of the
        clock, never of pump count)."""
        run(ckpt_dir=tmp_path, every=400, keep=50)
        ticks = sorted(int(p.name.split("-")[1])
                       for p in tmp_path.glob("*.pckpt"))
        assert len(ticks) >= 2
        buckets = [t // 400 for t in ticks]
        assert len(set(buckets)) == len(buckets)


class TestBundleContents:
    def test_manifest_and_state(self, tmp_path):
        run(ckpt_dir=tmp_path)
        manifest, state, psched = load_bundle(
            find_latest_checkpoint(tmp_path))
        assert manifest["format"] == 1
        assert manifest["app"]["tasktype"] == "MAIN"
        for axis in ("exec_core", "window_path", "task_bodies"):
            assert axis not in manifest
            assert axis not in manifest["config"]
        assert manifest["schedule_position"]["D"] > 0
        assert psched.startswith("#psched 1")
        assert state["now"] == manifest["now"]
        assert state["procs"], "no process snapshots"
        assert state["tasks"], "no task snapshots"
        # The whole bundle is JSON-stable.
        json.dumps(manifest)
        json.dumps(state)

    def test_export_manifest_records_cursor_positions(self, tmp_path):
        """export_run manifests carry the fault-plan cursor and the
        schedule position at export time."""
        from repro.faults import FaultPlan, MessagePolicy
        from repro.obs.export import run_manifest

        reg = build_registry()
        plan = FaultPlan(seed=5, name="cursor",
                         messages=MessagePolicy(delay=0.2, delay_ticks=300))
        vm = make_vm(config=config(tmp_path), registry=reg,
                     fault_plan=plan)
        vm.run("MAIN")
        m = run_manifest(vm)
        assert m["fault_plan_cursor"]["events_recorded"] == len(
            vm.faults.events)
        assert set(m["fault_plan_cursor"]) >= {"timed_fired",
                                               "timed_pending",
                                               "rng_digest"}
        assert m["schedule_position"]["D"] > 0


def _jacobi_registry():
    from repro.apps.jacobi import build_windows_registry
    return build_windows_registry(12, 2, 3)


class TestCrossOracleRestore:
    """Restore needs no record of the oracle leg a bundle was written
    on: every bundle written under an oracle resumes on the production
    path to the oracle run's exact elapsed time and trace stream."""

    @pytest.mark.parametrize("leg,make_registry,tasktype", [
        pytest.param(reference_windows, _jacobi_registry, "JMASTER",
                     id="reference-windows"),
        pytest.param(callable_bodies, build_registry, "MAIN",
                     id="callable-bodies"),
    ])
    def test_oracle_bundles_restore_on_the_production_path(
            self, leg, make_registry, tasktype, tmp_path):
        with leg():
            vm = make_vm(config=config(tmp_path, keep=50),
                         registry=make_registry())
            assert leg_of(vm) != ("fast", "auto")
            base = vm.run(tasktype)
            base_trace = [e.line() for e in vm.tracer.events]
        bundles = sorted(tmp_path.glob("*.pckpt"))
        assert len(bundles) >= 2
        for bundle in bundles:
            rr = restore_vm(bundle, registry=make_registry())
            assert leg_of(rr.vm) == ("fast", "auto")
            res = rr.resume()
            assert res.elapsed == base.elapsed, bundle.name
            assert [e.line() for e in rr.vm.tracer.events] == base_trace, \
                bundle.name


def _drop(key):
    def mutate(manifest):
        del manifest[key]
    return mutate


def _set(value, *path):
    def mutate(manifest):
        target = manifest
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


class TestMalformedManifest:
    """A bundle whose checksum is valid but whose manifest cannot
    describe a run is refused with a typed error naming the file."""

    @pytest.mark.parametrize("mutate", [
        pytest.param(_drop("config"), id="no-config"),
        pytest.param(_drop("app"), id="no-app"),
        pytest.param(_set("jacobi", "config"), id="config-is-a-string"),
        pytest.param(_set(7, "config", "clusters"), id="clusters-not-a-list"),
        pytest.param(_set(["NOT_AN_EVENT"], "trace_events"),
                     id="unknown-trace-event"),
        pytest.param(_set(None, "app", "args"), id="args-not-a-list"),
    ])
    def test_refused_with_checkpoint_format_error(self, mutate, tmp_path):
        run(ckpt_dir=tmp_path)
        manifest, state, psched = load_bundle(find_latest_checkpoint(tmp_path))
        mutate(manifest)
        bad = tmp_path / "bad.pckpt"
        bad.write_text(dumps_bundle(manifest, state, psched))
        with pytest.raises(CheckpointFormatError, match="bad.pckpt"):
            restore_vm(bad, registry=build_registry())
