"""Unit + integration tests: JSONL, Chrome trace and export_run."""

import hashlib
import io
import json

import pytest

from repro.core.taskid import TaskId
from repro.core.tracing import TraceEvent, TraceEventType
from repro.obs.export import (
    chrome_trace_events,
    event_from_dict,
    event_to_dict,
    export_run,
    load_chrome_trace,
    read_jsonl,
    run_manifest,
    sha256_hex,
    write_chrome_trace,
    write_jsonl,
    write_metrics_snapshot,
)
from repro.obs.metrics import MetricsRegistry

A = TaskId(1, 1, 1)
B = TaskId(2, 1, 1)

EVENTS = [
    TraceEvent(TraceEventType.TASK_INIT, A, 3, 0, "type=W"),
    TraceEvent(TraceEventType.MSG_SEND, A, 3, 10, "type=GO bytes=8", B),
    TraceEvent(TraceEventType.MSG_ACCEPT, B, 4, 55, "type=GO", A),
    TraceEvent(TraceEventType.TASK_TERM, A, 3, 100, ""),
]


class TestJsonl:
    def test_dict_roundtrip(self):
        for e in EVENTS:
            assert event_from_dict(event_to_dict(e)) == e

    def test_file_roundtrip(self):
        buf = io.StringIO()
        assert write_jsonl(EVENTS, buf) == len(EVENTS)
        buf.seek(0)
        assert read_jsonl(buf) == EVENTS

    def test_lines_are_plain_json(self):
        buf = io.StringIO()
        write_jsonl(EVENTS, buf)
        for line in buf.getvalue().strip().splitlines():
            d = json.loads(line)
            assert d["etype"] in {t.value for t in TraceEventType}


class TestChromeTrace:
    def test_task_spans_become_b_e_pairs(self):
        arr = chrome_trace_events(EVENTS)
        phases = [e["ph"] for e in arr]
        assert phases.count("B") == phases.count("E") == 1
        b = next(e for e in arr if e["ph"] == "B")
        e_ = next(e for e in arr if e["ph"] == "E")
        assert (b["ts"], e_["ts"]) == (0, 100)
        assert b["name"] == "W" and b["pid"] == 3

    def test_message_span_becomes_x_event(self):
        arr = chrome_trace_events(EVENTS)
        x = next(e for e in arr if e["ph"] == "X")
        assert x["name"] == "GO" and x["ts"] == 10 and x["dur"] == 45
        assert x["args"] == {"to": str(B)}

    def test_metadata_rows_per_pe(self):
        arr = chrome_trace_events(EVENTS)
        meta = [e for e in arr if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"PE 3"}

    def test_write_and_load(self):
        buf = io.StringIO()
        n = write_chrome_trace(EVENTS, buf)
        buf.seek(0)
        arr = load_chrome_trace(buf)
        assert len(arr) == n

    def test_load_rejects_non_array(self):
        with pytest.raises(ValueError):
            load_chrome_trace(io.StringIO('{"ph": "X"}'))

    def test_load_rejects_missing_ph(self):
        with pytest.raises(ValueError):
            load_chrome_trace(io.StringIO('[{"name": "no-phase"}]'))


class TestMetricsSnapshotFile:
    def test_json_form(self):
        reg = MetricsRegistry()
        reg.counter("msgs", pe=1).inc(2)
        buf = io.StringIO()
        write_metrics_snapshot(reg, buf, as_json=True)
        data = json.loads(buf.getvalue())
        assert data["msgs"]["{pe=1}"]["value"] == 2

    def test_text_form(self):
        buf = io.StringIO()
        write_metrics_snapshot(MetricsRegistry(), buf)
        assert "no metrics recorded" in buf.getvalue()


class TestExportRun:
    @pytest.fixture
    def traced_vm(self, make_vm, registry):
        from repro.core.taskid import PARENT, SAME

        @registry.tasktype("CHILD")
        def child(ctx):
            ctx.compute(30)
            ctx.send(PARENT, "DONE")

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("CHILD", on=SAME)
            ctx.accept("DONE")

        vm = make_vm(registry=registry, metrics_enabled=True)
        vm.tracer.enable_all()
        vm.run("MAIN")
        return vm

    def test_writes_the_bundle(self, traced_vm, tmp_path):
        paths = export_run(traced_vm, tmp_path, prefix="t")
        assert sorted(paths) == ["chrome", "jsonl", "manifest",
                                 "metrics_json", "metrics_txt"]
        for p in paths.values():
            assert p.exists() and p.stat().st_size > 0

    def test_exported_events_reload(self, traced_vm, tmp_path):
        paths = export_run(traced_vm, tmp_path)
        with paths["jsonl"].open() as f:
            back = read_jsonl(f)
        assert back == list(traced_vm.tracer.events)
        with paths["chrome"].open() as f:
            arr = load_chrome_trace(f)
        assert any(e["ph"] == "X" for e in arr)

    def test_metrics_json_parses(self, traced_vm, tmp_path):
        paths = export_run(traced_vm, tmp_path)
        with paths["metrics_json"].open() as f:
            snap = json.load(f)
        assert "tasks_started" in snap


class TestFaultPlanHash:
    """The manifest hashes a fault plan with CPython's built-in SHA-256
    (``_sha256`` before 3.12, ``_sha2`` from it): the digest is the one
    ``hashlib`` gives, across SHA-256's padding boundaries (a 55-byte
    message pads into one 64-byte block, 56 bytes into two)."""

    SIZES = (0, 55, 56, 63, 64, 65, 1000)

    @pytest.mark.parametrize("size", SIZES)
    def test_digest_is_hashlibs(self, size):
        data = bytes(i % 251 for i in range(size))
        assert sha256_hex(data) == hashlib.sha256(data).hexdigest()

    @staticmethod
    def manifest_hash(plan):
        from repro.api import make_vm
        vm = make_vm(n_clusters=1, slots=2, fault_plan=plan)
        try:
            assert vm.faults is not None
            return run_manifest(vm)["fault_plan_hash"]
        finally:
            vm.shutdown()

    @pytest.mark.parametrize("size", SIZES[1:])
    def test_manifest_hash_of_a_plan_text_of_size(self, size):
        from repro.faults import FaultPlan, dumps
        short = FaultPlan(name="p", strict_sends=True)
        pad = size - len(dumps(short).encode("utf-8"))
        plan = FaultPlan(name="p" + "x" * pad, strict_sends=True)
        text = dumps(plan).encode("utf-8")
        assert len(text) == size
        assert self.manifest_hash(plan) == hashlib.sha256(text).hexdigest()

    def test_manifest_hash_of_a_non_ascii_plan_name(self):
        from repro.faults import FaultPlan, TaskKill, dumps
        plan = FaultPlan(seed=7, name="Überlauf-Jacobi ß 雅可比",
                         kills=(TaskKill(at=5_000, tasktype="CWORKER"),))
        assert self.manifest_hash(plan) == hashlib.sha256(
            dumps(plan).encode("utf-8")).hexdigest()
