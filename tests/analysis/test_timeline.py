"""Unit tests: off-line task timelines from trace spans, and the task
gantt renderer."""

import io

import pytest

from repro.core.taskid import PARENT, SAME
from repro.core.tracing import TraceEvent
from repro.obs.spans import CAT_MESSAGE, CAT_TASK, derive_spans, task_gantt


@pytest.fixture
def traced_run(make_vm, registry):
    @registry.tasktype("CHILD")
    def child(ctx, k):
        ctx.compute(200)
        ctx.send(PARENT, "DONE", k)

    @registry.tasktype("MAIN")
    def main(ctx):
        for k in range(3):
            ctx.initiate("CHILD", k, on=SAME)
        ctx.accept("DONE", count=3)

    vm = make_vm(registry=registry)
    vm.tracer.enable_all()
    vm.run("MAIN")
    return vm


def task_spans(events):
    return [s for s in derive_spans(events) if s.cat == CAT_TASK]


def gantt(events, width=72):
    return task_gantt(derive_spans(events),
                      horizon=max(e.ticks for e in events), width=width)


class TestReconstruction:
    def test_spans_have_start_end_and_type(self, traced_run):
        spans = task_spans(traced_run.tracer.events)
        assert len(spans) == 4    # MAIN + 3 children
        for s in spans:
            assert s.end > s.start >= 0
        types = sorted(s.name for s in spans)
        assert types == ["CHILD", "CHILD", "CHILD", "MAIN"]

    def test_counters_accumulate(self, traced_run):
        spans = derive_spans(traced_run.tracer.events)
        tasks = {s.name: s.task for s in spans if s.cat == CAT_TASK}
        msgs = [s for s in spans if s.cat == CAT_MESSAGE]
        assert sum(dict(s.args)["to"] == tasks["MAIN"] for s in msgs) == 3
        assert sum(s.task == tasks["CHILD"] for s in msgs) >= 1

    def test_message_edges_extracted(self, traced_run):
        done = [s for s in derive_spans(traced_run.tracer.events)
                if s.cat == CAT_MESSAGE and s.name == "DONE"]
        assert len(done) == 3

    def test_file_roundtrip(self, traced_run):
        buf = io.StringIO()
        for e in traced_run.tracer.events:
            buf.write(e.line() + "\n")
        buf.seek(0)
        events = [TraceEvent.parse(line) for line in buf if line.strip()]
        assert len(task_spans(events)) == 4
        assert gantt(events) == gantt(traced_run.tracer.events)

    def test_gantt_renders_all_tasks(self, traced_run):
        g = gantt(traced_run.tracer.events, width=40)
        assert g.count("#") > 0
        assert "MAIN" in g and "CHILD" in g

    def test_gantt_empty_trace(self):
        assert "no completed task spans" in task_gantt([], horizon=0)

    def test_children_overlap_in_time(self, traced_run):
        spans = task_spans(traced_run.tracer.events)
        assert any(a.start < b.end and b.start < a.end
                   for a in spans for b in spans if a is not b)
