"""A task pipeline: dynamic topology built by taskid exchange (section 6).

"A typical PISCES 2 program begins with an initial phase in which the
first group of tasks are initiated, followed by an exchange of messages
containing taskid's to establish the communication topology."  This app
is that idiom distilled: a source, N filter stages and a sink are
initiated; the coordinator collects their HELLOs and wires each stage
to the next by sending it the downstream taskid; items then stream
through, each stage charging compute per item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..config.configuration import simple_configuration
from ..core.task import TaskRegistry
from ..core.taskid import ANY, PARENT
from ..core.vm import AppPlan, PiscesVM
from ..flex.machine import FlexMachine

#: Ticks each stage charges per item (the pipeline's "work").
STAGE_COST = 50


@dataclass
class PipelineResult:
    outputs: List[int]
    elapsed: int
    stages: int
    items: int
    vm: PiscesVM


def build_pipeline_registry(n_stages: int, items: Sequence[int]) -> TaskRegistry:
    reg = TaskRegistry()

    @reg.tasktype("STAGE")
    def stage(ctx, index):
        ctx.send(PARENT, "HELLO", "STAGE", index)
        nxt = (yield from ctx.accept("NEXT")).args[0]
        while True:
            res = yield from ctx.accept("ITEM", "EOS", count=1)
            m = res.messages[0]
            if m.mtype == "EOS":
                ctx.send(nxt, "EOS")
                return index
            yield from ctx.compute(STAGE_COST)
            ctx.send(nxt, "ITEM", m.args[0] + 1)  # each stage increments

    @reg.tasktype("SINK")
    def sink(ctx):
        ctx.send(PARENT, "HELLO", "SINK", -1)
        got: List[int] = []
        while True:
            res = yield from ctx.accept("ITEM", "EOS", count=1)
            m = res.messages[0]
            if m.mtype == "EOS":
                ctx.send(PARENT, "RESULT", tuple(got))
                return got
            got.append(m.args[0])

    @reg.tasktype("COORD")
    def coord(ctx):
        # Phase 1: initiate everything, collect taskids.
        for i in range(n_stages):
            ctx.initiate("STAGE", i, on=ANY)
        ctx.initiate("SINK", on=ANY)
        res = yield from ctx.accept("HELLO", count=n_stages + 1)
        stages = {}
        sink_tid = None
        for m in res.messages:
            kind, idx = m.args
            if kind == "SINK":
                sink_tid = m.sender
            else:
                stages[idx] = m.sender
        # Phase 2: wire the topology back-to-front.
        chain = [stages[i] for i in range(n_stages)] + [sink_tid]
        for up, down in zip(chain[:-1], chain[1:]):
            ctx.send(up, "NEXT", down)
        # Phase 3: stream the items through stage 0.
        for x in items:
            ctx.send(chain[0], "ITEM", x)
        ctx.send(chain[0], "EOS")
        out = (yield from ctx.accept("RESULT")).args[0]
        return list(out)

    return reg


def pipeline_plan(n_stages: int, items: Sequence[int], n_clusters: int,
                  slots: int) -> AppPlan:
    return AppPlan(
        registry=build_pipeline_registry(n_stages, items),
        config=simple_configuration(n_clusters, slots, name="pipeline"),
        tasktype="COORD")


def run_pipeline(n_stages: int = 3, items: Optional[Sequence[int]] = None,
                 n_clusters: int = 2, slots: int = 4,
                 machine: Optional[FlexMachine] = None) -> PipelineResult:
    data = list(items) if items is not None else list(range(10))
    r = pipeline_plan(n_stages, data, n_clusters, slots).run(machine)
    return PipelineResult(outputs=r.value, elapsed=r.elapsed,
                          stages=n_stages, items=len(data), vm=r.vm)
