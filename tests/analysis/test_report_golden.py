"""Golden text of the off-line analysis views on one fixed run.

The catalog ``pipeline`` app, every trace event on, metrics and the
causal profiler on: ``run_report``, the task gantt and the PE-occupancy
gantt must render byte-identical to the pinned files in ``golden/``.

Regenerate (only when a rendering change is intended)::

    PYTHONPATH=src python -m tests.analysis.test_report_golden --write
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.tracing import ALL_TRACE_EVENTS
from repro.core.vm import PiscesVM
from repro.obs import run_report
from repro.obs.profile import pe_gantt
from repro.obs.spans import derive_spans, task_gantt
from repro.service import catalog
from repro.service.spec import RunSpec

GOLDEN = Path(__file__).with_name("golden")


def render():
    """Name -> rendered text for the pinned run."""
    plan = catalog.build(RunSpec.from_dict({"app": "pipeline"}))
    config = replace(plan.config, trace_events=ALL_TRACE_EVENTS,
                     metrics_enabled=True)
    vm = PiscesVM(config, registry=plan.registry)
    prof = vm.enable_profiling()
    try:
        vm.run(plan.tasktype, *plan.args, shutdown=False)
        events = vm.tracer.events
        return {
            "run_report": run_report(vm),
            "task_gantt": task_gantt(derive_spans(events),
                                     horizon=max(e.ticks for e in events)),
            "pe_gantt": pe_gantt(prof),
        }
    finally:
        vm.shutdown()


@pytest.fixture(scope="module")
def rendered():
    return render()


@pytest.mark.parametrize("name", ["run_report", "task_gantt", "pe_gantt"])
def test_text_is_byte_identical_to_golden(rendered, name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert rendered[name] + "\n" == want


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for name, text in render().items():
        (GOLDEN / f"{name}.txt").write_text(text + "\n")
