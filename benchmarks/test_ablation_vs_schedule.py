"""Ablation A4: programmer mapping (PISCES) vs system mapping (SCHEDULE).

Section 3: "SCHEDULE maps the program onto the available hardware in an
appropriate way for parallel execution.  In contrast, PISCES 2 expects
the programmer to control the mapping."  We run the same fork/join
workload (a root, W independent heavy routines, a join) three ways:

* serial baseline (total work);
* SCHEDULE-style: declare the DAG, let the list scheduler place it;
* PISCES: the programmer maps it as a force over explicit PEs.

Expected shape: both parallel systems land well under serial and within
sight of each other; PISCES carries run-time-library overheads (message
passing, barriers) while SCHEDULE carries dispatch overhead -- neither
dominated in the era's debates, but both beat serial by ~W/critical
path.
"""

import pytest

from baselines.schedule import ScheduleProgram, ScheduleRunner
from baselines.seq import run_program_serial
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.task import TaskRegistry
from repro.core.vm import PiscesVM
from repro.flex.presets import nasa_langley_flex32, small_flex
from repro.util.tables import format_table

W = 8            # parallel routines
UNIT_COST = 2000
PES = 4


def build_dag():
    p = ScheduleProgram()
    p.unit("setup", 200)
    for i in range(W):
        p.unit(f"work{i}", UNIT_COST, deps=["setup"])
    p.unit("join", 200, deps=[f"work{i}" for i in range(W)])
    return p


def run_pisces_force():
    reg = TaskRegistry()

    def region(m):
        m.compute(200 // m.force_size or 1)      # setup share
        for i in m.presched(range(W)):
            m.compute(UNIT_COST)
        m.barrier(lambda: None)                   # the join

    @reg.tasktype("FJ")
    def fj(ctx):
        ctx.forcesplit(region)

    cfg = Configuration(clusters=(
        ClusterSpec(1, 3, 2, tuple(range(4, 4 + PES - 1))),),
        name="pisces-fj")
    vm = PiscesVM(cfg, registry=reg, machine=nasa_langley_flex32())
    r = vm.run("FJ")
    return r.elapsed


def run_all():
    serial = run_program_serial(build_dag())
    sched = ScheduleRunner(build_dag(), n_pes=PES).run()
    pisces = run_pisces_force()
    return serial, sched, pisces


def test_pisces_vs_schedule(benchmark, report):
    serial, sched, pisces = benchmark.pedantic(run_all, rounds=1,
                                               iterations=1)
    rows = [
        ["serial (1 PE)", serial, "1.00x", "-"],
        ["SCHEDULE-style (system-mapped)", sched.elapsed,
         f"{serial / sched.elapsed:.2f}x",
         f"critical path {sched.critical_path}"],
        ["PISCES 2 force (programmer-mapped)", pisces,
         f"{serial / pisces:.2f}x", f"{PES}-member force"],
    ]
    report(format_table(
        ["system", "elapsed (ticks)", "speedup", "notes"],
        rows, title=f"A4: PISCES vs SCHEDULE ({W} routines x {UNIT_COST} "
                    f"ticks on {PES} PEs)"))

    # Shapes: both parallel runs beat serial substantially ...
    assert sched.elapsed < serial / 2
    assert pisces < serial / 2
    # ... neither can beat the critical-path/work lower bound ...
    lower = max(sched.critical_path,
                (serial // PES))
    assert sched.elapsed >= lower * 0.9
    # ... and the two systems land within 2x of each other (neither
    # model is an order of magnitude better on a clean fork/join).
    ratio = max(pisces, sched.elapsed) / min(pisces, sched.elapsed)
    assert ratio < 2.0, f"unexpected gap {ratio:.2f}x"
    report("")
    report(f"parallel-system gap: {ratio:.2f}x (each carries its own "
           f"overhead model)")
