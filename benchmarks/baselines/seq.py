"""Sequential baseline: the same work, one PE, no runtime overheads.

Speedup numbers in the benchmarks are reported against this (and
against force-size-1 runs, which include the PISCES overheads).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.flex.machine import FlexMachine
from repro.flex.presets import small_flex
from repro.mmos.scheduler import Engine
from .schedule import ScheduleProgram


def run_serial_ticks(costs: Sequence[int],
                     machine: Optional[FlexMachine] = None) -> int:
    """Execute work items of the given tick costs serially on one PE;
    returns the elapsed virtual time."""
    m = machine or small_flex()
    eng = Engine(m)
    pe = m.mmos_pes()[0]

    def body() -> None:
        for c in costs:
            eng.charge(c)
            eng.preempt(0)

    eng.spawn("serial", pe, body)
    eng.run()
    return m.elapsed()


def run_program_serial(program: ScheduleProgram,
                       machine: Optional[FlexMachine] = None) -> int:
    """Run a SCHEDULE program's units serially in topological order."""
    units = program.units()
    order = program._topo_order()
    return run_serial_ticks([units[n].cost for n in order], machine)
