#!/usr/bin/env python3
"""Performance-tuning a mapping (sections 4 and 9).

"When an application is run with PISCES 2 on a particular hardware
system, the program can be 'performance tuned' to some degree by
control of the mapping of virtual machine to hardware."  This example
automates that loop for a force program: sweep the number of secondary
(force) PEs, report the elapsed-time curve, then show *why* with the
per-PE occupancy chart from the causal profiler's slice record.

Run:  python examples/tune_mapping.py
"""

from repro import TaskRegistry, api
from repro.flex.presets import nasa_langley_flex32
from repro.obs import force_size_sweep
from repro.obs.profile import idle_report, pe_gantt

reg = TaskRegistry()


def region(m):
    # A sweep-heavy kernel: 32 iterations of 600 ticks each.
    for _ in m.presched(range(32)):
        m.compute(600)


@reg.tasktype("KERNEL")
def kernel(ctx):
    ctx.forcesplit(region)


def main():
    print("sweeping force sizes for KERNEL on the NASA FLEX/32 model:\n")
    result = force_size_sweep("KERNEL", reg, nasa_langley_flex32,
                              sizes=(1, 2, 4, 8))
    print(result.table())
    print(f"\nbest mapping: {result.best.label} "
          f"({result.best.elapsed} ticks)")
    print(result.best.configuration.describe())

    # Re-run the best mapping under the profiler to see PE occupancy.
    print("\nPE occupancy under the best mapping:")
    vm = api.make_vm(config=result.best.configuration, registry=reg,
                     machine=nasa_langley_flex32())
    prof = vm.enable_profiling()
    api.run_app("KERNEL", vm=vm)
    print(pe_gantt(prof, width=64))
    print("\nidle analysis (PE, utilization, largest gap):")
    for pe, util, gap in idle_report(prof):
        print(f"  PE {pe:>2}: {100 * util:5.1f}% busy, "
              f"largest idle gap {gap} ticks")


if __name__ == "__main__":
    main()
