#!/usr/bin/env python3
"""Finding a serialization bug with the causal profiler.

A Jacobi force solver with an over-conservative guard: every row
update runs inside one CRITICAL section, so the force's members take
turns doing work that PRESCHED already made disjoint.  The answer is
still right -- the program is merely slow, which no correctness tool
flags.

``profile_run`` makes the cost visible without touching virtual time:
the wait-state table shows lock-wait dominating every member's
lifetime, and the critical path hops member to member through lock
hand-offs ("released lock-wait of ...") instead of running updates in
parallel.  Dropping the lock -- PRESCHED rows are disjoint and the
BARRIER already orders the copy-back -- collapses the lock-wait
column to zero and multiplies achieved parallelism by roughly the
force size.

Set ``PROFILE_JACOBI_OUT=<dir>`` to also write the flamegraph /
Chrome-trace / critical-path bundle (the CI profile-smoke job uploads
these as artifacts).

Run:  python examples/profile_jacobi.py
"""

import os

import numpy as np

from repro import profile_run
from repro.apps.jacobi import (TICKS_PER_CELL, make_problem,
                               reference_solution, sweep_rows)
from repro.core.task import TaskRegistry
from repro.obs.profile import WAIT_LOCK

N = 12
SWEEPS = 2
FORCE_PES = 3     # secondary PEs: the force has 4 members


def build_registry(serialized: bool) -> TaskRegistry:
    reg = TaskRegistry()

    def region(m):
        blk = m.common("GRID")
        g, new = blk.g, blk.new
        for _ in range(SWEEPS):
            for i in m.presched(range(1, N - 1)):
                if serialized:
                    # BUG (performance, not correctness): PRESCHED rows
                    # are disjoint, but the lock serializes them anyway.
                    with m.critical("GRID_LOCK"):
                        sweep_rows(g, new, (i,))
                        m.compute((N - 2) * TICKS_PER_CELL)
                else:
                    sweep_rows(g, new, (i,))
                    m.compute((N - 2) * TICKS_PER_CELL)

            def copy_back():
                g[1:-1, 1:-1] = new[1:-1, 1:-1]

            m.barrier(copy_back)

    @reg.tasktype("JACOBI", shared={"GRID": {"g": ("f8", (N, N)),
                                             "new": ("f8", (N, N))}})
    def jacobi(ctx):
        blk = ctx.common("GRID")
        blk.g[...] = make_problem(N)
        blk.new[...] = blk.g
        ctx.forcesplit(region)
        return blk.g.copy()

    return reg


def profile(serialized: bool):
    pr = profile_run("JACOBI", registry=build_registry(serialized),
                     n_clusters=1, force_pes_per_cluster=FORCE_PES)
    assert np.array_equal(pr.result.value, reference_solution(N, SWEEPS)), \
        "both variants must stay bit-exact vs the serial reference"
    return pr


def main():
    print(f"Jacobi {N}x{N}, {SWEEPS} sweeps, force of {FORCE_PES + 1} "
          f"members, every row update inside one CRITICAL section")
    print()

    slow = profile(serialized=True)
    acct = slow.profiler.accounting()
    lock_wait = acct.totals.get(WAIT_LOCK, 0)
    assert lock_wait > 0, "the seeded serialization must show up"
    print(f"profiled (seeded): elapsed {slow.elapsed} ticks, "
          f"efficiency {slow.critical_path.efficiency:.0%}, "
          f"lock-wait {lock_wait} ticks")
    print()
    print(slow.report())
    print()

    top = slow.critical_path.what_if(1)[0]
    print(f"top path segment: {top['kind']} {top['label']} on "
          f"PE{top['pe']} for {top['ticks']} ticks "
          f"(up to -{top['max_elapsed_saving_pct']}% elapsed if free)")
    hand_offs = sum("released lock-wait" in (s.detail or "")
                    for s in slow.critical_path.segments)
    print(f"critical path crosses {hand_offs} lock hand-off(s): the "
          f"members are taking turns, not working in parallel")
    print()

    print("fix: drop the CRITICAL section -- PRESCHED rows are disjoint "
          "and the BARRIER already orders the copy-back")
    print()
    fast = profile(serialized=False)
    acct = fast.profiler.accounting()
    assert acct.totals.get(WAIT_LOCK, 0) == 0, "no lock, no lock-wait"
    assert fast.elapsed < slow.elapsed
    assert fast.critical_path.efficiency > slow.critical_path.efficiency
    print(f"profiled (fixed):  elapsed {fast.elapsed} ticks, "
          f"efficiency {fast.critical_path.efficiency:.0%}, "
          f"lock-wait 0 ticks")
    print(f"speedup {slow.elapsed / fast.elapsed:.2f}x, parallelism "
          f"{slow.critical_path.parallelism:.2f} -> "
          f"{fast.critical_path.parallelism:.2f} "
          f"of {fast.critical_path.n_pes} PEs")

    out_dir = os.environ.get("PROFILE_JACOBI_OUT")
    if out_dir:
        bundle = {}
        bundle.update(slow.export(out_dir, prefix="jacobi.serialized"))
        bundle.update(fast.export(out_dir, prefix="jacobi.fixed"))
        print()
        for kind in sorted(bundle):
            print(f"wrote {kind}: {bundle[kind]}")

    slow.vm.shutdown()
    fast.vm.shutdown()


if __name__ == "__main__":
    main()
