#!/usr/bin/env python3
"""Debugging a data race with the happens-before detector.

A Jacobi force solver with a classic bug: after computing its sweep
into ``new``, each member copies *its own* rows back into ``g`` with no
intervening BARRIER.  Round-robin PRESCHED gives adjacent rows to
different members, so one member's copy-back write to ``g[i]`` races a
neighbour's five-point-stencil read of the same row in the next sweep.
The run still "works" most of the time under a deterministic scheduler
-- exactly the kind of latent bug the detector exists for.

``check_races`` flags the unordered write/read pair with both sides'
evidence (process, extents, recent synchronization ops); adding the
BARRIER -- the shipped solver's ``m.barrier(copy_back)`` pattern --
makes the same program verifiably clean and bit-exact against the
serial reference.

Run:  python examples/race_debugging.py
"""

import numpy as np

from repro import check_races
from repro.apps.jacobi import make_problem, reference_solution, sweep_rows
from repro.core.task import TaskRegistry

N = 12
SWEEPS = 2
FORCE_PES = 3     # secondary PEs: the force has 4 members


def build_registry(guarded: bool) -> TaskRegistry:
    reg = TaskRegistry()

    def region(m):
        blk = m.common("GRID")
        g, new = blk.g, blk.new
        for _ in range(SWEEPS):
            for i in m.presched(range(1, N - 1)):
                sweep_rows(g, new, (i,))
            if guarded:
                def copy_back():
                    g[1:-1, 1:-1] = new[1:-1, 1:-1]

                m.barrier(copy_back)
            else:
                # BUG: no barrier -- a neighbour may still be reading
                # g[i] for its stencil while we overwrite it.
                for i in m.presched(range(1, N - 1)):
                    g[i, 1:-1] = new[i, 1:-1]

    @reg.tasktype("JACOBI", shared={"GRID": {"g": ("f8", (N, N)),
                                             "new": ("f8", (N, N))}})
    def jacobi(ctx):
        blk = ctx.common("GRID")
        blk.g[...] = make_problem(N)
        blk.new[...] = blk.g
        ctx.forcesplit(region)
        return blk.g.copy()

    return reg


def main():
    print(f"Jacobi {N}x{N}, {SWEEPS} sweeps, force of {FORCE_PES + 1} "
          f"members, per-member copy-back with no barrier")
    print()

    chk = check_races("JACOBI", registry=build_registry(guarded=False),
                      n_clusters=1, force_pes_per_cluster=FORCE_PES)
    assert not chk.clean, "the seeded race must be detected"
    print(f"detector: {len(chk.reports)} race(s) on GRID "
          f"({chk.detector.accesses_checked} accesses checked)")
    print()
    first = chk.reports[0]
    print(first.describe())
    print()

    print("fix: replace the copy-back loop with m.barrier(copy_back)")
    print()
    chk = check_races("JACOBI", registry=build_registry(guarded=True),
                      n_clusters=1, force_pes_per_cluster=FORCE_PES)
    assert chk.clean and not chk.warnings, "the fixed program must be clean"
    print(f"detector: clean "
          f"({chk.detector.accesses_checked} accesses checked, 0 races)")
    assert np.array_equal(chk.result.value, reference_solution(N, SWEEPS))
    print("grid is bit-exact vs the serial reference")


if __name__ == "__main__":
    main()
