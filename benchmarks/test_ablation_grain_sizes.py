"""Ablation A8: multiple grain sizes of parallel operation (section 2).

"The PISCES 2 design attempts to provide several different grain
sizes": clusters in parallel, tasks within a cluster, and force code
segments.  The same C = A x B runs at three grains with identical
per-cell work charges:

* task grain   -- 4 worker tasks across 2 clusters, data via windows;
* segment grain -- one task, a 4-member force over SHARED COMMON;
* hybrid       -- one task per cluster, each splitting into a force.

Expected shape: all three produce the identical matrix; the force is
the cheapest organization at this size (no window traffic, one task
start), tasks pay message/window overhead, and the hybrid sits between
while reaching the most PEs -- which is why the paper offers all three.
"""

import numpy as np
import pytest

from repro.apps.matmul import (
    make_inputs,
    run_matmul_force,
    run_matmul_hybrid,
    run_matmul_tasks,
)
from repro.flex.presets import nasa_langley_flex32
from repro.util.tables import format_table

N = 24


def run_all():
    rt = run_matmul_tasks(n=N, n_workers=4, n_clusters=2,
                          machine=nasa_langley_flex32())
    msgs = rt.vm.stats.messages_sent
    wbytes = rt.vm.stats.window_bytes_read
    rt.vm.shutdown()
    rf = run_matmul_force(n=N, force_pes=3,
                          machine=nasa_langley_flex32())
    rf.vm.shutdown()
    rh = run_matmul_hybrid(n=N, n_clusters=2, force_pes_per_cluster=2,
                           machine=nasa_langley_flex32())
    rh.vm.shutdown()
    return (rt.C, rt.elapsed, msgs, wbytes), (rf.C, rf.elapsed), \
        (rh.C, rh.elapsed)


def test_grain_sizes(benchmark, report):
    (ct, et, msgs, wbytes), (cf, ef), (ch, eh) = benchmark.pedantic(
        run_all, rounds=1, iterations=1)
    A, B = make_inputs(N)
    expect = np.asarray(A) @ np.asarray(B)
    for c in (ct, cf, ch):
        assert np.allclose(c, expect)

    rows = [
        ["task grain (4 tasks, 2 clusters)", et,
         f"{msgs} msgs, {wbytes} window bytes"],
        ["segment grain (4-member force)", ef, "SHARED COMMON only"],
        ["hybrid (2 tasks x 3-member forces)", eh, "both mechanisms"],
    ]
    report(format_table(
        ["organization", "elapsed (ticks)", "communication"],
        rows, title=f"A8: GRAIN SIZES ({N}x{N} matmul, identical "
                    f"per-cell work)"))

    # Shapes: the force avoids all data movement and wins at this size;
    # the two message-based organizations pay visible overhead but stay
    # within a small factor (they exist for bigger/heterogeneous work).
    assert ef < et and ef < eh
    assert max(et, eh) < 3 * ef
    report("")
    report(f"force organization is {et / ef:.2f}x cheaper than task "
           f"grain and {eh / ef:.2f}x cheaper than hybrid at this size")
