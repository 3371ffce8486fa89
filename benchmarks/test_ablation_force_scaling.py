"""Ablation A3: force-size scaling (section 7).

"The same program text may be executed without change by a force of any
number of members -- only the performance of the program will change,
not its semantics."  This benchmark runs the identical Jacobi force
program under configurations with 1, 2, 4, and 8 force members and
reports the speedup curve; semantics (the resulting grid) must be
bit-identical across sizes.
"""

import numpy as np
import pytest

from scaling import ScalingPoint, speedup_table
from repro.apps.jacobi import run_jacobi_force, reference_solution
from repro.flex.presets import nasa_langley_flex32
from repro.util.tables import format_table

N = 32
SWEEPS = 3
SIZES = (1, 2, 4, 8)      # force members (1 + secondary PEs)


def run_curve():
    points = []
    grids = []
    for size in SIZES:
        r = run_jacobi_force(n=N, sweeps=SWEEPS, force_pes=size - 1,
                             machine=nasa_langley_flex32())
        r.vm.shutdown()
        points.append(ScalingPoint(f"force-{size}", size, r.elapsed))
        grids.append(r.grid)
    return points, grids


def test_force_scaling(benchmark, report):
    points, grids = benchmark.pedantic(run_curve, rounds=1, iterations=1)
    report(f"A3: FORCE SCALING (Jacobi {N}x{N}, {SWEEPS} sweeps; same "
           f"program text, force size set by configuration only)")
    report(speedup_table(points))

    # Semantics identical for every force size (and correct).
    ref = reference_solution(N, SWEEPS)
    for g in grids:
        assert np.array_equal(g, grids[0])
        assert np.allclose(g, ref)

    # Shape: monotone speedup, and meaningful parallel efficiency at 4.
    elapsed = [p.elapsed for p in points]
    assert elapsed[0] > elapsed[1] > elapsed[2] >= elapsed[3] * 0.9
    speedup4 = elapsed[0] / elapsed[2]
    assert speedup4 > 2.0, f"4-member force speedup only {speedup4:.2f}x"
    report("")
    report(f"4-member speedup {speedup4:.2f}x over the same text at size 1")
