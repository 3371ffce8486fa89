#!/usr/bin/env python3
"""Heat-plate relaxation two ways: windows vs a force.

The same Jacobi solver written in the paper's two styles:

* section 8 style -- a master owns the grid and distributes *windows*
  on row blocks to worker tasks (array bytes move exactly once);
* section 7 style -- one task FORCESPLITs; members share the grid in
  SHARED COMMON, take rows by PRESCHED, and barrier between sweeps.

The run prints both results (identical grids), the data-movement
difference, and the force-size speedup curve.

Run:  python examples/jacobi_heat.py
"""

import numpy as np

from repro.apps.jacobi import (
    reference_solution,
    run_jacobi_force,
    run_jacobi_windows,
)
from repro.util.tables import format_table

N = 24
SWEEPS = 4


def main():
    print(f"Jacobi {N}x{N}, {SWEEPS} sweeps")
    print()

    rw = run_jacobi_windows(n=N, sweeps=SWEEPS, n_workers=4)
    rw.vm.shutdown()
    print(f"windows version : elapsed {rw.elapsed:>7} ticks, "
          f"{rw.stats_window_bytes} array bytes moved through windows")

    rf = run_jacobi_force(n=N, sweeps=SWEEPS, force_pes=3)
    rf.vm.shutdown()
    print(f"force version   : elapsed {rf.elapsed:>7} ticks, "
          f"0 bytes moved (SHARED COMMON)")

    ref = reference_solution(N, SWEEPS)
    assert np.allclose(rw.grid, ref) and np.allclose(rf.grid, ref)
    print("both match the serial reference solution")
    print()

    print("force scaling (same program text, configuration-chosen size):")
    rows = []
    for size in (1, 2, 4):
        r = run_jacobi_force(n=N, sweeps=SWEEPS, force_pes=size - 1)
        r.vm.shutdown()
        speedup = rows[0][1] / r.elapsed if rows else 1.0
        rows.append([f"force-{size}", r.elapsed, f"{speedup:.2f}x",
                     f"{100 * speedup / size:.0f}%"])
    print(format_table(["config", "elapsed", "speedup", "efficiency"],
                       rows, title="SCALING"))


if __name__ == "__main__":
    main()
