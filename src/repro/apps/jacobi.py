"""Jacobi relaxation on a 2-D grid: the paper's data-parallel pattern.

Two implementations of the same solver exercise the two PISCES 2
communication styles:

* :func:`run_jacobi_windows` -- a master task owns the grid and hands
  *windows* on row blocks to worker tasks (section 8's partitioning
  pattern: the partitioning task forwards 32-byte window values, the
  array bytes move once, owner -> worker);
* :func:`run_jacobi_force` -- one task FORCESPLITs; members share the
  grid in SHARED COMMON, take rows by PRESCHED, and synchronize each
  sweep with a BARRIER (section 7's style).

Both charge virtual compute ticks per cell update, so elapsed virtual
times are comparable across configurations.  Grids are
:class:`~repro.core.grid.Grid` arrays and the stencil is a Fortran-77
loop over flat rows: ``0.25 * (up + down + left + right)`` is the same
IEEE operation sequence numpy's vectorized sweep performed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import List, Optional

from ..config.configuration import Configuration, simple_configuration
from ..core.grid import Grid
from ..core.task import TaskRegistry
from ..core.taskid import PARENT, SENDER
from ..core.vm import AppPlan, PiscesVM
from ..flex.machine import FlexMachine

#: Virtual ticks charged per cell update (five-point stencil).
TICKS_PER_CELL = 5


@dataclass
class JacobiResult:
    grid: Grid
    sweeps: int
    elapsed: int
    residual: float
    stats_window_bytes: int
    vm: PiscesVM


def make_problem(n: int, seed: int = 0) -> Grid:
    """An n x n grid with fixed hot boundary and cold interior."""
    g = Grid.zeros((n, n))
    g[0, :] = 100.0
    g[-1, :] = 100.0
    g[:, 0] = 100.0
    g[:, -1] = 100.0
    return g


def sweep_rows(grid: Grid, new: Grid, rows: range) -> None:
    """One Jacobi sweep over the given interior rows.

    Each row reads its three neighbour rows as copies and assigns its
    interior in one rectangle, so a race detector watching SHARED
    COMMON sees four accesses per row; the cell loop indexes the flat
    row copies."""
    cols = grid.shape[1]
    inner = range(1, cols - 1)
    for i in rows:
        up, mid, down = grid[i - 1].flat, grid[i].flat, grid[i + 1].flat
        new[i, 1:cols - 1] = array("d", [
            0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1])
            for j in inner])


def split_rows(lo: int, hi: int, parts: int) -> List[range]:
    """``range(lo, hi)`` in ``parts`` near-equal consecutive blocks, the
    longer ones first (``numpy.array_split``'s partition)."""
    n = hi - lo
    q, extra = divmod(n, parts)
    out = []
    for k in range(parts):
        size = q + (1 if k < extra else 0)
        out.append(range(lo, lo + size))
        lo += size
    return out


def residual(grid: Grid) -> float:
    """Mean absolute difference between vertically adjacent cells."""
    rows, cols = grid.shape
    g = grid.flat
    total = 0.0
    for k in range(cols, rows * cols):
        total += abs(g[k] - g[k - cols])
    return total / ((rows - 1) * cols)


def reference_solution(n: int, sweeps: int) -> Grid:
    """Serial reference for correctness checks."""
    g = make_problem(n)
    new = g.copy()
    for _ in range(sweeps):
        sweep_rows(g, new, range(1, n - 1))
        g, new = new, g.copy()
    return g


# --------------------------------------------------------------- windows --

def build_windows_registry(n: int, sweeps: int, n_workers: int) -> TaskRegistry:
    reg = TaskRegistry()

    @reg.tasktype("JWORKER")
    def jworker(ctx, k):
        ctx.send(PARENT, "READY", k)
        for _ in range(sweeps):
            res = yield from ctx.accept("WIN")
            w = res.args[0]
            block = yield from ctx.window_read(w)   # rows with halo
            rows = block.shape[0]
            new = block.copy()
            sweep_rows(block, new, range(1, rows - 1))
            yield from ctx.compute((rows - 2) * (n - 2) * TICKS_PER_CELL)
            interior = w.shrink(rows=(1, rows - 1))
            yield from ctx.window_write(interior, new[1:-1, :])
            ctx.send(PARENT, "SWEPT", k)
        return None

    @reg.tasktype("JMASTER")
    def jmaster(ctx):
        grid = make_problem(n)
        full = ctx.export_array("G", grid)
        for k in range(n_workers):
            ctx.initiate("JWORKER", k, on=1 + (k % max(1, len(ctx.vm.clusters))))
        res = yield from ctx.accept("READY", count=n_workers)
        workers = {}
        for m in res.messages:
            workers[m.args[0]] = m.sender
        # Row-block partition of the interior, one halo row each side.
        interior = split_rows(1, n - 1, n_workers)
        for _ in range(sweeps):
            for k, rows in enumerate(interior):
                lo, hi = rows[0] - 1, rows[-1] + 2
                w = full.shrink(rows=(lo, hi))
                ctx.send(workers[k], "WIN", w)
            yield from ctx.accept("SWEPT", count=n_workers)
        return grid, residual(grid)

    return reg


def windows_plan(n: int, sweeps: int, n_workers: int) -> AppPlan:
    return AppPlan(
        registry=build_windows_registry(n, sweeps, n_workers),
        config=simple_configuration(2, max(2, n_workers),
                                    name="jacobi-windows"),
        tasktype="JMASTER")


def run_jacobi_windows(n: int = 32, sweeps: int = 4, n_workers: int = 4,
                       config: Optional[Configuration] = None,
                       machine: Optional[FlexMachine] = None) -> JacobiResult:
    plan = windows_plan(n, sweeps, n_workers)
    r = replace(plan, config=config or plan.config).run(machine)
    grid, resid = r.value
    return JacobiResult(grid=grid, sweeps=sweeps, elapsed=r.elapsed,
                        residual=resid,
                        stats_window_bytes=(r.stats.window_bytes_read
                                            + r.stats.window_bytes_written),
                        vm=r.vm)


# ----------------------------------------------------------------- force --

def build_force_registry(n: int, sweeps: int) -> TaskRegistry:
    reg = TaskRegistry()

    def region(m, _n, _sweeps):
        blk = m.common("GRID")
        g, new = blk.g, blk.new
        for s in range(_sweeps):
            for i in m.presched(range(1, _n - 1)):
                sweep_rows(g, new, (i,))
                yield from m.compute((_n - 2) * TICKS_PER_CELL)

            def copy_back():
                g[1:-1, 1:-1] = new[1:-1, 1:-1]

            yield from m.barrier(copy_back)
        return None

    @reg.tasktype("JFORCE", shared={"GRID": {}})
    def jforce(ctx, _n, _sweeps):
        # SHARED COMMON declared empty above and re-declared here because
        # the block shape depends on run arguments (FREE COMMON frees the
        # storage and makes the name declarable again).
        ctx.free_common("GRID")
        blk = ctx.declare_common(
            "GRID", {"g": ("f8", (_n, _n)), "new": ("f8", (_n, _n))})
        blk.g[...] = make_problem(_n)
        blk.new[...] = blk.g
        yield from ctx.forcesplit(region, _n, _sweeps)
        return blk.g.copy(), residual(blk.g)

    return reg


def force_plan(n: int, sweeps: int, force_pes: int) -> AppPlan:
    return AppPlan(
        registry=build_force_registry(n, sweeps),
        config=simple_configuration(1, 2, force_pes,
                                    name=f"jacobi-force-{force_pes + 1}"),
        tasktype="JFORCE", args=(n, sweeps))


def run_jacobi_force(n: int = 32, sweeps: int = 4, force_pes: int = 3,
                     machine: Optional[FlexMachine] = None) -> JacobiResult:
    r = force_plan(n, sweeps, force_pes).run(machine)
    grid, resid = r.value
    return JacobiResult(grid=grid, sweeps=sweeps, elapsed=r.elapsed,
                        residual=resid, stats_window_bytes=0, vm=r.vm)
