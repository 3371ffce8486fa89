"""Blocked matrix multiply at the paper's three grain sizes (section 2).

"Applications program typically can make use of several different grain
sizes of parallel operation", and PISCES 2 deliberately provides three
that a FLEX-class machine can run efficiently: clusters in parallel,
tasks within a cluster, and force code segments.  This app computes the
same C = A x B three ways:

* ``run_matmul_tasks``   -- task grain: a master partitions C into row
  blocks and farms them to worker *tasks* across clusters (windows
  carry A-blocks and B; results return by message);
* ``run_matmul_force``   -- segment grain: one task FORCESPLITs and the
  members take C rows by PRESCHED out of SHARED COMMON;
* ``run_matmul_hybrid``  -- both: one worker task per cluster, each of
  which FORCESPLITs over its cluster's secondary PEs.

All three charge the same per-cell work, so their elapsed virtual times
expose the overhead of each organization (benchmark A8).  Matrices are
:class:`~repro.core.grid.Grid` arrays multiplied by Fortran-77 loops;
the operands are small integers, so every sum is exact and the product
equals numpy's bit for bit.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Optional

from ..config.configuration import (ClusterSpec, Configuration,
                                    master_worker_configuration,
                                    simple_configuration)
from ..core.grid import Grid
from ..core.task import TaskRegistry
from ..core.taskid import Cluster, PARENT
from ..core.vm import AppPlan, PiscesVM
from ..flex.machine import FlexMachine

#: Ticks per output cell (an n-length dot product).
def cell_cost(n: int) -> int:
    return max(1, n // 4)


@dataclass
class MatmulResult:
    C: Grid
    elapsed: int
    vm: PiscesVM


def make_inputs(n: int, seed: int = 7):
    """Two seeded n x n matrices of small integers in [-3, 3].

    Drawn from the stdlib generator: ``numpy.random`` would load a
    dozen modules and OpenSSL into every process that runs a matmul.
    Virtual time depends only on the shapes, never on the values."""
    rng = random.Random(seed)

    def matrix() -> Grid:
        cells = rng.choices(range(-3, 4), k=n * n)
        return Grid((n, n), "float64", array("d", cells))
    return matrix(), matrix()


def row_times(a, b: Grid) -> array:
    """The row vector ``a`` (a flat sequence) times the matrix ``b``."""
    k_dim, n = b.shape
    bf = b.flat
    out = array("d", bytes(8 * n))
    for j in range(n):
        s = 0.0
        for k in range(k_dim):
            s += a[k] * bf[k * n + j]
        out[j] = s
    return out


def matmul(a: Grid, b: Grid) -> Grid:
    """``a @ b`` for 2-D Grids."""
    rows, k_dim = a.shape
    af = a.flat
    out = array("d")
    for i in range(rows):
        out += row_times(af[i * k_dim:(i + 1) * k_dim], b)
    return Grid((rows, b.shape[1]), "float64", out)


# ------------------------------------------------------------- task grain --

def build_tasks_registry(n: int, n_workers: int) -> TaskRegistry:
    reg = TaskRegistry()

    @reg.tasktype("MWORKER")
    def mworker(ctx, k):
        ctx.send(PARENT, "HELLO", k)
        res = yield from ctx.accept("JOB")
        wa, wb = res.args              # windows on A rows and all of B
        a = yield from ctx.window_read(wa)
        b = yield from ctx.window_read(wb)
        yield from ctx.compute(a.shape[0] * n * cell_cost(n))
        ctx.send(PARENT, "ROWS", k, matmul(a, b))

    @reg.tasktype("MMASTER")
    def mmaster(ctx):
        A, B = make_inputs(n)
        C = Grid.zeros((n, n))
        wa_full = ctx.export_array("A", A)
        wb_full = ctx.export_array("B", B)
        n_clusters = len(ctx.vm.clusters)
        for k in range(n_workers):
            ctx.initiate("MWORKER", k, on=1 + (k % n_clusters))
        who = {}
        for _ in range(n_workers):
            r = yield from ctx.accept("HELLO")
            who[r.args[0]] = r.sender
        parts = wa_full.split(n_workers, axis=0)
        for k in range(n_workers):
            ctx.send(who[k], "JOB", parts[k], wb_full)
        bounds = [p.bounds[0] for p in parts]
        for _ in range(n_workers):
            r = yield from ctx.accept("ROWS")
            k, rows = r.args
            lo, hi = bounds[k]
            C[lo:hi, :] = rows
        return C

    return reg


def tasks_plan(n: int, n_workers: int, n_clusters: int) -> AppPlan:
    return AppPlan(
        registry=build_tasks_registry(n, n_workers),
        config=master_worker_configuration(n_clusters, n_workers,
                                           "matmul-tasks"),
        tasktype="MMASTER")


def run_matmul_tasks(n: int = 24, n_workers: int = 4,
                     n_clusters: int = 2,
                     machine: Optional[FlexMachine] = None) -> MatmulResult:
    r = tasks_plan(n, n_workers, n_clusters).run(machine)
    return MatmulResult(C=r.value, elapsed=r.elapsed, vm=r.vm)


# ------------------------------------------------------------ force grain --

def build_force_registry(n: int) -> TaskRegistry:
    reg = TaskRegistry()

    def region(m):
        blk = m.common("MM")
        A, B, C = blk.A, blk.B, blk.C
        for i in m.presched(range(n)):
            C[i, :] = row_times(A[i].flat, B)
            yield from m.compute(n * cell_cost(n))

    spec = {"A": ("f8", (n, n)), "B": ("f8", (n, n)), "C": ("f8", (n, n))}

    @reg.tasktype("MFORCE", shared={"MM": spec})
    def mforce(ctx):
        A, B = make_inputs(n)
        blk = ctx.common("MM")
        blk.A[...] = A
        blk.B[...] = B
        yield from ctx.forcesplit(region)
        return blk.C.copy()

    return reg


def run_matmul_force(n: int = 24, force_pes: int = 3,
                     machine: Optional[FlexMachine] = None) -> MatmulResult:
    r = AppPlan(build_force_registry(n),
                simple_configuration(1, 2, force_pes, name="matmul-force"),
                "MFORCE").run(machine)
    return MatmulResult(C=r.value, elapsed=r.elapsed, vm=r.vm)


# ------------------------------------------------------------ hybrid grain --

def build_hybrid_registry(n: int, n_clusters: int) -> TaskRegistry:
    reg = TaskRegistry()

    def region(m, a, b, out):
        rows = a.shape[0]
        for i in m.presched(range(rows)):
            out[i, :] = row_times(a[i].flat, b)
            yield from m.compute(n * cell_cost(n))

    @reg.tasktype("HWORKER")
    def hworker(ctx, k):
        ctx.send(PARENT, "HELLO", k)
        res = yield from ctx.accept("JOB")
        wa, wb = res.args
        a = yield from ctx.window_read(wa)
        b = yield from ctx.window_read(wb)
        out = Grid.zeros((a.shape[0], n))
        yield from ctx.forcesplit(region, a, b, out)
        ctx.send(PARENT, "ROWS", k, out)

    @reg.tasktype("HMASTER")
    def hmaster(ctx):
        A, B = make_inputs(n)
        C = Grid.zeros((n, n))
        wa_full = ctx.export_array("A", A)
        wb_full = ctx.export_array("B", B)
        for k in range(n_clusters):
            ctx.initiate("HWORKER", k, on=Cluster(k + 1))
        who = {}
        for _ in range(n_clusters):
            r = yield from ctx.accept("HELLO")
            who[r.args[0]] = r.sender
        parts = wa_full.split(n_clusters, axis=0)
        for k in range(n_clusters):
            ctx.send(who[k], "JOB", parts[k], wb_full)
        bounds = [p.bounds[0] for p in parts]
        for _ in range(n_clusters):
            r = yield from ctx.accept("ROWS")
            k, rows = r.args
            lo, hi = bounds[k]
            C[lo:hi, :] = rows
        return C

    return reg


def run_matmul_hybrid(n: int = 24, n_clusters: int = 2,
                      force_pes_per_cluster: int = 2,
                      machine: Optional[FlexMachine] = None) -> MatmulResult:
    """Task grain across clusters x force grain inside each."""
    # Primaries 3, 4, ... (cluster 1, always present, hosts the master
    # too); one PE past them is left free before the blocks of force PEs.
    f, sec = force_pes_per_cluster, 4 + n_clusters
    clusters = tuple(
        ClusterSpec(i, 2 + i, 3, tuple(range(sec + (i - 1) * f, sec + i * f)))
        for i in range(1, max(1, n_clusters) + 1))
    r = AppPlan(build_hybrid_registry(n, n_clusters),
                Configuration(clusters=clusters, name="matmul-hybrid"),
                "HMASTER").run(machine)
    return MatmulResult(C=r.value, elapsed=r.elapsed, vm=r.vm)
