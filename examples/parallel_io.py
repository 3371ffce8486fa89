#!/usr/bin/env python3
"""Parallel file I/O through windows (sections 1 and 8).

"Windows also provide a uniform access method for large arrays on
secondary storage" -- and PISCES 3 was announced to emphasize parallel
I/O.  This example stores a 512 KB matrix in the simulated file system,
has four tasks read disjoint row-block windows concurrently, and shows
the effect of striping the file controller's disk array: per-disk
counters, elapsed I/O time for 1 vs 4 disks, and the consistency of an
overlapping read-modify-write sequence.

Run:  python examples/parallel_io.py
"""

import numpy as np

from repro import Configuration, ClusterSpec, TaskRegistry, api
from repro.core.taskid import PARENT, SAME

N = 256                       # matrix is N x N float64 = 512 KB

reg = TaskRegistry()


@reg.tasktype("IOREADER")
def ioreader(ctx, k, parts):
    w = ctx.file_window("MATRIX")
    mine = w.split(parts, axis=0)[k]
    t0 = ctx.now()
    data = ctx.window_read(mine)
    ctx.send(PARENT, "DONE", k, float(np.asarray(data).sum()), ctx.now() - t0)


@reg.tasktype("IOMAIN")
def iomain(ctx, parts):
    t0 = ctx.now()
    for k in range(parts):
        ctx.initiate("IOREADER", k, parts, on=SAME)
    res = ctx.accept("DONE", count=parts)
    total = sum(m.args[1] for m in res.messages)
    return total, ctx.now() - t0


def run(n_disks: int):
    cfg = Configuration(clusters=(ClusterSpec(1, 3, 6),),
                        name=f"io-{n_disks}d")
    vm = api.make_vm(config=cfg, registry=reg)
    vm.export_file("MATRIX", np.arange(float(N * N)).reshape(N, N))
    vm.configure_file_disks(n_disks, stripe_unit=32 * 1024)
    result = api.run_app("IOMAIN", 4, vm=vm, shutdown=False)
    return vm, result


def main():
    expect = float(np.arange(float(N * N)).sum())

    vm1, r1 = run(1)
    total1, t1 = r1.value
    vm1.shutdown()
    print(f"1 disk : 4 concurrent window readers finished in {t1} ticks")

    vm4, r4 = run(4)
    total4, t4 = r4.value
    print(f"4 disks: the same reads finished in {t4} ticks "
          f"({t1 / t4:.2f}x)")
    assert total1 == total4 == expect

    print("\nper-disk counters (4-disk case):")
    print(vm4.file_controller.disks.describe())
    vm4.shutdown()

    # Read-modify-write consistency through overlapping file windows.
    reg2 = TaskRegistry()

    @reg2.tasktype("BUMP")
    def bump(ctx, k):
        w = ctx.file_window("V").shrink(rows=(k * 2, k * 2 + 4))
        vals = ctx.window_read(w)
        ctx.window_write(w, np.asarray(vals) + 1.0)
        ctx.send(PARENT, "OK")

    @reg2.tasktype("RMW")
    def rmw(ctx):
        for k in range(3):
            ctx.initiate("BUMP", k, on=SAME)
        ctx.accept("OK", count=3)

    cfg = Configuration(clusters=(ClusterSpec(1, 3, 5),), name="rmw")
    vm = api.make_vm(config=cfg, registry=reg2)
    vm.export_file("V", np.zeros(8))
    api.run_app("RMW", vm=vm, shutdown=False)
    final = vm.file_controller.arrays.get("V")
    print(f"\noverlapping read-modify-writes on an 8-vector "
          f"(windows [0:4),[2:6),[4:8)): {final.tolist()}")
    print("each TRANSFER is atomic (no torn values) -- but concurrent")
    print("read-modify-write loses updates, exactly as on real storage:")
    print("partition disjointly (the section-8 pattern) to avoid it.")
    assert set(final.tolist()) <= {1.0, 2.0}   # atomic, maybe lost
    vm.shutdown()

    # The disjoint-partition version: every increment lands.
    reg3 = TaskRegistry()

    @reg3.tasktype("BUMP")
    def bump3(ctx, k):
        w = ctx.file_window("V").split(3, axis=0)[k]
        vals = ctx.window_read(w)
        ctx.window_write(w, np.asarray(vals) + 1.0)
        ctx.send(PARENT, "OK")

    @reg3.tasktype("RMW")
    def rmw3(ctx):
        for k in range(3):
            ctx.initiate("BUMP", k, on=SAME)
        ctx.accept("OK", count=3)

    vm = api.make_vm(config=cfg, registry=reg3)
    vm.export_file("V", np.zeros(9))
    api.run_app("RMW", vm=vm, shutdown=False)
    final = vm.file_controller.arrays.get("V")
    print(f"disjoint split(3) partitions instead: {final.tolist()}")
    assert sum(final.tolist()) == 9.0
    vm.shutdown()


if __name__ == "__main__":
    main()
