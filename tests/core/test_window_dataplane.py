"""The window data plane: batched transactions, caching, conflicts.

The fast path: window reads/writes travel as one strided-block
WindowTxn request/reply instead of per-row messages; readers keep a
generation-validated cache; conditional writes surface WindowConflict.
The fast path (with and without its reader cache) must agree
bit-identically in virtual time with the per-row reference path, the
oracle.
"""

import numpy as np
import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.taskid import PARENT, SAME
from repro.errors import PiscesError, WindowConflict, WindowError
from tests.oracles import oracle_leg

ONE_CLUSTER = Configuration(clusters=(ClusterSpec(1, 3, 6),), name="dp")


# ----------------------------------------------------------- caching --

def test_repeated_read_hits_cache(make_vm, registry):
    @registry.tasktype("READER")
    def reader(ctx):
        w = ctx.accept("WIN").args[0]
        a = ctx.window_read(w)
        b = ctx.window_read(w)          # unchanged -> served from cache
        assert np.array_equal(a, b)
        ctx.send(PARENT, "DONE", float(np.asarray(b).sum()))

    @registry.tasktype("OWNER")
    def owner(ctx):
        ctx.export_array("A", np.arange(64.0).reshape(8, 8))
        ctx.initiate("READER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("WIN", ctx.window("A"), cluster=1)
        return ctx.accept("DONE").args[0]

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    r = vm.run("OWNER")
    assert r.value == float(np.arange(64.0).sum())
    assert r.stats.window_cache_hits == 1
    assert r.stats.window_cache_misses == 1
    # the hit moved no bytes: only the first read crossed the plane
    assert r.stats.window_bytes_moved == 64 * 8
    assert r.stats.window_bytes_read == 2 * 64 * 8


def test_overlapping_write_invalidates_remote_cache(make_vm, registry):
    @registry.tasktype("READER")
    def reader(ctx):
        w = ctx.accept("WIN").args[0]
        before = ctx.window_read(w)
        ctx.send(PARENT, "SAW", float(before[0, 0]))
        ctx.accept("GO")
        after = ctx.window_read(w)      # owner wrote -> must re-fetch
        ctx.send(PARENT, "SAW2", float(after[0, 0]))

    @registry.tasktype("OWNER")
    def owner(ctx):
        ctx.export_array("A", np.zeros((8, 8)))
        ctx.initiate("READER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        w = ctx.window("A")
        ctx.broadcast("WIN", w, cluster=1)
        res = ctx.accept("SAW")
        first = res.args[0]
        ctx.window_write(w.shrink(rows=(0, 2)), np.full((2, 8), 7.0))
        ctx.send(res.sender, "GO")
        second = ctx.accept("SAW2").args[0]
        return first, second

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    r = vm.run("OWNER")
    assert r.value == (0.0, 7.0)
    assert r.stats.window_cache_hits == 0      # invalidated, not hit
    assert r.stats.window_cache_misses == 2


def test_disjoint_write_keeps_cache_valid(make_vm, registry):
    @registry.tasktype("READER")
    def reader(ctx):
        w = ctx.accept("WIN").args[0]
        ctx.window_read(w)
        ctx.send(PARENT, "SAW")
        ctx.accept("GO")
        ctx.window_read(w)              # disjoint write -> still valid
        ctx.send(PARENT, "DONE")

    @registry.tasktype("OWNER")
    def owner(ctx):
        ctx.export_array("A", np.zeros((8, 8)))
        ctx.initiate("READER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        w = ctx.window("A")
        ctx.broadcast("WIN", w.shrink(rows=(0, 4)), cluster=1)
        res = ctx.accept("SAW")
        ctx.window_write(w.shrink(rows=(6, 8)), np.ones((2, 8)))
        ctx.send(res.sender, "GO")
        ctx.accept("DONE")
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    r = vm.run("OWNER")
    assert r.value is True
    assert r.stats.window_cache_hits == 1


def test_uncacheable_export_never_caches(make_vm, registry):
    @registry.tasktype("READER")
    def reader(ctx):
        w = ctx.accept("WIN").args[0]
        ctx.window_read(w)
        ctx.window_read(w)
        ctx.send(PARENT, "DONE")

    @registry.tasktype("OWNER")
    def owner(ctx):
        ctx.export_array("A", np.zeros((4, 4)), cacheable=False)
        ctx.initiate("READER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("WIN", ctx.window("A"), cluster=1)
        ctx.accept("DONE")
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    r = vm.run("OWNER")
    assert r.stats.window_cache_hits == 0
    assert r.stats.window_bytes_moved == 2 * 16 * 8


def test_touch_array_invalidates_after_direct_mutation(make_vm, registry):
    @registry.tasktype("READER")
    def reader(ctx):
        w = ctx.accept("WIN").args[0]
        before = ctx.window_read(w)
        ctx.send(PARENT, "SAW", float(before[0, 0]))
        ctx.accept("GO")
        after = ctx.window_read(w)
        ctx.send(PARENT, "SAW2", float(after[0, 0]))

    @registry.tasktype("OWNER")
    def owner(ctx):
        a = np.zeros((4, 4))
        ctx.export_array("A", a)
        ctx.initiate("READER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("WIN", ctx.window("A"), cluster=1)
        res = ctx.accept("SAW")
        a[...] = 5.0                    # direct mutation, no data plane
        ctx.touch_array("A")            # ... so the owner must TOUCH
        ctx.send(res.sender, "GO")
        return ctx.accept("SAW2").args[0]

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    r = vm.run("OWNER")
    assert r.value == 5.0
    assert r.stats.window_cache_hits == 0


# --------------------------------------------------------- conflicts --

def test_if_unchanged_write_succeeds_without_interference(make_vm,
                                                          registry):
    @registry.tasktype("WORKER")
    def workertask(ctx):
        w = ctx.accept("WIN").args[0]
        vals = ctx.window_read(w)
        ctx.window_write(w, np.asarray(vals) + 1.0, if_unchanged=True)
        ctx.send(PARENT, "DONE")

    @registry.tasktype("OWNER")
    def owner(ctx):
        ctx.export_array("A", np.zeros((4, 4)))
        ctx.initiate("WORKER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("WIN", ctx.window("A"), cluster=1)
        ctx.accept("DONE")
        return float(np.asarray(ctx.task.arrays.get("A")).sum())

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    r = vm.run("OWNER")
    assert r.value == 16.0
    assert r.stats.window_conflicts == 0


def test_if_unchanged_write_raises_window_conflict(make_vm, registry):
    @registry.tasktype("WORKER")
    def workertask(ctx):
        w = ctx.accept("WIN").args[0]
        vals = ctx.window_read(w)
        ctx.send(PARENT, "READY")
        ctx.accept("GO")                # owner overwrites meanwhile
        with pytest.raises(WindowConflict):
            ctx.window_write(w, np.asarray(vals) + 1.0, if_unchanged=True)
        ctx.send(PARENT, "DONE")

    @registry.tasktype("OWNER")
    def owner(ctx):
        ctx.export_array("A", np.zeros((4, 4)))
        ctx.initiate("WORKER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        w = ctx.window("A")
        ctx.broadcast("WIN", w, cluster=1)
        res = ctx.accept("READY")
        ctx.window_write(w.shrink(rows=(0, 1)), np.full((1, 4), 9.0))
        ctx.send(res.sender, "GO")
        ctx.accept("DONE")
        return float(ctx.task.arrays.get("A")[0, 0])

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    r = vm.run("OWNER")
    assert r.value == 9.0               # refused write did NOT land
    assert r.stats.window_conflicts == 1


def test_if_unchanged_needs_cached_observation(make_vm, registry):
    @registry.tasktype("WORKER")
    def workertask(ctx):
        w = ctx.accept("WIN").args[0]
        with pytest.raises(WindowConflict):
            ctx.window_write(w, np.zeros(w.shape), if_unchanged=True)
        ctx.send(PARENT, "DONE")

    @registry.tasktype("OWNER")
    def owner(ctx):
        ctx.export_array("A", np.zeros((4, 4)))
        ctx.initiate("WORKER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("WIN", ctx.window("A"), cluster=1)
        ctx.accept("DONE")
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    assert vm.run("OWNER").value is True


def test_window_conflict_is_a_pisces_error():
    assert issubclass(WindowConflict, WindowError)
    assert issubclass(WindowConflict, PiscesError)


# ------------------------------------------------------ path identity --

PATHS_CONFIG = Configuration(clusters=(ClusterSpec(1, 3, 6),), name="id",
                             trace_events=("MSG_SEND", "MSG_ACCEPT"))


def test_three_paths_bit_identical_virtual_time(make_vm, monkeypatch):
    """reference, fast, and fast with the reader cache switched off
    (the bare transaction plane)."""
    from repro.apps.jacobi import run_jacobi_windows
    from repro.core.vm import PiscesVM

    def run(path):
        with oracle_leg(window_path=path):
            r = run_jacobi_windows(n=16, sweeps=3, n_workers=2,
                                   config=PATHS_CONFIG)
        r.vm.shutdown()
        return r

    runs = {"reference": run("reference"), "fast": run("fast")}
    with monkeypatch.context() as m:
        m.setattr(PiscesVM, "_requester_cache", lambda self, ctx: None)
        runs["uncached"] = run("fast")
    ref = runs["reference"]
    for path in ("uncached", "fast"):
        assert runs[path].elapsed == ref.elapsed
        assert np.array_equal(runs[path].grid, ref.grid)
        assert (runs[path].vm.stats.window_bytes_read
                == ref.vm.stats.window_bytes_read)
        lines = [e.line() for e in runs[path].vm.tracer.events]
        assert lines == [e.line() for e in ref.vm.tracer.events]
    # the reference path never uses the txn plane...
    assert ref.vm.stats.window_txns == 0
    # ... and the cache never moves more bytes than the bare plane
    assert (runs["fast"].vm.stats.window_bytes_moved
            <= runs["uncached"].vm.stats.window_bytes_moved)


# ------------------------------------------- keyword-only selectors --

def test_positional_region_in_ctx_window_rejected(make_vm, registry):
    @registry.tasktype("T")
    def t(ctx):
        ctx.export_array("A", np.zeros((4, 4)))
        with pytest.raises(TypeError):
            ctx.window("A", ((0, 2), (0, 4)))   # keyword-only now
        w = ctx.window("A", region=((0, 2), (0, 4)))
        assert w.shape == (2, 4)
        w2 = ctx.window("A", rows=(0, 2))
        assert w2.shape == (2, 4)
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    assert vm.run("T").value is True


def test_positional_region_in_file_window_for_rejected(make_vm, registry):
    @registry.tasktype("T")
    def t(ctx):
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    vm.export_file("F", np.zeros((6, 6)))
    with pytest.raises(TypeError):
        vm.file_controller.window_for("F", ((0, 3), (0, 6)))
    w = vm.file_controller.window_for("F", region=((0, 3), (0, 6)))
    assert w.shape == (3, 6)
    w2 = vm.file_controller.window_for("F", rows=(0, 3))
    assert w2.shape == (3, 6)
    vm.run("T")


def test_rows_cols_selectors_reject_bad_shapes(make_vm, registry):
    @registry.tasktype("T")
    def t(ctx):
        ctx.export_array("V", np.zeros(8))
        with pytest.raises(WindowError):
            ctx.window("V", cols=(0, 2))        # no cols on a vector
        ctx.export_array("A", np.zeros((4, 4)))
        with pytest.raises(WindowError):
            ctx.window("A", region=((0, 2),), rows=(0, 2))
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    assert vm.run("T").value is True


# --------------------------------------- concurrent file-window I/O --

def test_overlapping_file_rw_serializes(make_vm, registry):
    """Section 8's contract: concurrent file-window transfers that
    overlap (with a writer involved) must serialize; the read sees
    either the old or the new values, never a torn mix."""

    @registry.tasktype("FWRITER")
    def fwriter(ctx):
        w = ctx.file_window("F", rows=(0, 6))
        ctx.window_write(w, np.full((6, 8), 3.0))
        ctx.send(PARENT, "DONE", "w")

    @registry.tasktype("FREADER")
    def freader(ctx):
        w = ctx.file_window("F", rows=(2, 8))
        vals = np.asarray(ctx.window_read(w))
        ctx.send(PARENT, "DONE", "r", float(vals.min()),
                 float(vals.max()))

    @registry.tasktype("MAIN")
    def main(ctx):
        ctx.initiate("FWRITER", on=SAME)
        ctx.initiate("FREADER", on=SAME)
        res = ctx.accept("DONE", count=2)
        for m in res.messages:
            if m.args[0] == "r":
                lo, hi = m.args[1], m.args[2]
                # rows 2..6 are either all-old (0) or all-new (3):
                assert (lo, hi) in ((0.0, 0.0), (0.0, 3.0), (3.0, 3.0))
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    vm.export_file("F", np.zeros((8, 8)))
    vm.configure_file_disks(4, stripe_unit=64)
    r = vm.run("MAIN")
    assert r.value is True
    assert r.stats.window_overlap_waits >= 1


def test_disjoint_file_rw_proceeds_in_parallel(make_vm, registry):
    @registry.tasktype("FWORKER")
    def fworker(ctx, k):
        w = ctx.file_window("F", rows=(k * 4, k * 4 + 4))
        vals = ctx.window_read(w)
        ctx.window_write(w, np.asarray(vals) + 1.0)
        ctx.send(PARENT, "DONE")

    @registry.tasktype("MAIN")
    def main(ctx):
        for k in range(2):
            ctx.initiate("FWORKER", k, on=SAME)
        ctx.accept("DONE", count=2)
        return True

    vm = make_vm(config=ONE_CLUSTER, registry=registry)
    vm.export_file("F", np.zeros((8, 8)))
    vm.configure_file_disks(4, stripe_unit=64)
    r = vm.run("MAIN")
    assert r.value is True
    assert r.stats.window_overlap_waits == 0
    assert np.asarray(vm.file_controller.arrays.get("F")).sum() == 64.0
