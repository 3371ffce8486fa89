"""Ablation A2: windows vs eager data shipping (section 8).

"In such a setting, it is undesirable to have the array elements
actually flow into and out of the partitioning tasks, because no
processing is done in these tasks. ... The array values only need be
transmitted once, to the task assigned the actual processing of the
data."

Both variants run the same two-level partitioning tree (owner ->
partitioner -> 4 leaves) over an NxN array:

* WINDOWS: the partitioner receives one window (32 bytes), shrinks it
  four ways, forwards windows; leaves window-read their block.
* EAGER: the owner sends the whole array to the partitioner, which
  slices it and re-sends the pieces -- bytes flow through the middle.

Measured: total array bytes moved, and the partitioning task's share.

The data-plane half of the ablation (``test_jacobi_tree_dataplane``,
``test_matmul_tree_dataplane``) runs the same partitioning-tree shapes
for many sweeps/rounds under the two window data-plane paths
(``reference`` / ``fast``) plus an eager-shipping
variant, and writes ``BENCH_windows_dataplane.json`` at the repo root:

* bytes forwarded *through* the partitioning task: eager vs windows
  (the paper's claim -- must be at least 2x lower with windows);
* host wall-clock: cached fast path vs the per-row reference path
  (must be at least 30% faster on the Jacobi tree);
* determinism: both paths must agree bit-identically in virtual time
  (elapsed ticks and the full trace-event stream) -- the reference
  path is the oracle, ``tests.oracles.oracle_leg(window_path=...)``.

``WINDOWS_BENCH_SMOKE=1`` shrinks the workloads and relaxes the
wall-clock assertion (CI smoke boxes have noisy clocks).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config.configuration import ClusterSpec, Configuration
from repro.core.task import TaskRegistry
from repro.core.taskid import PARENT, SAME
from repro.core.vm import PiscesVM
from repro.flex.presets import nasa_langley_flex32
from repro.util.tables import format_table
from tests.oracles import oracle_leg

N = 32          # array is N x N float64 = 8192 bytes
LEAVES = 4

SMOKE = bool(os.environ.get("WINDOWS_BENCH_SMOKE"))
BENCH_PATH = (Path(__file__).resolve().parent.parent
              / "BENCH_windows_dataplane.json")

# Jacobi-tree workload (the data-plane stressor): every leaf re-reads
# its G halo block and its (read-only) K coefficient block each sweep.
JN = 64 if SMOKE else 256
JSWEEPS = 3 if SMOKE else 8
JLEAVES = 4
# Matmul-tree workload: leaves re-read A-block and all of B each round.
MN = 32 if SMOKE else 96
MROUNDS = 2 if SMOKE else 4
MLEAVES = 4

#: Required margins (relaxed under smoke).
MIN_THROUGH_REDUCTION = 2.0
MIN_CACHED_WALL_WIN = 0.0 if SMOKE else 0.30

TRACE = ("TASK_INIT", "TASK_TERM", "MSG_SEND", "MSG_ACCEPT")


def run_windows():
    reg = TaskRegistry()

    @reg.tasktype("LEAF")
    def leaf(ctx, k):
        ctx.send(PARENT, "HELLO", k)
        w = ctx.accept("WIN").args[0]
        block = ctx.window_read(w)
        ctx.send(PARENT, "SUM", float(np.asarray(block).sum()))

    @reg.tasktype("PARTITIONER")
    def partitioner(ctx):
        w = ctx.accept("WIN").args[0]
        parts = w.split(LEAVES, axis=0)
        for k in range(LEAVES):
            ctx.initiate("LEAF", k, on=SAME)
        who = {}
        for _ in range(LEAVES):
            r = ctx.accept("HELLO")
            who[r.args[0]] = r.sender
        for k in range(LEAVES):
            ctx.send(who[k], "WIN", parts[k])
        total = sum(ctx.accept("SUM").args[0] for _ in range(LEAVES))
        ctx.send(PARENT, "TOTAL", total)

    @reg.tasktype("OWNER")
    def owner(ctx):
        a = np.arange(float(N * N)).reshape(N, N)
        ctx.export_array("A", a)
        ctx.initiate("PARTITIONER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)   # let it start
        ctx.broadcast("WIN", ctx.window("A"), cluster=1)
        return ctx.accept("TOTAL").args[0]

    cfg = Configuration(clusters=(ClusterSpec(1, 3, 8),), name="win")
    vm = PiscesVM(cfg, registry=reg, machine=nasa_langley_flex32())
    r = vm.run("OWNER")
    array_bytes_moved = r.stats.window_bytes_read + r.stats.window_bytes_written
    return r.value, array_bytes_moved, 0, r.elapsed


def run_eager():
    reg = TaskRegistry()
    through_partitioner = {"bytes": 0}

    @reg.tasktype("LEAF")
    def leaf(ctx, k):
        ctx.send(PARENT, "HELLO", k)
        block = ctx.accept("DATA").args[0]
        ctx.send(PARENT, "SUM", float(block.sum()))

    @reg.tasktype("PARTITIONER")
    def partitioner(ctx):
        a = ctx.accept("DATA").args[0]          # whole array flows IN
        through_partitioner["bytes"] += a.nbytes
        blocks = np.array_split(a, LEAVES, axis=0)
        for k in range(LEAVES):
            ctx.initiate("LEAF", k, on=SAME)
        who = {}
        for _ in range(LEAVES):
            r = ctx.accept("HELLO")
            who[r.args[0]] = r.sender
        for k in range(LEAVES):
            ctx.send(who[k], "DATA", blocks[k])  # ... and OUT again
            through_partitioner["bytes"] += blocks[k].nbytes
        total = sum(ctx.accept("SUM").args[0] for _ in range(LEAVES))
        ctx.send(PARENT, "TOTAL", total)

    @reg.tasktype("OWNER")
    def owner(ctx):
        a = np.arange(float(N * N)).reshape(N, N)
        ctx.initiate("PARTITIONER", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("DATA", a, cluster=1)
        return ctx.accept("TOTAL").args[0]

    cfg = Configuration(clusters=(ClusterSpec(1, 3, 8),), name="eager")
    vm = PiscesVM(cfg, registry=reg, machine=nasa_langley_flex32())
    r = vm.run("OWNER")
    # array payload bytes: owner->partitioner + partitioner->leaves
    array_bytes_moved = N * N * 8 * 2
    return (r.value, array_bytes_moved,
            through_partitioner["bytes"], r.elapsed)


def test_windows_vs_eager(benchmark, report):
    results = benchmark.pedantic(
        lambda: (run_windows(), run_eager()), rounds=1, iterations=1)
    (w_total, w_moved, w_through, w_elapsed) = results[0]
    (e_total, e_moved, e_through, e_elapsed) = results[1]
    expect = float(np.arange(float(N * N)).sum())
    assert w_total == e_total == expect   # same answer both ways

    array_bytes = N * N * 8
    rows = [
        ["windows", w_moved, w_through, w_elapsed],
        ["eager", e_moved, e_through, e_elapsed],
    ]
    report(format_table(
        ["variant", "array bytes moved", "bytes through partitioner",
         "elapsed"],
        rows, title=f"A2: WINDOWS vs EAGER ({N}x{N} f8 array = "
                    f"{array_bytes} bytes, {LEAVES} leaves)"))

    # The paper's claim, quantified:
    assert w_moved == array_bytes          # moved exactly once
    assert w_through == 0                  # nothing flows through the middle
    assert e_moved == 2 * array_bytes      # in and out again
    assert e_through == 2 * array_bytes
    report("")
    report(f"windows move the array exactly once ({w_moved} bytes); "
           f"eager shipping moves it {e_moved // array_bytes}x")


# ------------------------------------------------------- data plane --

def _tree_config(name, traced=False):
    return Configuration(
        clusters=(ClusterSpec(1, 3, 8),), name=name,
        trace_events=TRACE if traced else ())


def build_jacobi_tree(n, leaves, sweeps):
    """Owner -> partitioner -> leaves, windows style: leaves re-read
    their G halo block and read-only K block every sweep."""
    reg = TaskRegistry()

    @reg.tasktype("LEAF")
    def leaf(ctx, k):
        ctx.send(PARENT, "HELLO", k)
        m = ctx.accept("WIN")
        wg, wk = m.args
        for _ in range(sweeps):
            g = np.asarray(ctx.window_read(wg))
            c = np.asarray(ctx.window_read(wk))
            rows = g.shape[0]
            new = g.copy()
            new[1:-1, 1:-1] = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1]
                                      + g[1:-1, :-2] + g[1:-1, 2:])
            new[1:-1, 1:-1] *= c[1:-1, 1:-1]
            ctx.compute((rows - 2) * (n - 2))
            ctx.window_write(wg.shrink(rows=(1, rows - 1)), new[1:-1])
            ctx.send(PARENT, "SWEPT", k)
            ctx.accept("GO", delay=10 ** 9)
        ctx.send(PARENT, "DONE", k)

    @reg.tasktype("PART")
    def part(ctx):
        m = ctx.accept("WIN")
        wg, wk = m.args
        cuts = np.array_split(np.arange(1, n - 1), leaves)
        for k in range(leaves):
            ctx.initiate("LEAF", k, on=SAME)
        who = {}
        for _ in range(leaves):
            r = ctx.accept("HELLO")
            who[r.args[0]] = r.sender
        for k, rows in enumerate(cuts):
            lo, hi = rows[0] - 1, rows[-1] + 2
            ctx.send(who[k], "WIN",
                     wg.shrink(rows=(lo, hi)), wk.shrink(rows=(lo, hi)))
        for _ in range(sweeps):
            ctx.accept("SWEPT", count=leaves, delay=10 ** 9)
            for k in range(leaves):
                ctx.send(who[k], "GO")
        ctx.accept("DONE", count=leaves, delay=10 ** 9)
        ctx.send(PARENT, "TOTAL", 1.0)

    @reg.tasktype("OWNER")
    def owner(ctx):
        g = np.zeros((n, n))
        g[0, :] = g[-1, :] = g[:, 0] = g[:, -1] = 100.0
        kk = np.ones((n, n))
        ctx.export_array("G", g)
        ctx.export_array("K", kk)
        ctx.initiate("PART", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("WIN", ctx.window("G"), ctx.window("K"), cluster=1)
        ctx.accept("TOTAL", delay=10 ** 9)
        return float(g.sum())

    return reg


def build_jacobi_eager(n, leaves, sweeps, through):
    """The same tree, eager style: G and K blocks flow through the
    partitioner every sweep, updated interiors flow back through it."""
    reg = TaskRegistry()

    @reg.tasktype("LEAF")
    def leaf(ctx, k):
        ctx.send(PARENT, "HELLO", k)
        for _ in range(sweeps):
            m = ctx.accept("BLOCK", delay=10 ** 9)
            g, c = m.args
            rows = g.shape[0]
            new = g.copy()
            new[1:-1, 1:-1] = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1]
                                      + g[1:-1, :-2] + g[1:-1, 2:])
            new[1:-1, 1:-1] *= c[1:-1, 1:-1]
            ctx.compute((rows - 2) * (n - 2))
            ctx.send(PARENT, "SWEPT", k, new[1:-1])
        ctx.send(PARENT, "DONE", k)

    @reg.tasktype("PART")
    def part(ctx):
        m = ctx.accept("DATA")
        g, kk = m.args
        through["bytes"] += g.nbytes + kk.nbytes
        cuts = np.array_split(np.arange(1, n - 1), leaves)
        for k in range(leaves):
            ctx.initiate("LEAF", k, on=SAME)
        who = {}
        for _ in range(leaves):
            r = ctx.accept("HELLO")
            who[r.args[0]] = r.sender
        spans = [(rows[0] - 1, rows[-1] + 2) for rows in cuts]
        for _ in range(sweeps):
            for k, (lo, hi) in enumerate(spans):
                gb, cb = g[lo:hi], kk[lo:hi]
                through["bytes"] += gb.nbytes + cb.nbytes
                ctx.send(who[k], "BLOCK", gb, cb)
            res = ctx.accept("SWEPT", count=leaves, delay=10 ** 9)
            for msg in res.messages:
                k, interior = msg.args
                lo, hi = spans[k]
                through["bytes"] += interior.nbytes
                g[lo + 1:hi - 1] = interior
        ctx.accept("DONE", count=leaves, delay=10 ** 9)
        ctx.send(PARENT, "TOTAL", g)

    @reg.tasktype("OWNER")
    def owner(ctx):
        g = np.zeros((n, n))
        g[0, :] = g[-1, :] = g[:, 0] = g[:, -1] = 100.0
        kk = np.ones((n, n))
        ctx.initiate("PART", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("DATA", g, kk, cluster=1)
        final = ctx.accept("TOTAL").args[0]
        return float(final.sum())

    return reg


def build_matmul_tree(n, leaves, rounds):
    """C = A @ B by row blocks of A; every leaf re-reads its A block
    and ALL of B each round (B never changes -> pure cache-hit upside)."""
    reg = TaskRegistry()

    @reg.tasktype("MLEAF")
    def mleaf(ctx, k):
        ctx.send(PARENT, "HELLO", k)
        m = ctx.accept("WIN")
        wa, wb = m.args
        acc = None
        for _ in range(rounds):
            a = np.asarray(ctx.window_read(wa))
            b = np.asarray(ctx.window_read(wb))
            c = a @ b
            ctx.compute(a.shape[0] * n * n)
            acc = c if acc is None else acc + c
        ctx.send(PARENT, "BLOCKC", k, acc)

    @reg.tasktype("MPART")
    def mpart(ctx):
        m = ctx.accept("WIN")
        wa, wb = m.args
        parts = wa.split(leaves, axis=0)
        for k in range(leaves):
            ctx.initiate("MLEAF", k, on=SAME)
        who = {}
        for _ in range(leaves):
            r = ctx.accept("HELLO")
            who[r.args[0]] = r.sender
        for k in range(leaves):
            ctx.send(who[k], "WIN", parts[k], wb)
        res = ctx.accept("BLOCKC", count=leaves, delay=10 ** 9)
        blocks = dict((msg.args[0], msg.args[1]) for msg in res.messages)
        c = np.vstack([blocks[k] for k in range(leaves)])
        ctx.send(PARENT, "RESULT", c)

    @reg.tasktype("MOWNER")
    def mowner(ctx):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        ctx.export_array("A", a)
        ctx.export_array("B", b)
        ctx.initiate("MPART", on=SAME)
        ctx.accept("X", delay=2000, timeout_ok=True)
        ctx.broadcast("WIN", ctx.window("A"), ctx.window("B"), cluster=1)
        c = ctx.accept("RESULT", delay=10 ** 9).args[0]
        expect = sum((a @ b) for _ in range(rounds))
        assert np.allclose(c, expect)
        return float(np.abs(c).sum())

    return reg


def _run_tree(build, args, path, root="OWNER", traced=False):
    with oracle_leg(window_path=path):
        vm = PiscesVM(_tree_config(f"tree-{path}", traced=traced),
                      registry=build(*args), machine=nasa_langley_flex32())
        t0 = time.perf_counter()
        r = vm.run(root)
        wall = time.perf_counter() - t0
    trace = [e.line() for e in vm.tracer.events] if traced else None
    return r, wall, trace


def _path_record(r, wall):
    st = r.stats
    return {
        "wall_ms": round(wall * 1000, 2),
        "elapsed_ticks": int(r.elapsed),
        "bytes_requested": int(st.window_bytes_read
                               + st.window_bytes_written),
        "bytes_moved": int(st.window_bytes_moved),
        "txns": int(st.window_txns),
        "cache_hits": int(st.window_cache_hits),
        "cache_misses": int(st.window_cache_misses),
        "value": float(r.value),
    }


def _merge_bench(key, doc_part):
    """Merge one section into BENCH_windows_dataplane.json (two tests
    contribute; either may run alone), rebuilding the shared gate
    section (see _bench_schema) from every section present."""
    from _bench_schema import make_record, write_bench

    sections = {}
    if BENCH_PATH.exists():
        try:
            old = json.loads(BENCH_PATH.read_text())
            sections = {k: v for k, v in old.items()
                        if isinstance(v, dict) and "paths" in v}
        except ValueError:
            sections = {}
    sections[key] = doc_part
    virtual = {}
    ratios = {}
    walls = {}
    for name, part in sorted(sections.items()):
        paths = part["paths"]
        ref_wall = paths.get("reference", {}).get("wall_ms", 0)
        for path, rec in sorted(paths.items()):
            virtual[f"{name}/{path}"] = rec["elapsed_ticks"]
            walls[f"{name}/{path}"] = rec["wall_ms"] / 1000.0
            if path != "reference" and ref_wall:
                # Lower is better: the optimized path's share of the
                # reference data-plane's wall time.
                ratios[f"{name}/{path}"] = rec["wall_ms"] / ref_wall
    write_bench(make_record(
        "windows_dataplane", smoke=SMOKE,
        virtual=virtual, wall_ratios=ratios, wall_seconds=walls,
        **sections), BENCH_PATH)


def test_jacobi_tree_dataplane(report):
    args = (JN, JLEAVES, JSWEEPS)
    results = {}
    traces = {}
    for path in ("reference", "fast"):
        r, wall, trace = _run_tree(build_jacobi_tree, args, path,
                                   traced=True)
        results[path] = _path_record(r, wall)
        traces[path] = trace

    through = {"bytes": 0}
    vm = PiscesVM(_tree_config("tree-eager"),
                  registry=build_jacobi_eager(*args, through),
                  machine=nasa_langley_flex32())
    t0 = time.perf_counter()
    re_ = vm.run("OWNER")
    eager_wall = time.perf_counter() - t0
    eager = {"wall_ms": round(eager_wall * 1000, 2),
             "elapsed_ticks": int(re_.elapsed),
             "through_partitioner_bytes": int(through["bytes"]),
             "value": float(re_.value)}

    # Same physics both styles.
    assert results["fast"]["value"] == pytest.approx(eager["value"])

    # Determinism: the fast path must be bit-identical to the per-row
    # reference oracle in virtual time AND trace stream.
    assert (results["fast"]["elapsed_ticks"]
            == results["reference"]["elapsed_ticks"])
    assert traces["fast"] == traces["reference"]
    assert (results["fast"]["bytes_requested"]
            == results["reference"]["bytes_requested"])

    # The paper's claim: windows keep array bytes out of the
    # partitioning task (only 32-byte window values flow through it).
    win_through = 2 * JLEAVES * 32          # two windows per leaf
    reduction = through["bytes"] / max(1, win_through)
    assert reduction >= MIN_THROUGH_REDUCTION

    # Caching pays on the host clock: fast (cached) vs reference
    # (per-row messages) on identical virtual-time schedules.
    ref_wall = results["reference"]["wall_ms"]
    fast_wall = results["fast"]["wall_ms"]
    win = 1.0 - fast_wall / ref_wall
    if MIN_CACHED_WALL_WIN:
        assert win >= MIN_CACHED_WALL_WIN
    # And the cache actually engages: K is read-only, so every re-read
    # after the first sweep hits.
    assert results["fast"]["cache_hits"] >= JLEAVES * (JSWEEPS - 1)
    assert (results["fast"]["bytes_moved"]
            < results["reference"]["bytes_moved"])

    doc = {"n": JN, "leaves": JLEAVES, "sweeps": JSWEEPS,
           "paths": results, "eager": eager,
           "through_partitioner_reduction_x": round(reduction, 1),
           "cached_vs_reference_wall_win": round(win, 3),
           "trace_identical": True}
    _merge_bench("jacobi_tree", doc)

    rows = [[p, d["wall_ms"], d["elapsed_ticks"], d["bytes_moved"],
             f"{d['cache_hits']}/{d['cache_misses']}"]
            for p, d in results.items()]
    rows.append(["eager", eager["wall_ms"], eager["elapsed_ticks"],
                 through["bytes"], "-"])
    report(format_table(
        ["path", "wall ms", "elapsed", "bytes moved", "hits/misses"],
        rows, title=f"JACOBI TREE {JN}x{JN}, {JLEAVES} leaves, "
                    f"{JSWEEPS} sweeps"))
    report(f"\nbytes through partitioner: eager {through['bytes']} vs "
           f"windows {win_through} ({reduction:.0f}x less)")
    report(f"cached fast path wall-clock win over reference: "
           f"{100 * win:.0f}%")
    report(f"written: {BENCH_PATH.name}")


def test_matmul_tree_dataplane(report):
    args = (MN, MLEAVES, MROUNDS)
    results = {}
    for path in ("reference", "fast"):
        r, wall, _ = _run_tree(build_matmul_tree, args, path,
                               root="MOWNER")
        results[path] = _path_record(r, wall)

    assert (results["fast"]["elapsed_ticks"]
            == results["reference"]["elapsed_ticks"])
    assert results["fast"]["value"] == pytest.approx(
        results["reference"]["value"])

    # B is re-read every round and never written: all re-reads hit.
    assert results["fast"]["cache_hits"] >= MLEAVES * (MROUNDS - 1)
    b_bytes = MN * MN * 8
    saved = (results["reference"]["bytes_moved"]
             - results["fast"]["bytes_moved"])
    assert saved >= MLEAVES * (MROUNDS - 1) * b_bytes

    doc = {"n": MN, "leaves": MLEAVES, "rounds": MROUNDS,
           "paths": results,
           "bytes_saved_by_cache": saved}
    _merge_bench("matmul_tree", doc)

    rows = [[p, d["wall_ms"], d["elapsed_ticks"], d["bytes_moved"],
             f"{d['cache_hits']}/{d['cache_misses']}"]
            for p, d in results.items()]
    report(format_table(
        ["path", "wall ms", "elapsed", "bytes moved", "hits/misses"],
        rows, title=f"MATMUL TREE {MN}x{MN}, {MLEAVES} leaves, "
                    f"{MROUNDS} rounds"))
    report(f"\ncache saves {saved} bytes of B traffic "
           f"({saved // b_bytes}x the {b_bytes}-byte B array)")
    report(f"written: {BENCH_PATH.name}")
