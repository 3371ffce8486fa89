"""Causal-profiler overhead: zero virtual time, bounded wall time.

The profiler (see :mod:`repro.obs.profile`) is a pure observer on the
engine's observer list (``engine.observe``); this benchmark proves the
contract the subsystem is built on, per workload:

* **virtual identity** -- elapsed ticks, dispatch count *and the full
  trace-event stream* are bit-identical with profiling on and off, on
  every workload, unconditionally;
* **wall clock** -- profiling-on wall time is bounded at x1.15 on the
  ``large-grain`` workload, whose members do real numpy work per
  scheduling event (the grain PISCES targets; the access-dense micro
  workloads time hooks against zero-wall virtual compute and are
  reported, not bounded).

Sizes are FIXED (no smoke shrink): the committed
``BENCH_profile_overhead.json`` gate carries the virtual-tick
fingerprints, and CI regenerates and compares them with
``benchmarks/compare.py`` -- identical sizes are what make that
comparison meaningful.  ``PROFILE_BENCH_SMOKE=1`` only drops the
timing repetitions and skips the wall-clock assertion.
"""

from __future__ import annotations

import os
import time

from _bench_schema import make_record, write_bench
from test_races_overhead import build_grain_registry

from repro.api import make_vm
from repro.apps.jacobi import build_force_registry, build_windows_registry
from repro.apps.matmul import build_tasks_registry
from repro.core.tracing import TraceEventType

SMOKE = bool(os.environ.get("PROFILE_BENCH_SMOKE"))

#: Allowed profiling-on wall-clock overhead at large grain.
MAX_WALL_OVERHEAD = 1.15

REPS = 1 if SMOKE else 3

#: Fixed sizes -- the gate fingerprints depend on them.
N, SWEEPS = 16, 2
GRAIN_N, GRAIN_SWEEPS = 256, 2

_ALL_EVENTS = tuple(t.value for t in TraceEventType)

#: (name, tasktype, args, registry builder, vm kwargs, wall-bounded?)
WORKLOADS = [
    ("large-grain", "GRAIN", (),
     lambda: build_grain_registry(GRAIN_N, GRAIN_SWEEPS),
     dict(n_clusters=1, force_pes_per_cluster=3), True),
    ("jacobi-force", "JFORCE", (N, SWEEPS),
     lambda: build_force_registry(N, SWEEPS),
     dict(n_clusters=1, force_pes_per_cluster=3), False),
    ("jacobi-windows", "JMASTER", (),
     lambda: build_windows_registry(N, SWEEPS, 3), {}, False),
    ("matmul-tasks", "MMASTER", (),
     lambda: build_tasks_registry(N, 3), {}, False),
]


def _run(ttype, args, build, kw, profile):
    vm = make_vm(registry=build(), trace_events=_ALL_EVENTS, **kw)
    if profile:
        vm.enable_profiling()
    t0 = time.perf_counter()
    r = vm.run(ttype, *args)
    wall = time.perf_counter() - t0
    fp = (int(r.elapsed), int(vm.engine.dispatch_count),
          [e.line() for e in vm.tracer.events])
    return wall, fp, vm


def _timed(fn):
    best = None
    out = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, out


def test_profiling_charges_no_virtual_time(report):
    rows = []
    virtual = {}
    ratios = {}
    walls = {}
    report("causal-profiler overhead: virtual time and trace stream "
           "identical on every workload;")
    report(f"profiling wall < x{MAX_WALL_OVERHEAD} at large grain "
           f"(best of {REPS})")
    header = (f"{'workload':<16} {'vtime':>9} {'disp':>6} {'slices':>7} "
              f"{'base_s':>8} {'prof_s':>8} {'ratio':>6} {'wall bound':>11}")
    report(header)
    report("-" * len(header))

    for name, ttype, args, build, kw, bounded in WORKLOADS:
        base_wall, (_, base_fp, base_vm) = _timed(
            lambda: _run(ttype, args, build, kw, profile=False))
        base_vm.shutdown()

        prof_wall, (_, prof_fp, prof_vm) = _timed(
            lambda: _run(ttype, args, build, kw, profile=True))

        # The contract, in full: elapsed ticks, dispatch count and the
        # complete trace stream, bit for bit.
        assert prof_fp[0] == base_fp[0], (
            f"{name}: profiling changed elapsed virtual time "
            f"{base_fp[0]} -> {prof_fp[0]}")
        assert prof_fp[1] == base_fp[1], (
            f"{name}: profiling changed the dispatch count")
        assert prof_fp[2] == base_fp[2], (
            f"{name}: profiling perturbed the trace stream")

        prof = prof_vm.profiler
        n_slices = len(prof.slices())
        acct = prof.accounting()
        # The attribution must cover the run: recorded work equals the
        # per-PE busy ticks the accounting rolls up.
        assert sum(acct.busy_by_pe.values()) == prof.total_work()
        prof_vm.shutdown()

        ratio = prof_wall / base_wall if base_wall > 0 else 1.0
        virtual[name] = base_fp[0]
        walls[name] = base_wall
        if bounded:
            ratios[name] = ratio
        rows.append({
            "workload": name, "virtual_elapsed": base_fp[0],
            "dispatches": base_fp[1], "slices": n_slices,
            "trace_events": len(base_fp[2]),
            "wall_s": {"baseline": round(base_wall, 4),
                       "profiled": round(prof_wall, 4)},
            "profile_ratio": round(ratio, 3),
            "wall_bounded": bounded,
            "wait_ticks": acct.total_wait_ticks,
        })
        bound = f"x{MAX_WALL_OVERHEAD}" if bounded else "reported"
        report(f"{name:<16} {base_fp[0]:>9} {base_fp[1]:>6} {n_slices:>7} "
               f"{base_wall:>8.4f} {prof_wall:>8.4f} {ratio:>6.3f} "
               f"{bound:>11}")
        if bounded and not SMOKE:
            assert ratio <= MAX_WALL_OVERHEAD, (
                f"{name}: profiling wall overhead x{ratio:.3f} "
                f"(> x{MAX_WALL_OVERHEAD})")

    out = write_bench(make_record(
        "profile_overhead", smoke=SMOKE,
        virtual=virtual, wall_ratios=ratios, wall_seconds=walls,
        max_wall_overhead=MAX_WALL_OVERHEAD,
        wall_checked=not SMOKE, reps=REPS, workloads=rows))
    report(f"\nwritten: {out.name}")
