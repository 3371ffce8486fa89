"""Wall-clock throughput of the scheduler/messaging fast path.

The repo's perf trajectory point for the engine (``BENCH_*.json``):
for each workload and size, run the program once on the engine (the
single-threaded discrete-event loop with the two-level heap picker),
measure dispatches/second and end-to-end wall time, and write
``BENCH_engine_throughput.json`` at the repo root.  The virtual times
and dispatch counts go into the record's ``gate.virtual`` section, the
determinism contract ``benchmarks/compare.py`` holds every later run
to.

Sizes shrink when ``ENGINE_BENCH_SMOKE`` is set (the CI smoke job);
smoke gate keys carry an ``@smoke`` suffix so the committed full-size
record can also carry the smoke-size virtual expectations -- that way
the CI smoke run still gets an exact virtual-time gate against the
committed baseline even though its wall times are not comparable.

Gate on a full-size run: ``sched_stress/large`` must reach >= 10x the
dispatch rate the thread-per-process engine recorded before the
cooperative loop replaced it (16,414/s).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from _bench_schema import make_record, write_bench

from repro.apps.jacobi import run_jacobi_windows
from repro.apps.matmul import run_matmul_tasks
from repro.apps.pipeline import run_pipeline
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.accept import ALL_RECEIVED
from repro.core.task import TaskRegistry
from repro.core.taskid import ANY, PARENT
from repro.core.vm import PiscesVM
from repro.flex.presets import small_flex
from repro.mmos.process import co_block, co_charge, co_preempt
from repro.mmos.scheduler import Engine

SMOKE = bool(os.environ.get("ENGINE_BENCH_SMOKE"))
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine_throughput.json"

#: The committed thread-per-process rate on sched_stress/large before
#: the cooperative loop landed (BENCH_engine_throughput.json, PRs 2-6).
#: The acceptance bar is 10x this number.
BASELINE_THREADED_DPS = 16_414.2
MIN_COOP_VS_BASELINE = 10.0


# ------------------------------------------------------------- workloads --

def sched_stress(n_procs: int, switches: int, n_pes: int = 8):
    """Pure engine churn: ``n_procs`` coroutine processes on ``n_pes``
    PEs, each cycling charge/preempt with a periodic deadline nap (the
    heap re-key path)."""
    eng = Engine(small_flex(n_pes))
    pes = sorted(eng.machine.pes)

    def body():
        for i in range(switches):
            yield co_charge(3)
            yield co_preempt(2)
            if i % 5 == 4:
                yield co_block("nap", deadline=eng.now() + 7)

    for k in range(n_procs):
        eng.spawn(f"w{k}", pes[k % len(pes)], body)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    dispatches, elapsed = eng.dispatch_count, eng.machine.elapsed()
    eng.shutdown()
    return wall, dispatches, elapsed


def build_backlog_registry(flooders: int, rounds: int,
                           backlog: int) -> TaskRegistry:
    """The section-13 hazard at fan-in: ``flooders`` senders pile LOG
    messages up unaccepted while the receiver repeatedly ACCEPTs a
    different type (GO)."""
    reg = TaskRegistry()

    @reg.tasktype("FLOOD")
    def flood(ctx):
        for _ in range(rounds):
            for i in range(backlog):
                ctx.send(PARENT, "LOG", i)
            ctx.send(PARENT, "GO")

    @reg.tasktype("BMAIN")
    def bmain(ctx):
        for _ in range(flooders):
            ctx.initiate("FLOOD", on=ANY)
        for _ in range(rounds * flooders):
            ctx.accept("GO")         # must skip the growing LOG backlog
        drained = ctx.accept(("LOG", ALL_RECEIVED))
        return drained.count

    return reg


def inqueue_backlog(flooders: int, rounds: int, backlog: int,
                    trials: int = 1):
    """Best-of-``trials`` wall time for the fan-in backlog program."""
    best = None
    for _ in range(trials):
        reg = build_backlog_registry(flooders, rounds, backlog)
        config = Configuration(
            clusters=(ClusterSpec(1, 3, 8), ClusterSpec(2, 4, 8),
                      ClusterSpec(3, 5, 8)),
            name="inqueue-backlog")
        vm = PiscesVM(config, registry=reg)
        t0 = time.perf_counter()
        r = vm.run("BMAIN")
        wall = time.perf_counter() - t0
        assert r.value == flooders * rounds * backlog, \
            "backlog drain lost messages"
        dispatches, elapsed = vm.engine.dispatch_count, r.elapsed
        vm.shutdown()
        if best is None or wall < best[0]:
            best = (wall, dispatches, elapsed)
    return best


def build_task_runtime_registry(n_workers: int, rounds: int) -> TaskRegistry:
    """Whole-application dispatch stress: ``n_workers`` coroutine tasks
    each cycle ``rounds`` unit computes (one engine dispatch per round,
    through ``TaskContext`` and the KernelOp seam), then report DONE to
    a master blocked in a counted ACCEPT.  The compute loop dominates,
    so dispatches/second here measures the *task runtime's* per-slice
    cost -- the app-level counterpart of ``sched_stress``."""
    reg = TaskRegistry()

    @reg.tasktype("TRWORKER")
    def trworker(ctx, k):
        for _ in range(rounds):
            yield from ctx.compute(1)
        ctx.send(PARENT, "DONE", k)

    @reg.tasktype("TRMASTER")
    def trmaster(ctx):
        for k in range(n_workers):
            ctx.initiate("TRWORKER", k, on=ANY)
        res = yield from ctx.accept("DONE", count=n_workers)
        return res.count

    return reg


def task_runtime(n_workers: int, rounds: int, trials: int = 1):
    """Best-of-``trials`` wall time for the task-runtime stress app."""
    best = None
    for _ in range(trials):
        reg = build_task_runtime_registry(n_workers, rounds)
        config = Configuration(
            clusters=(ClusterSpec(1, 3, 16), ClusterSpec(2, 4, 16)),
            name="task-runtime")
        vm = PiscesVM(config, registry=reg)
        t0 = time.perf_counter()
        r = vm.run("TRMASTER")
        wall = time.perf_counter() - t0
        assert r.value == n_workers, "task_runtime lost workers"
        dispatches, elapsed = vm.engine.dispatch_count, r.elapsed
        vm.shutdown()
        if best is None or wall < best[0]:
            best = (wall, dispatches, elapsed)
    return best


def app_workload(fn):
    """Run one app; (wall, dispatches, virtual time)."""
    t0 = time.perf_counter()
    r = fn()
    wall = time.perf_counter() - t0
    dispatches = r.vm.engine.dispatch_count
    elapsed = int(r.elapsed)
    r.vm.shutdown()
    return wall, dispatches, elapsed


def _matrix(smoke: bool):
    """Entries: (workload, size, runner(), params)."""
    if smoke:
        stress_small, stress_large = (10, 8), (40, 12)
        stress_xl = (96, 4, 10)        # n_procs, switches, n_pes
        jac_small, jac_large = (8, 2, 3), (12, 2, 6)
        mm_small, mm_large = (8, 3), (12, 6)
        pipe_small, pipe_large = (3, 8), (5, 20)
        back_small, back_large = (3, 3, 10), (4, 4, 25)
        tr_small, tr_stress = (4, 20), (6, 40)
        trials = 1
    else:
        stress_small, stress_large = (24, 15), (120, 30)
        stress_xl = (1024, 10, 66)     # 1024 procs across 64 MMOS PEs
        jac_small, jac_large = (12, 2, 4), (24, 4, 10)
        mm_small, mm_large = (10, 4), (24, 10)
        pipe_small, pipe_large = (3, 12), (8, 48)
        back_small, back_large = (6, 4, 12), (16, 8, 30)
        tr_small, tr_stress = (12, 200), (24, 1000)
        trials = 3
    return [
        ("sched_stress", "small", lambda: sched_stress(*stress_small),
         {"n_procs": stress_small[0]}),
        ("sched_stress", "large", lambda: sched_stress(*stress_large),
         {"n_procs": stress_large[0]}),
        ("sched_stress_xl", "xl",
         lambda: sched_stress(stress_xl[0], stress_xl[1],
                              n_pes=stress_xl[2]),
         {"n_procs": stress_xl[0], "n_pes": stress_xl[2] - 2}),
        ("jacobi_windows", "small",
         lambda: app_workload(lambda: run_jacobi_windows(
             n=jac_small[0], sweeps=jac_small[1], n_workers=jac_small[2])),
         {"n": jac_small[0], "workers": jac_small[2]}),
        ("jacobi_windows", "large",
         lambda: app_workload(lambda: run_jacobi_windows(
             n=jac_large[0], sweeps=jac_large[1], n_workers=jac_large[2])),
         {"n": jac_large[0], "workers": jac_large[2]}),
        ("matmul_tasks", "small",
         lambda: app_workload(lambda: run_matmul_tasks(
             n=mm_small[0], n_workers=mm_small[1])),
         {"n": mm_small[0], "workers": mm_small[1]}),
        ("matmul_tasks", "large",
         lambda: app_workload(lambda: run_matmul_tasks(
             n=mm_large[0], n_workers=mm_large[1])),
         {"n": mm_large[0], "workers": mm_large[1]}),
        ("pipeline", "small",
         lambda: app_workload(lambda: run_pipeline(
             n_stages=pipe_small[0], items=list(range(pipe_small[1])))),
         {"stages": pipe_small[0], "items": pipe_small[1]}),
        ("pipeline", "large",
         lambda: app_workload(lambda: run_pipeline(
             n_stages=pipe_large[0], items=list(range(pipe_large[1])),
             slots=8)),
         {"stages": pipe_large[0], "items": pipe_large[1]}),
        ("task_runtime", "small", lambda: task_runtime(*tr_small),
         {"workers": tr_small[0], "rounds": tr_small[1]}),
        ("task_runtime", "stress",
         lambda: task_runtime(*tr_stress, trials=trials),
         {"workers": tr_stress[0], "rounds": tr_stress[1]}),
        ("inqueue_backlog", "small", lambda: inqueue_backlog(*back_small),
         {"flooders": back_small[0], "rounds": back_small[1],
          "backlog": back_small[2]}),
        ("inqueue_backlog", "large",
         lambda: inqueue_backlog(*back_large, trials=trials),
         {"flooders": back_large[0], "rounds": back_large[1],
          "backlog": back_large[2]}),
    ]


def _run_matrix(smoke: bool, suffix: str):
    """Run one size matrix; returns (rows, virtual, walls)."""
    rows, virtual, walls = [], {}, {}
    for workload, size, runner, params in _matrix(smoke):
        key = f"{workload}/{size}{suffix}"
        wall, n_disp, vt = runner()
        rows.append({
            "workload": workload, "size": size + suffix, "params": params,
            "dispatches": n_disp, "virtual_elapsed": vt,
            "wall_s": round(wall, 4),
            "dispatches_per_s": round(n_disp / wall, 1) if wall > 0 else None,
        })
        virtual[key] = vt
        walls[key] = wall
    return rows, virtual, walls


# ------------------------------------------------------------ the bench --

def test_engine_throughput(report):
    suffix = "@smoke" if SMOKE else ""
    rows, virtual, walls = _run_matrix(SMOKE, suffix)
    if not SMOKE:
        # Stamp the smoke-size virtual expectations into the committed
        # record too, so the CI smoke run keeps an exact determinism
        # gate against this baseline.
        virtual.update(_run_matrix(True, "@smoke")[1])

    write_bench(make_record(
        "engine_throughput", smoke=SMOKE,
        virtual=virtual, wall_seconds=walls,
        baseline_threaded_dps=BASELINE_THREADED_DPS,
        min_coop_vs_baseline=MIN_COOP_VS_BASELINE,
        workloads=rows), BENCH_PATH)

    header = (f"{'workload':<16} {'size':<12} {'disp':>6} {'vtime':>8} "
              f"{'wall s':>8} {'dispatch /s':>12}")
    report("engine throughput per workload")
    report(header)
    report("-" * len(header))
    for r in rows:
        report(f"{r['workload']:<16} {r['size']:<12} {r['dispatches']:>6} "
               f"{r['virtual_elapsed']:>8} {r['wall_s']:>8.4f} "
               f"{r['dispatches_per_s']:>12,.0f}")
    report(f"\nwritten: {BENCH_PATH.name}")

    if not SMOKE:
        largest = next(r for r in rows if r["workload"] == "sched_stress"
                       and r["size"] == "large")
        assert (largest["dispatches_per_s"]
                >= MIN_COOP_VS_BASELINE * BASELINE_THREADED_DPS), (
            f"sched_stress/large {largest['dispatches_per_s']:,.0f} "
            f"dispatches/s is below {MIN_COOP_VS_BASELINE}x the "
            f"thread-per-process baseline ({BASELINE_THREADED_DPS:,.0f}/s)")
