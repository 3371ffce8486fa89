"""Ablation A1: PRESCHED vs SELFSCHED loop scheduling (section 7e).

The design offers both because neither dominates: prescheduling has no
run-time overhead but fixes the partition; self-scheduling pays a fetch
per iteration but balances skewed iteration costs.  This benchmark
measures both schedulers under uniform and skewed workloads and checks
the expected crossover: PRESCHED wins when iterations are uniform,
SELFSCHED wins under block-skewed cost.
"""

import pytest

from scaling import load_balance
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.task import TaskRegistry
from repro.core.vm import PiscesVM
from repro.flex.presets import nasa_langley_flex32
from repro.util.tables import format_table

N_ITER = 48
FORCE_PES = 3   # force size 4


def cost_uniform(i):
    return 120


def cost_skewed(i):
    # every 4th iteration is heavy: with force size 4, the cyclic
    # preschedule hands ALL heavy iterations to member 0.
    return 600 if i % 4 == 0 else 20


def run_case(sched, costfn):
    reg = TaskRegistry()
    work = {}

    def region(m):
        # Align members first: the primary reaches the loop late (it
        # paid the FORCESPLIT overhead), and without a barrier the
        # self-scheduler silently absorbs that asymmetry too -- a real
        # PISCES effect, but here we isolate the scheduling policy.
        m.barrier()
        it = (m.presched(range(N_ITER)) if sched == "PRESCHED"
              else m.selfsched(range(N_ITER)))
        count = 0
        for i in it:
            m.compute(costfn(i))
            count += 1
        work[m.member] = count

    @reg.tasktype("LOOP")
    def loop(ctx):
        ctx.forcesplit(region)

    cfg = Configuration(clusters=(
        ClusterSpec(1, 3, 2, tuple(range(4, 4 + FORCE_PES))),),
        name=f"loop-{sched}")
    vm = PiscesVM(cfg, registry=reg, machine=nasa_langley_flex32())
    r = vm.run("LOOP")
    return r.elapsed, load_balance(work)


def run_all():
    out = {}
    for workload, costfn in (("uniform", cost_uniform),
                             ("skewed", cost_skewed)):
        for sched in ("PRESCHED", "SELFSCHED"):
            out[(workload, sched)] = run_case(sched, costfn)
    return out


def test_loop_scheduling_ablation(benchmark, report):
    res = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for (workload, sched), (elapsed, imbalance) in sorted(res.items()):
        rows.append([workload, sched, elapsed, f"{imbalance:.2f}"])
    report(format_table(
        ["workload", "scheduler", "elapsed (ticks)", "imbalance (max/mean)"],
        rows, title=f"A1: LOOP SCHEDULING ({N_ITER} iterations, "
                    f"force of {FORCE_PES + 1})"))

    # Shape 1: uniform work -- prescheduling is at least as fast (no
    # per-iteration fetch cost).
    assert res[("uniform", "PRESCHED")][0] <= res[("uniform", "SELFSCHED")][0]
    # Shape 2: skewed work -- self-scheduling wins despite its overhead.
    assert res[("skewed", "SELFSCHED")][0] < res[("skewed", "PRESCHED")][0]
    report("")
    speedup = res[("skewed", "PRESCHED")][0] / res[("skewed", "SELFSCHED")][0]
    report(f"skewed-workload SELFSCHED advantage: {speedup:.2f}x")
