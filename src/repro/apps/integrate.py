"""Master/worker numerical integration with dynamic load distribution.

The task-level analogue of SELFSCHED: a master task owns a bag of
subintervals; workers request the "next" piece when idle, so expensive
regions of the integrand do not serialize behind a static partition.
Used by the messaging ablation and as the third example application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ..config.configuration import master_worker_configuration
from ..core.task import TaskRegistry
from ..core.taskid import ANY, PARENT
from ..core.vm import AppPlan, PiscesVM
from ..flex.machine import FlexMachine

#: Ticks charged per function evaluation.
TICKS_PER_EVAL = 3


@dataclass
class IntegrateResult:
    value: float
    exact: float
    pieces: int
    elapsed: int
    per_worker: dict
    vm: PiscesVM


def default_integrand(x: float) -> float:
    """A lumpy integrand: cheap on the left, oscillatory on the right."""
    return math.sin(x) + 0.5 * math.sin(10 * x * x)


def build_integrate_registry(f: Callable[[float], float], a: float, b: float,
                             pieces: int, points_per_piece: int,
                             n_workers: int) -> TaskRegistry:
    reg = TaskRegistry()
    h = (b - a) / pieces

    @reg.tasktype("IWORKER")
    def iworker(ctx, k):
        ctx.send(PARENT, "IDLE", k, False, 0.0)
        done = 0
        while True:
            res = yield from ctx.accept("PIECE", "STOP", count=1)
            m = res.messages[0]
            if m.mtype == "STOP":
                return done
            (i,) = m.args
            lo = a + i * h
            # Composite trapezoid on the piece; cost scales with evals.
            npts = points_per_piece * (1 + i % 3)   # skewed work
            xs = [lo + h * j / npts for j in range(npts + 1)]
            s = 0.5 * (f(xs[0]) + f(xs[-1])) + sum(f(x) for x in xs[1:-1])
            yield from ctx.compute(npts * TICKS_PER_EVAL)
            done += 1
            ctx.send(PARENT, "IDLE", k, True, s * h / npts)

    @reg.tasktype("IMASTER")
    def imaster(ctx):
        for k in range(n_workers):
            ctx.initiate("IWORKER", k, on=ANY)
        total = 0.0
        next_piece = 0
        completed = 0
        idle_seen = 0
        workers = {}
        per_worker = {k: 0 for k in range(n_workers)}
        # Every worker sends one initial IDLE plus one per completed
        # piece, so the master accepts exactly n_workers + pieces IDLEs.
        while completed < pieces or idle_seen < n_workers + pieces:
            res = yield from ctx.accept("IDLE")
            idle_seen += 1
            k, has_result, partial = res.args
            workers[k] = res.sender
            if has_result:
                total += partial
                completed += 1
                per_worker[k] += 1
            if next_piece < pieces:
                ctx.send(res.sender, "PIECE", next_piece)
                next_piece += 1
        for k, tid in workers.items():
            ctx.send(tid, "STOP")
        return total, per_worker

    return reg


def integrate_plan(pieces: int, points_per_piece: int, n_workers: int,
                   n_clusters: int, f: Callable[[float], float],
                   a: float, b: float) -> AppPlan:
    return AppPlan(
        registry=build_integrate_registry(f, a, b, pieces, points_per_piece,
                                          n_workers),
        config=master_worker_configuration(n_clusters, n_workers,
                                           "integrate"),
        tasktype="IMASTER")


def run_integrate(pieces: int = 24, points_per_piece: int = 8,
                  n_workers: int = 4, n_clusters: int = 2,
                  f: Callable[[float], float] = default_integrand,
                  a: float = 0.0, b: float = 3.0,
                  machine: Optional[FlexMachine] = None) -> IntegrateResult:
    r = integrate_plan(pieces, points_per_piece, n_workers, n_clusters,
                       f, a, b).run(machine)
    total, per_worker = r.value
    exact = _reference(f, a, b)
    return IntegrateResult(value=total, exact=exact, pieces=pieces,
                           elapsed=r.elapsed, per_worker=per_worker, vm=r.vm)


def _reference(f: Callable[[float], float], a: float, b: float,
               n: int = 20000) -> float:
    h = (b - a) / n
    s = 0.5 * (f(a) + f(b)) + sum(f(a + i * h) for i in range(1, n))
    return s * h
