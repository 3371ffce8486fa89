"""Fault-tolerant Jacobi relaxation: the recovery demonstration app.

The windows/force Jacobi solvers in :mod:`repro.apps.jacobi` assume the
transport never loses a message and no worker ever dies; this variant is
written against the failure semantics of :mod:`repro.faults` instead:

* the master ships row blocks *by message* and gathers results tagged
  with ``(sweep, chunk)``, so duplicated or replayed replies are
  idempotent and corrupted ones (discarded at ACCEPT by their checksum)
  simply look like drops;
* every gather waits with a bounded DELAY and re-sends whatever is
  still missing, so dropped requests or replies heal;
* workers announce themselves with ``READY <k>`` -- at startup *and*
  whenever they have been idle a while -- so a worker restarted by
  RESTART supervision (or a re-registration lost to the fault plan)
  re-joins the computation;
* the master ACCEPTs the system ``TASK_DIED`` notification alongside
  its data traffic: under ``on_death="reassign"`` a dead worker's chunk
  moves to a survivor, under ``on_death="abort"`` the run stops cleanly
  and reports the reason.

The numerics are bit-identical to :func:`repro.apps.jacobi.reference_solution`
no matter which worker computes which chunk or how often a chunk is
recomputed -- every sweep is assembled from the immutable previous grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..config.configuration import Configuration, simple_configuration
from ..core.accept import ALL_RECEIVED
from ..core.grid import Grid
from ..core.supervision import Supervision
from ..core.task import TaskRegistry
from ..core.taskid import ANY, PARENT
from ..core.vm import AppPlan, PiscesVM
from ..flex.machine import FlexMachine
from .jacobi import TICKS_PER_CELL, make_problem, split_rows, sweep_rows

#: A worker exits after this many consecutive idle timeouts (the escape
#: hatch that keeps restarted workers from outliving a finished master).
MAX_IDLE_TIMEOUTS = 2


@dataclass
class ChaosJacobiResult:
    grid: Optional[Grid]
    completed: bool
    reason: str
    sweeps: int
    rounds: int          # gather iterations (re-sends show up here)
    elapsed: int
    vm: PiscesVM


def build_chaos_registry(n: int, sweeps: int, n_workers: int,
                         supervision: Optional[Supervision],
                         on_death: str, resend_delay: int,
                         idle_timeout: int,
                         max_rounds: int) -> TaskRegistry:
    reg = TaskRegistry()

    @reg.tasktype("CWORKER")
    def cworker(ctx, k):
        ctx.send(PARENT, "READY", k)
        idle = 0
        while True:
            res = yield from ctx.accept("ROWS", "STOP", count=1,
                                        delay=idle_timeout, timeout_ok=True)
            if res.timed_out:
                idle += 1
                if idle >= MAX_IDLE_TIMEOUTS:
                    return None          # orphaned: master is done/gone
                ctx.send(PARENT, "READY", k)   # heal a lost registration
                continue
            idle = 0
            m = res.messages[0]
            if m.mtype == "STOP":
                return None
            s, chunk, block = m.args
            rows, cols = block.shape
            new = block.copy()
            sweep_rows(block, new, range(1, rows - 1))
            yield from ctx.compute((rows - 2) * (cols - 2) * TICKS_PER_CELL)
            ctx.send(PARENT, "SWEPT", s, chunk, new[1:-1, :])

    @reg.tasktype("CMASTER")
    def cmaster(ctx):
        g = make_problem(n)
        chunks = split_rows(1, n - 1, n_workers)
        for k in range(n_workers):
            ctx.initiate("CWORKER", k, on=ANY, supervision=supervision)
        workers: dict = {}     # announced index -> current taskid
        dead: set = set()      # taskids reported dead by TASK_DIED
        rounds = 0

        def target_for(c):
            t = workers.get(c)
            if t is not None and t not in dead:
                return t
            for k in sorted(workers):
                if workers[k] not in dead:
                    return workers[k]
            return None

        def stop_all():
            for k in sorted(workers):
                if workers[k] not in dead:
                    ctx.send(workers[k], "STOP")

        for s in range(sweeps):
            newg = g.copy()
            pending = set(range(n_workers))
            need_send = set(pending)
            while pending:
                rounds += 1
                if rounds > max_rounds:
                    stop_all()
                    return None, f"no progress after {max_rounds} rounds", rounds
                for c in sorted(need_send):
                    tgt = target_for(c)
                    if tgt is None:
                        continue     # nobody announced yet; wait below
                    rows = chunks[c]
                    lo, hi = rows[0] - 1, rows[-1] + 2
                    ctx.send(tgt, "ROWS", s, c, g[lo:hi, :])
                need_send.clear()
                res = yield from ctx.accept(
                    ("SWEPT", 1), ("READY", ALL_RECEIVED),
                    ("TASK_DIED", ALL_RECEIVED),
                    delay=resend_delay, timeout_ok=True)
                for m in res.messages:
                    if m.mtype == "SWEPT":
                        ms, mc, data = m.args
                        if ms == s and mc in pending:
                            pending.discard(mc)
                            rows = chunks[mc]
                            newg[rows[0]:rows[-1] + 1, :] = data
                    elif m.mtype == "READY":
                        workers[m.args[0]] = m.sender
                        dead.discard(m.sender)
                        need_send |= pending
                    elif m.mtype == "TASK_DIED":
                        tid, why = m.args
                        dead.add(tid)
                        if on_death == "abort":
                            stop_all()
                            return (None, f"worker {tid} died: {why}",
                                    rounds)
                        need_send |= pending
                if res.timed_out:
                    need_send |= pending   # replies lost; re-send
            g = newg
        stop_all()
        return g, "", rounds

    return reg


def chaos_plan(n: int, sweeps: int, n_workers: int,
               supervision: Optional[Supervision], on_death: str,
               resend_delay: int, idle_timeout: int,
               max_rounds: int) -> AppPlan:
    if on_death not in ("abort", "reassign"):
        raise ValueError(f"on_death must be abort|reassign, not {on_death!r}")
    return AppPlan(
        registry=build_chaos_registry(n, sweeps, n_workers, supervision,
                                      on_death, resend_delay, idle_timeout,
                                      max_rounds),
        config=simple_configuration(2, max(2, n_workers) + 1,
                                    name="chaos-jacobi"),
        tasktype="CMASTER")


def run_chaos_jacobi(n: int = 20, sweeps: int = 3, n_workers: int = 3,
                     supervision: Optional[Supervision] = None,
                     on_death: str = "abort",
                     resend_delay: int = 8_000,
                     idle_timeout: int = 60_000,
                     max_rounds: int = 200,
                     config: Optional[Configuration] = None,
                     machine: Optional[FlexMachine] = None,
                     fault_plan=None) -> ChaosJacobiResult:
    """Run the fault-tolerant Jacobi solver (optionally under a plan).

    ``fault_plan`` takes an explicit :class:`~repro.faults.FaultPlan`;
    alternatively wrap the call in :func:`repro.faults.plan_scope`.
    """
    plan = chaos_plan(n, sweeps, n_workers, supervision, on_death,
                      resend_delay, idle_timeout, max_rounds)
    r = replace(plan, config=config or plan.config,
                fault_plan=fault_plan).run(machine)
    grid, reason, rounds = r.value
    return ChaosJacobiResult(grid=grid, completed=grid is not None,
                             reason=reason, sweeps=sweeps, rounds=rounds,
                             elapsed=r.elapsed, vm=r.vm)
