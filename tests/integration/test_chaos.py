"""Chaos/soak suite: the example apps under injected faults.

Three fixed seeds x the five example workloads run under a
delay-only message plan (reordering is the one fault class the paper's
non-fault-tolerant apps tolerate by construction -- nothing is lost or
altered, only late).  Loss, duplication, corruption, PE crashes and
supervision-driven recovery are exercised against the purpose-built
fault-tolerant solver in :mod:`repro.apps.chaos_jacobi`.

``CHAOS_SMOKE=1`` shrinks problem sizes (the CI chaos-smoke job); the
suite also writes ``CHAOS_fault_events.jsonl`` at the repo root so CI
can upload the fault-event stream as an artifact.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.apps.chaos_jacobi import run_chaos_jacobi
from repro.apps.fem import run_fem
from repro.apps.integrate import run_integrate
from repro.apps.jacobi import reference_solution, run_jacobi_windows
from repro.apps.matmul import run_matmul_tasks
from repro.apps.pipeline import run_pipeline
from repro.config.configuration import ClusterSpec, Configuration
from repro.faults import RESTART, FaultPlan, MessagePolicy, PECrash, plan_scope
from repro.flex.presets import small_flex
from tests.bodies import BOTH_VEHICLES

SMOKE = bool(os.environ.get("CHAOS_SMOKE"))
SEEDS = (1, 7, 42)

#: Reordering-only transport: eligible deliveries may be late, never
#: lost, duplicated or altered.  The paper's apps assume FIFO transport,
#: so each app exempts the message types whose *order* carries meaning
#: (a late WIN makes a halo read race with neighbour writes; a late
#: ITEM/EOS reorders or truncates the pipeline stream) and the soak
#: reorders everything else.
def delay_policy(protected=()):
    return MessagePolicy(delay=0.35, delay_ticks=1_500,
                         protected=tuple(protected))

#: Everything at once, for the fault-tolerant solver.
LOSSY = MessagePolicy(drop=0.08, duplicate=0.05, delay=0.08, corrupt=0.05,
                      delay_ticks=900)

ARTIFACT = Path(__file__).resolve().parents[2] / "CHAOS_fault_events.jsonl"

# Reduced sizes under CHAOS_SMOKE.
N_JACOBI = 10 if SMOKE else 16
N_MATMUL = 8 if SMOKE else 16
N_FEM = 5 if SMOKE else 10
N_PIECES = 8 if SMOKE else 16


def delay_plan(seed, protected=()):
    return FaultPlan(seed=seed, messages=delay_policy(protected),
                     name=f"delay-only-{seed}")


class TestFiveAppSoak:
    """Each example app computes its exact fault-free answer under a
    reordering transport, for every seed."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_jacobi(self, seed):
        with plan_scope(delay_plan(seed, protected=("WIN",))):
            r = run_jacobi_windows(n=N_JACOBI, sweeps=2, n_workers=2,
                                   machine=small_flex(10))
        r.vm.shutdown()
        assert r.vm.stats.messages_delayed > 0
        assert np.allclose(r.grid, reference_solution(N_JACOBI, 2))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        with plan_scope(delay_plan(seed)):
            r = run_matmul_tasks(n=N_MATMUL, n_workers=3,
                                 machine=small_flex(10))
        r.vm.shutdown()
        A = np.asarray(r.C)
        assert A.shape == (N_MATMUL, N_MATMUL)
        assert r.vm.stats.messages_delayed > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fem(self, seed):
        from repro.apps.fem import FEMProblem
        with plan_scope(delay_plan(seed)):
            r = run_fem(n_elements=N_FEM, force_pes=2,
                        machine=small_flex(10))
        r.vm.shutdown()
        prob = FEMProblem(N_FEM)
        exact = np.linalg.solve(prob.stiffness(), prob.load_vector())
        assert np.allclose(r.displacements, exact, atol=1e-8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pipeline(self, seed):
        items = list(range(6 if SMOKE else 10))
        with plan_scope(delay_plan(seed, protected=("ITEM", "EOS"))):
            r = run_pipeline(n_stages=3, items=items,
                             machine=small_flex(10))
        r.vm.shutdown()
        assert r.outputs == [i + 3 for i in items]
        assert r.vm.faults is not None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integrate(self, seed):
        with plan_scope(delay_plan(seed)):
            r = run_integrate(pieces=N_PIECES, points_per_piece=6,
                              n_workers=3, machine=small_flex(10))
        r.vm.shutdown()
        assert r.value == pytest.approx(r.exact, rel=0.02)


def chaos_config(trace=(), bodies=""):
    return Configuration(clusters=(ClusterSpec(1, 3, 4),
                                   ClusterSpec(2, 4, 4)),
                         name="chaos-jacobi", trace_events=tuple(trace),
                         task_bodies=bodies)


CRASH_PLAN = FaultPlan(seed=1, crashes=(PECrash(at=4_000, pe=4),),
                       name="crash-pe4")



#: Supervision recovery is independent of the task-body vehicle: both
#: must produce the same restart behaviour (and, in TestDeterminism,
#: the same bits).
@BOTH_VEHICLES
class TestRecovery:
    """PE crash mid-run against the fault-tolerant Jacobi solver, under
    both task-body vehicles."""

    def test_crash_under_restart_converges_to_exact_answer(self, bodies):
        r = run_chaos_jacobi(n=N_JACOBI, sweeps=2, n_workers=3,
                             supervision=RESTART(3, backoff_ticks=500),
                             on_death="reassign",
                             fault_plan=CRASH_PLAN,
                             config=chaos_config(bodies=bodies))
        r.vm.shutdown()
        assert r.completed
        assert np.array_equal(r.grid, reference_solution(N_JACOBI, 2))
        assert r.vm.stats.tasks_restarted >= 1
        assert r.vm.stats.tasks_died >= 1
        assert r.vm.engine.leaked_threads == []
        kinds = [e.kind for e in r.vm.faults.events]
        assert "pe_crash" in kinds and "restart" in kinds

    def test_crash_without_supervision_aborts_cleanly(self, bodies):
        r = run_chaos_jacobi(n=N_JACOBI, sweeps=2, n_workers=3,
                             supervision=None, on_death="abort",
                             fault_plan=CRASH_PLAN,
                             config=chaos_config(bodies=bodies))
        r.vm.shutdown()
        # The parent observed TASK_DIED, terminated cleanly, and left
        # no threads behind.
        assert not r.completed
        assert "died" in r.reason
        assert r.vm.engine.leaked_threads == []
        assert all(p.thread is None or not p.thread.is_alive()
                   for p in r.vm.engine.processes())

    def test_crash_with_reassignment_still_exact(self, bodies):
        r = run_chaos_jacobi(n=N_JACOBI, sweeps=2, n_workers=3,
                             supervision=None, on_death="reassign",
                             fault_plan=CRASH_PLAN,
                             config=chaos_config(bodies=bodies))
        r.vm.shutdown()
        assert r.completed
        assert np.array_equal(r.grid, reference_solution(N_JACOBI, 2))

    def test_lossy_transport_heals_to_exact_answer(self, bodies):
        plan = FaultPlan(seed=7, messages=LOSSY, name="lossy")
        r = run_chaos_jacobi(n=N_JACOBI, sweeps=2, n_workers=3,
                             fault_plan=plan,
                             config=chaos_config(bodies=bodies))
        r.vm.shutdown()
        assert r.completed
        assert np.array_equal(r.grid, reference_solution(N_JACOBI, 2))
        s = r.vm.stats
        assert s.faults_injected > 0
        assert (s.messages_dropped + s.messages_duplicated
                + s.messages_delayed + s.messages_corrupted) > 0

    def test_restart_backoff_jitter_is_seeded_deterministic(self, bodies):
        """RESTART backoff jitter draws from the seeded run RNG: two
        runs with the same run_seed restart at identical ticks (the
        whole fault stream is bit-identical), and jitter != 0 changes
        nothing else about convergence."""
        from dataclasses import replace as _rep

        def once():
            cfg = _rep(chaos_config(bodies=bodies), run_seed=11)
            r = run_chaos_jacobi(
                n=N_JACOBI, sweeps=2, n_workers=3,
                supervision=RESTART(3, backoff_ticks=500, jitter=0.5),
                on_death="reassign", fault_plan=CRASH_PLAN, config=cfg)
            faults = r.vm.faults.export_jsonl()
            out = (r.completed, np.asarray(r.grid).copy(), r.elapsed, faults)
            r.vm.shutdown()
            return out

        c1, g1, e1, f1 = once()
        c2, g2, e2, f2 = once()
        assert c1 and c2
        assert np.array_equal(g1, reference_solution(N_JACOBI, 2))
        assert e1 == e2
        assert f1 == f2


@BOTH_VEHICLES
class TestDeterminism:
    """Same seed + same plan => bit-identical fault and trace streams,
    under both task-body vehicles."""

    def run_once(self, bodies):
        plan = FaultPlan(seed=3, crashes=(PECrash(at=4_000, pe=4),),
                         messages=MessagePolicy(drop=0.05, delay=0.1,
                                                delay_ticks=700),
                         name="determinism")
        r = run_chaos_jacobi(
            n=N_JACOBI, sweeps=2, n_workers=3,
            supervision=RESTART(3, backoff_ticks=500),
            on_death="reassign", fault_plan=plan,
            config=chaos_config(trace=("FAULT", "MSG_SEND", "MSG_ACCEPT"),
                                bodies=bodies))
        faults = r.vm.faults.export_jsonl()
        traces = [e.line() for e in r.vm.tracer.events]
        grid, elapsed = r.grid, r.elapsed
        r.vm.shutdown()
        return faults, traces, grid, elapsed

    def test_two_runs_bit_identical(self, bodies):
        f1, t1, g1, e1 = self.run_once(bodies)
        f2, t2, g2, e2 = self.run_once(bodies)
        assert f1 == f2
        assert t1 == t2
        assert e1 == e2
        assert np.array_equal(g1, g2)
        # Every fault line is valid JSON in injection order.
        seqs = [json.loads(l)["seq"] for l in f1.splitlines()]
        assert seqs == sorted(seqs)
        # The CI artifact: the canonical fault-event stream of this run.
        ARTIFACT.write_text(f1 + "\n" if f1 else "")
