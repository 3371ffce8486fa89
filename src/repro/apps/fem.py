"""A small finite-element structural-analysis kernel (section 14).

The paper's first planned application was "porting a large existing
finite element/structural analysis code to the FLEX within the PISCES 2
environment ... to 'parallelize' this code, using the Pisces Fortran
constructs, with a minimum of effort".  This module is that exercise in
miniature: an axially loaded elastic bar discretized into linear
elements, assembled into a (tridiagonal) stiffness system K u = f and
solved by conjugate gradients *inside a force* -- rows are PRESCHED-
partitioned, reductions go through a CRITICAL region into SHARED
COMMON scalars, and sweeps are separated by BARRIERs.  The structure is
exactly what a Fortran engineer would write with the section-7
constructs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..config.configuration import simple_configuration
from ..core.grid import Grid
from ..core.task import TaskRegistry
from ..core.vm import AppPlan, PiscesVM
from ..flex.machine import FlexMachine

#: Ticks charged per matrix row processed in a matvec.
TICKS_PER_ROW = 2


@dataclass
class FEMProblem:
    """An axially loaded bar: n_elements linear elements, unit length."""

    n_elements: int
    youngs_modulus: float = 1.0e3
    area: float = 1.0
    length: float = 1.0
    load: float = 10.0           # end load at the free tip

    @property
    def n_free(self) -> int:
        """Free DOF count (node 0 is clamped)."""
        return self.n_elements

    def stiffness(self) -> Grid:
        """Assembled global stiffness on the free DOFs (tridiagonal)."""
        k = self.youngs_modulus * self.area * self.n_elements / self.length
        n = self.n_free
        K = Grid.zeros((n, n))
        for e in range(self.n_elements):
            # element e couples nodes e and e+1; free DOF i = node i+1.
            i, j = e - 1, e
            if i >= 0:
                K[i, i] += k
                K[i, j] -= k
                K[j, i] -= k
            K[j, j] += k
        return K

    def load_vector(self) -> Grid:
        f = Grid.zeros(self.n_free)
        f[-1] = self.load
        return f

    def exact_tip_displacement(self) -> float:
        """u(L) = P L / (E A) for a uniform bar under end load."""
        return self.load * self.length / (self.youngs_modulus * self.area)


def dot(a, b, idx) -> float:
    """``sum(a[i] * b[i] for i in idx)`` over flat sequences, in order."""
    s = 0.0
    for i in idx:
        s += a[i] * b[i]
    return s


@dataclass
class FEMResult:
    displacements: Grid
    tip_displacement: float
    iterations: int
    elapsed: int
    residual: float
    vm: PiscesVM


def build_fem_registry(problem: FEMProblem, tol: float = 1e-10,
                       max_iter: Optional[int] = None) -> TaskRegistry:
    reg = TaskRegistry()
    n = problem.n_free
    iters_cap = max_iter if max_iter is not None else 2 * n + 10

    def cg_region(m, K, f):
        blk = m.common("CG")
        u, r, p, Ap = blk.u, blk.r, blk.p, blk.Ap
        rows = list(m.presched(range(n)))

        kf = K.flat
        every = range(n)

        def matvec():
            pf = p.flat
            for i in rows:
                Ap[i] = dot(kf[i * n:(i + 1) * n], pf, every)
            yield from m.compute(len(rows) * TICKS_PER_ROW)

        def partial_dot(a, b):
            local = dot(a.flat, b.flat, rows)
            with (yield from m.critical("RED")):
                blk.acc[()] += local

        # r = f - K u (u starts at 0), p = r.
        def init_block():
            u[...] = 0.0
            r[...] = f
            p[...] = r
            blk.rr[()] = dot(r.flat, r.flat, every)
            blk.done[()] = 0
            blk.iters[()] = 0

        yield from m.barrier(init_block)
        while True:
            if blk.done[()]:
                break
            yield from matvec()

            def zero_acc():
                blk.acc[()] = 0.0

            yield from m.barrier(zero_acc)
            yield from partial_dot(p, Ap)

            def alpha_step():
                pAp = float(blk.acc[()])
                blk.alpha[()] = blk.rr[()] / pAp if pAp else 0.0

            yield from m.barrier(alpha_step)
            alpha = float(blk.alpha[()])
            for i in rows:
                u[i] += alpha * p[i]
                r[i] -= alpha * Ap[i]
            yield from m.compute(len(rows))

            def zero_acc2():
                blk.acc[()] = 0.0

            yield from m.barrier(zero_acc2)
            yield from partial_dot(r, r)

            def beta_step():
                rr_new = float(blk.acc[()])
                blk.beta[()] = rr_new / blk.rr[()] if blk.rr[()] else 0.0
                blk.rr[()] = rr_new
                blk.iters[()] += 1
                if rr_new < tol * tol or blk.iters[()] >= iters_cap:
                    blk.done[()] = 1

            yield from m.barrier(beta_step)
            beta = float(blk.beta[()])
            for i in rows:
                p[i] = r[i] + beta * p[i]
            yield from m.compute(len(rows))
            yield from m.barrier()
        return None

    spec = {
        "u": ("f8", (n,)), "r": ("f8", (n,)), "p": ("f8", (n,)),
        "Ap": ("f8", (n,)), "acc": ("f8", ()), "alpha": ("f8", ()),
        "beta": ("f8", ()), "rr": ("f8", ()), "iters": ("i8", ()),
        "done": ("i8", ()),
    }

    @reg.tasktype("FEM", shared={"CG": spec}, locks=("RED",))
    def fem(ctx):
        K = problem.stiffness()
        f = problem.load_vector()
        yield from ctx.forcesplit(cg_region, K, f)
        blk = ctx.common("CG")
        u = blk.u.copy()
        kf, uf = K.flat, u.flat
        resid = math.sqrt(sum(
            (dot(kf[i * n:(i + 1) * n], uf, range(n)) - f[i]) ** 2
            for i in range(n)))
        return u, int(blk.iters[()]), resid

    return reg


def fem_plan(problem: FEMProblem, force_pes: int) -> AppPlan:
    return AppPlan(
        registry=build_fem_registry(problem),
        config=simple_configuration(1, 2, force_pes,
                                    name=f"fem-force-{force_pes + 1}"),
        tasktype="FEM")


def run_fem(n_elements: int = 16, force_pes: int = 3,
            machine: Optional[FlexMachine] = None,
            problem: Optional[FEMProblem] = None) -> FEMResult:
    """Solve the bar problem with a force of ``force_pes + 1`` members."""
    prob = problem or FEMProblem(n_elements=n_elements)
    r = fem_plan(prob, force_pes).run(machine)
    u, iters, resid = r.value
    return FEMResult(displacements=u, tip_displacement=float(u[-1]),
                     iterations=iters, elapsed=r.elapsed, residual=resid,
                     vm=r.vm)
