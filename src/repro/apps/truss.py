"""2-D truss structural analysis inside a force (section 14, extended).

Where :mod:`repro.apps.fem` ports the paper's structural-analysis
application in one dimension, this module does the real thing in 2-D: a
pin-jointed planar truss (an N-panel Pratt bridge by default) with two
degrees of freedom per node, element stiffness assembly with direction
cosines, support conditions, and a force-parallel conjugate-gradient
solve -- rows PRESCHED-partitioned, reductions through a CRITICAL
region into SHARED COMMON, BARRIERs between CG phases.

Validation: the displacement field matches a direct (Gaussian
elimination) solve and the mid-span deflection is negative (downward)
under gravity loads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config.configuration import simple_configuration
from ..core.grid import Grid
from ..core.task import TaskRegistry
from ..core.vm import AppPlan, PiscesVM
from ..flex.machine import FlexMachine
from .fem import dot

#: Ticks charged per stiffness row in a matvec.
TICKS_PER_ROW = 2


@dataclass
class TrussProblem:
    """A pin-jointed planar truss."""

    nodes: List[Tuple[float, float]]
    #: (node_i, node_j, E*A) per bar.
    elements: List[Tuple[int, int, float]]
    #: Fully fixed node indices (both dofs).
    supports: List[int]
    #: node -> (fx, fy) applied load.
    loads: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    @property
    def n_dof(self) -> int:
        return 2 * len(self.nodes)

    def free_dofs(self) -> List[int]:
        fixed = set()
        for n in self.supports:
            fixed.update((2 * n, 2 * n + 1))
        return [d for d in range(self.n_dof) if d not in fixed]

    # ------------------------------------------------------------ assembly --

    def stiffness(self) -> Grid:
        """Global stiffness matrix over all dofs."""
        K = Grid.zeros((self.n_dof, self.n_dof))
        for i, j, ea in self.elements:
            xi, yi = self.nodes[i]
            xj, yj = self.nodes[j]
            dx, dy = xj - xi, yj - yi
            L = math.hypot(dx, dy)
            if L == 0:
                raise ValueError(f"zero-length element {i}-{j}")
            c, s = dx / L, dy / L
            k = ea / L
            ke = Grid((2, 2), "float64", array("d", [
                k * (c * c), k * (c * s), k * (c * s), k * (s * s)]))
            dofs_i = (2 * i, 2 * i + 1)
            dofs_j = (2 * j, 2 * j + 1)
            for a in range(2):
                for b in range(2):
                    K[dofs_i[a], dofs_i[b]] += ke[a, b]
                    K[dofs_j[a], dofs_j[b]] += ke[a, b]
                    K[dofs_i[a], dofs_j[b]] -= ke[a, b]
                    K[dofs_j[a], dofs_i[b]] -= ke[a, b]
        return K

    def reduced_system(self) -> Tuple[Grid, Grid, List[int]]:
        """(K_ff, f_f, free dof list) after applying supports."""
        free = self.free_dofs()
        K = self.stiffness()
        f = [0.0] * self.n_dof
        for n, (fx, fy) in self.loads.items():
            f[2 * n] += fx
            f[2 * n + 1] += fy
        m = len(free)
        Kff = Grid((m, m), "float64",
                   array("d", [K[a, b] for a in free for b in free]))
        return Kff, Grid((m,), "float64", array("d", [f[d] for d in free])), \
            free

    def direct_solution(self) -> Grid:
        """Full-dof displacement vector by Gaussian elimination with
        partial pivoting (the reference)."""
        Kff, ff, free = self.reduced_system()
        m = len(free)
        a = [Kff.tolist()[i] + [ff[i]] for i in range(m)]
        for col in range(m):
            piv = max(range(col, m), key=lambda r: abs(a[r][col]))
            a[col], a[piv] = a[piv], a[col]
            for r in range(col + 1, m):
                f = a[r][col] / a[col][col]
                for c in range(col, m + 1):
                    a[r][c] -= f * a[col][c]
        x = [0.0] * m
        for r in reversed(range(m)):
            x[r] = (a[r][m] - dot(a[r], x, range(r + 1, m))) / a[r][r]
        u = Grid.zeros(self.n_dof)
        for d, v in zip(free, x):
            u[d] = v
        return u


def pratt_truss(n_panels: int = 4, panel: float = 2.0, height: float = 2.0,
                ea: float = 1.0e4, load_per_node: float = -5.0
                ) -> TrussProblem:
    """An N-panel Pratt bridge truss, pinned at both bottom ends,
    loaded downward at the bottom chord joints."""
    if n_panels < 2:
        raise ValueError("need at least 2 panels")
    bottom = [(i * panel, 0.0) for i in range(n_panels + 1)]
    top = [(i * panel, height) for i in range(1, n_panels)]
    nodes = bottom + top
    t = lambda i: n_panels + 1 + (i - 1)    # top node index for column i
    elements: List[Tuple[int, int, float]] = []
    for i in range(n_panels):               # bottom chord
        elements.append((i, i + 1, ea))
    for i in range(1, n_panels - 1):         # top chord
        elements.append((t(i), t(i + 1), ea))
    for i in range(1, n_panels):             # verticals
        elements.append((i, t(i), ea))
    elements.append((0, t(1), ea))           # end diagonals
    elements.append((n_panels, t(n_panels - 1), ea))
    for i in range(1, n_panels - 1):          # interior diagonals
        elements.append((t(i), i + 1, ea))
    loads = {i: (0.0, load_per_node) for i in range(1, n_panels)}
    return TrussProblem(nodes=nodes, elements=elements,
                        supports=[0, n_panels], loads=loads)


@dataclass
class TrussResult:
    displacements: Grid            # full dof vector
    midspan_deflection: float
    iterations: int
    elapsed: int
    residual: float
    vm: PiscesVM


def build_truss_registry(problem: TrussProblem, tol: float = 1e-9,
                         max_iter: Optional[int] = None) -> TaskRegistry:
    reg = TaskRegistry()
    Kff, ff, free = problem.reduced_system()
    n = len(free)
    iters_cap = max_iter if max_iter is not None else 3 * n + 20

    def cg_region(m):
        blk = m.common("CG")
        u, r, p, Ap = blk.u, blk.r, blk.p, blk.Ap
        rows = list(m.presched(range(n)))
        kf = Kff.flat
        every = range(n)

        def init_block():
            u[...] = 0.0
            r[...] = ff
            p[...] = r
            blk.rr[()] = dot(r.flat, r.flat, every)
            blk.done[()] = 0
            blk.iters[()] = 0

        yield from m.barrier(init_block)
        while not blk.done[()]:
            pf = p.flat
            for i in rows:
                Ap[i] = dot(kf[i * n:(i + 1) * n], pf, every)
            yield from m.compute(len(rows) * TICKS_PER_ROW)

            def zero_acc():
                blk.acc[()] = 0.0

            yield from m.barrier(zero_acc)
            local = dot(p.flat, Ap.flat, rows)
            with (yield from m.critical("RED")):
                blk.acc[()] += local

            def alpha_step():
                pAp = float(blk.acc[()])
                blk.alpha[()] = blk.rr[()] / pAp if pAp else 0.0
                blk.acc[()] = 0.0

            yield from m.barrier(alpha_step)
            alpha = float(blk.alpha[()])
            for i in rows:
                u[i] += alpha * p[i]
                r[i] -= alpha * Ap[i]
            yield from m.compute(len(rows))
            yield from m.barrier()
            local = dot(r.flat, r.flat, rows)
            with (yield from m.critical("RED")):
                blk.acc[()] += local

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

    @reg.tasktype("TRUSS", shared={"CG": spec}, locks=("RED",))
    def truss(ctx):
        yield from ctx.forcesplit(cg_region)
        blk = ctx.common("CG")
        uf = blk.u.copy()
        kf, u = Kff.flat, uf.flat
        resid = math.sqrt(sum(
            (dot(kf[i * n:(i + 1) * n], u, range(n)) - ff[i]) ** 2
            for i in range(n)))
        return uf, int(blk.iters[()]), resid

    return reg


def truss_plan(problem: TrussProblem, force_pes: int) -> AppPlan:
    return AppPlan(
        registry=build_truss_registry(problem),
        config=simple_configuration(1, 2, force_pes,
                                    name=f"truss-force-{force_pes + 1}"),
        tasktype="TRUSS")


def run_truss(n_panels: int = 4, force_pes: int = 3,
              machine: Optional[FlexMachine] = None,
              problem: Optional[TrussProblem] = None) -> TrussResult:
    """Solve a truss with a force of ``force_pes + 1`` members."""
    prob = problem or pratt_truss(n_panels=n_panels)
    r = truss_plan(prob, force_pes).run(machine)
    uf, iters, resid = r.value
    _, _, free = prob.reduced_system()
    u = Grid.zeros(prob.n_dof)
    for d, v in zip(free, uf):
        u[d] = v
    mid_node = (len([nd for nd in prob.nodes if nd[1] == 0.0]) - 1) // 2
    return TrussResult(displacements=u,
                       midspan_deflection=float(u[2 * mid_node + 1]),
                       iterations=iters, elapsed=r.elapsed,
                       residual=resid, vm=r.vm)
