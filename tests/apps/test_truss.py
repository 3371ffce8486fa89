"""Behavioral tests: the 2-D truss structural analysis."""

import numpy as np
import pytest

from repro.apps.truss import TrussProblem, pratt_truss, run_truss
from repro.flex.presets import small_flex


class TestProblemAssembly:
    def test_pratt_geometry(self):
        p = pratt_truss(4)
        assert len(p.nodes) == 5 + 3          # 5 bottom, 3 top
        assert p.supports == [0, 4]
        assert len(p.loads) == 3              # interior bottom joints

    def test_stiffness_symmetric_positive_semidefinite(self):
        p = pratt_truss(3)
        K = np.asarray(p.stiffness())
        assert np.allclose(K, K.T)
        Kff, _, _ = p.reduced_system()
        eig = np.linalg.eigvalsh(Kff)
        assert eig.min() > 0                   # supported => nonsingular

    def test_zero_length_element_rejected(self):
        p = TrussProblem(nodes=[(0, 0), (0, 0)],
                         elements=[(0, 1, 1.0)], supports=[0])
        with pytest.raises(ValueError):
            p.stiffness()

    def test_too_few_panels_rejected(self):
        with pytest.raises(ValueError):
            pratt_truss(1)

    def test_direct_solution_satisfies_equilibrium(self):
        p = pratt_truss(4)
        Kff, ff, free = p.reduced_system()
        u = p.direct_solution()
        assert np.allclose(np.asarray(Kff) @ np.asarray(u)[free], ff)


class TestForceSolve:
    def test_matches_direct_solution(self):
        p = pratt_truss(4)
        r = run_truss(problem=p, force_pes=3, machine=small_flex(10))
        r.vm.shutdown()
        assert np.allclose(r.displacements, p.direct_solution(),
                           atol=1e-7)
        assert r.residual < 1e-8

    def test_downward_deflection_under_gravity(self):
        r = run_truss(n_panels=4, force_pes=2, machine=small_flex(10))
        r.vm.shutdown()
        assert r.midspan_deflection < 0

    def test_force_size_does_not_change_the_answer(self):
        p = pratt_truss(3)
        sols = []
        for pes in (0, 3):
            r = run_truss(problem=p, force_pes=pes,
                          machine=small_flex(10))
            r.vm.shutdown()
            sols.append(r.displacements)
        assert np.allclose(sols[0], sols[1], atol=1e-9)

    def test_stiffer_truss_deflects_less(self):
        soft = run_truss(problem=pratt_truss(3, ea=1e4), force_pes=1,
                         machine=small_flex(10))
        soft.vm.shutdown()
        stiff = run_truss(problem=pratt_truss(3, ea=1e5), force_pes=1,
                          machine=small_flex(10))
        stiff.vm.shutdown()
        assert abs(stiff.midspan_deflection) < abs(soft.midspan_deflection)

    def test_bigger_force_is_faster_on_big_truss(self):
        p = pratt_truss(8)
        r1 = run_truss(problem=p, force_pes=0, machine=small_flex(10))
        r1.vm.shutdown()
        r4 = run_truss(problem=p, force_pes=3, machine=small_flex(10))
        r4.vm.shutdown()
        assert r4.elapsed < r1.elapsed
