"""Application workloads used by the examples and benchmarks."""

from .fem import FEMProblem, FEMResult, build_fem_registry, run_fem
from .integrate import (
    IntegrateResult,
    build_integrate_registry,
    default_integrand,
    run_integrate,
)
from .jacobi import (
    JacobiResult,
    build_force_registry,
    build_windows_registry,
    make_problem,
    reference_solution,
    run_jacobi_force,
    run_jacobi_windows,
)
from .matmul import (
    MatmulResult,
    make_inputs,
    run_matmul_force,
    run_matmul_hybrid,
    run_matmul_tasks,
)
from .pipeline import PipelineResult, build_pipeline_registry, run_pipeline
from .truss import (
    TrussProblem,
    TrussResult,
    build_truss_registry,
    pratt_truss,
    run_truss,
)

__all__ = [
    "FEMProblem",
    "FEMResult",
    "IntegrateResult",
    "JacobiResult",
    "MatmulResult",
    "PipelineResult",
    "make_inputs",
    "run_matmul_force",
    "run_matmul_hybrid",
    "run_matmul_tasks",
    "TrussProblem",
    "TrussResult",
    "build_truss_registry",
    "pratt_truss",
    "run_truss",
    "fortran_programs",
    "build_fem_registry",
    "build_force_registry",
    "build_integrate_registry",
    "build_pipeline_registry",
    "build_windows_registry",
    "default_integrand",
    "make_problem",
    "reference_solution",
    "run_fem",
    "run_integrate",
    "run_jacobi_force",
    "run_jacobi_windows",
    "run_pipeline",
]
