"""Application workloads used by the examples and benchmarks.

Each name resolves on first access (PEP 562), so importing one app --
``pipeline`` or ``integrate``, which hold no arrays -- does not load the
others, nor numpy through them.

Each app the service catalog serves decides its configuration in one
plan function of its module (``jacobi.windows_plan``, ...), which its
``run_*`` entry point and its catalog entry both call.
"""

from .. import lazy_exports

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

#: Public name -> the app module that defines it.
_LAZY = {
    "fortran_programs": "fortran_programs",
    **dict.fromkeys(("FEMProblem", "FEMResult", "build_fem_registry",
                     "run_fem"), "fem"),
    **dict.fromkeys(("IntegrateResult", "build_integrate_registry",
                     "default_integrand", "run_integrate"), "integrate"),
    **dict.fromkeys(("JacobiResult", "build_force_registry",
                     "build_windows_registry", "make_problem",
                     "reference_solution", "run_jacobi_force",
                     "run_jacobi_windows"), "jacobi"),
    **dict.fromkeys(("MatmulResult", "make_inputs", "run_matmul_force",
                     "run_matmul_hybrid", "run_matmul_tasks"), "matmul"),
    **dict.fromkeys(("PipelineResult", "build_pipeline_registry",
                     "run_pipeline"), "pipeline"),
    **dict.fromkeys(("TrussProblem", "TrussResult", "build_truss_registry",
                     "pratt_truss", "run_truss"), "truss"),
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
