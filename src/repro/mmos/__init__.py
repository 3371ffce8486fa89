"""MMOS kernel simulation: processes, deterministic scheduler, loadfiles."""

from .kernel import (
    COST_CPU_SWAP,
    COST_PROCESS_CREATE,
    COST_PROCESS_EXIT,
    COST_TERMINAL_IO,
    MMOSKernel,
)
from .loader import (
    CAT_MMOS_KERNEL,
    CAT_PISCES_CODE,
    CAT_PISCES_DATA,
    CAT_USER_CODE,
    CAT_USER_DATA,
    PISCES_SYSTEM_CATEGORIES,
    Loadfile,
)
from .process import DEFAULT_KERNEL_COST, KernelProcess, ProcState
from .scheduler import Engine

__all__ = [
    "CAT_MMOS_KERNEL",
    "CAT_PISCES_CODE",
    "CAT_PISCES_DATA",
    "CAT_USER_CODE",
    "CAT_USER_DATA",
    "COST_CPU_SWAP",
    "COST_PROCESS_CREATE",
    "COST_PROCESS_EXIT",
    "COST_TERMINAL_IO",
    "DEFAULT_KERNEL_COST",
    "Engine",
    "KernelProcess",
    "Loadfile",
    "MMOSKernel",
    "PISCES_SYSTEM_CATEGORIES",
    "ProcState",
]
