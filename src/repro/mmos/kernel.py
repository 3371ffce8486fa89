"""MMOS syscall facade: the few services PISCES uses from the kernel.

Per section 11, PISCES calls MMOS "for only a few activities, primarily
process creation and termination, input/output to the terminal, and
swapping the CPU among ready processes".  This module packages those as
an object so the run-time library never touches the engine directly.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..flex.machine import FlexMachine
from .process import DEFAULT_KERNEL_COST, KernelProcess, co_preempt
from .scheduler import Engine

#: Tick costs of kernel services (arbitrary units; relative magnitudes
#: follow the usual ordering: process creation >> I/O >> a CPU swap).
COST_PROCESS_CREATE = 200
COST_PROCESS_EXIT = 50
COST_TERMINAL_IO = 20
COST_CPU_SWAP = DEFAULT_KERNEL_COST

#: Interned op tuples for the common compute costs (see
#: :meth:`MMOSKernel.compute_ops`; ops and tuples are both read-only).
_COMPUTE_OPS = {t: (co_preempt(t),) for t in range(33)}


class MMOSKernel:
    """Kernel services for one machine."""

    def __init__(self, machine: FlexMachine, time_limit: Optional[int] = None,
                 schedule=None):
        self.machine = machine
        self.engine = Engine(machine, time_limit=time_limit, schedule=schedule)
        self.console: List[Tuple[int, int, str]] = []
        #: Optional live sink for terminal output (the execution
        #: environment hooks this to echo to the real screen).
        self.console_sink: Optional[Callable[[int, int, str], None]] = None

    # ----------------------------------------------------------- syscalls --

    def create_process(self, name: str, pe: int, target: Callable[[], Any],
                       *, daemon: bool = False) -> KernelProcess:
        """Create a process; charges the caller when inside a process."""
        if self.engine.in_process():
            self.engine.charge(COST_PROCESS_CREATE)
        p = self.engine.spawn(name, pe, target, daemon=daemon)
        return p

    def write_terminal(self, text: str) -> None:
        """Terminal output from the current process (PRINT in Pisces
        Fortran); recorded with the virtual timestamp."""
        eng = self.engine
        pid = eng.current().pid if eng.in_process() else 0
        eng.charge(COST_TERMINAL_IO) if eng.in_process() else None
        t = eng.now()
        self.console.append((t, pid, text))
        if self.console_sink is not None:
            self.console_sink(t, pid, text)

    def swap(self) -> None:
        """Voluntarily give up the CPU (a scheduling point)."""
        self.engine.preempt(COST_CPU_SWAP)

    def compute(self, ticks: int) -> None:
        """Charge pure computation and allow a CPU swap afterwards.

        One preempt carrying the cost: identical slice accounting to
        ``charge(ticks)`` + ``preempt(0)``, half the kernel calls."""
        if ticks < 0:
            raise ValueError("cannot charge negative ticks")
        self.engine.preempt(ticks)

    def compute_ops(self, ticks: int) -> Tuple:
        """Coroutine form of :meth:`compute`: the swap point is a
        yielded :class:`~repro.mmos.process.KernelOp` instead of a
        blocking call, so the op stream is identical on both cores.

        Returns a (usually interned) 1-tuple rather than a generator: a
        coroutine body ``yield from``s it, which iterates at C level
        with no generator frame on the per-dispatch hot path.  The
        single preempt op carries the compute cost -- the cost lands in
        ``pending_cost`` before the slice settles, exactly like
        ``charge(ticks)`` followed by ``preempt(0)``, so virtual time is
        bit-identical."""
        ops = _COMPUTE_OPS.get(ticks)
        if ops is None:
            if ticks < 0:
                raise ValueError("cannot charge negative ticks")
            ops = (co_preempt(ticks),)
        return ops

    # --------------------------------------------------------- inspection --

    def console_text(self) -> str:
        return "\n".join(line for _, _, line in self.console)
