"""Deterministic fault injection and failure semantics.

The paper's virtual machine assumes PEs, slots and message transport
never fail; this package makes failure a first-class, *testable* part
of the environment:

* :mod:`repro.faults.plan` -- declarative seeded :class:`FaultPlan`
  (PE crashes, task kills, lossy/duplicating/delaying/corrupting
  message transport), with the section-9 style text file format;
* :mod:`repro.faults.injector` -- the :class:`FaultInjector` that
  executes a plan against one VM deterministically;
* :mod:`repro.core.supervision` (re-exported here) -- what the system
  does about a dead task: ``NONE`` / ``NOTIFY`` / ``RESTART``.

Install a plan either explicitly::

    vm = PiscesVM(config, registry=reg, fault_plan=plan)

or ambiently, for application entry points that build their own VM::

    with plan_scope(plan):
        result = run_jacobi_windows(...)
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from .. import lazy_exports

#: Ambient plan installed by :func:`plan_scope`; consulted by
#: ``PiscesVM.__init__`` when no explicit ``fault_plan`` is given.
#: A :class:`~contextvars.ContextVar`, not a module global: concurrent
#: runs in one process (the run service's worker pool, a thread pool of
#: ``run_app`` calls) each see only the plan installed in their own
#: context, so one run's chaos plan can never leak into another's VM.
_ambient_plan: ContextVar[Optional[FaultPlan]] = ContextVar(
    "pisces_ambient_fault_plan", default=None)


@contextmanager
def plan_scope(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Install ``plan`` for every VM constructed inside the ``with``.

    Lets the chaos suite drive application entry points (which build
    their own VM internally) without changing their signatures.  The
    installation is context-local: a ``plan_scope`` entered on one
    thread is invisible to VMs constructed concurrently on others.
    """
    token = _ambient_plan.set(plan)
    try:
        yield plan
    finally:
        _ambient_plan.reset(token)


def ambient_plan() -> Optional[FaultPlan]:
    """The plan installed by the innermost :func:`plan_scope`, if any."""
    return _ambient_plan.get()


__all__ = [
    "ALWAYS_PROTECTED", "CORRUPT", "CORRUPTION_MARKER", "DELAY", "DROP",
    "DUPLICATE", "FaultEvent", "FaultInjector", "FaultPlan", "HostKill",
    "MessagePolicy", "NONE", "NOTIFY", "PECrash", "RESTART", "Supervision",
    "TaskKill", "ambient_plan", "corrupt_args", "dumps", "load", "loads",
    "plan_scope", "save",
]

#: Public name -> the submodule that defines it, imported on first
#: access: a VM built with no plan loads neither the plan format nor
#: the injector, and parsing a plan loads no engine.
_LAZY = {
    **dict.fromkeys(("NONE", "NOTIFY", "RESTART", "Supervision"),
                    ".core.supervision"),
    **dict.fromkeys(("CORRUPT", "CORRUPTION_MARKER", "DELAY", "DROP",
                     "DUPLICATE", "FaultEvent", "FaultInjector",
                     "corrupt_args"), "injector"),
    **dict.fromkeys(("ALWAYS_PROTECTED", "FaultPlan", "HostKill",
                     "MessagePolicy", "PECrash", "TaskKill", "dumps", "load",
                     "loads", "save"), "plan"),
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
