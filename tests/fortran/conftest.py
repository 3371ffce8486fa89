"""The Fortran program runner: every run on both task-body vehicles."""

import pytest

from repro.fortran import preprocess
from tests.oracles import TASK_BODIES, oracle_leg


@pytest.fixture
def run_fortran(make_vm):
    """Preprocess ``src`` and run ``task`` once on each task-body
    vehicle: coroutines on the engine thread (production) and the same
    generator bodies driven on worker threads (the oracle).  Both runs
    must give the same elapsed ticks, trace and console; returns the
    production run's ``(result, vm)``.  ``setup(vm)`` runs before each
    run."""
    def runner(src, task, *args, config=None, setup=None):
        registry = preprocess(src).registry
        runs = []
        for bodies in TASK_BODIES:
            with oracle_leg(task_bodies=bodies):
                vm = make_vm(config=config, registry=registry)
                if setup:
                    setup(vm)
                runs.append((vm.run(task, *args), vm))
        (r, vm), (oracle, oracle_vm) = runs
        assert r.elapsed == oracle.elapsed
        assert ([e.line() for e in vm.tracer.events]
                == [e.line() for e in oracle_vm.tracer.events])
        assert r.console == oracle.console
        return r, vm
    return runner
