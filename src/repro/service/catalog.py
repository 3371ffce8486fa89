"""The service's app catalog: named, rebuildable PISCES applications.

The run service never accepts code from tenants -- it accepts a
*name* plus JSON parameters (or, for ``"fortran"``, Pisces Fortran
source text, which the preprocessor turns into a registry).  Each
catalog entry is a pure function from parameters to an
:class:`~repro.core.vm.AppPlan`: the task registry, the machine
configuration, the root ``(tasktype, args)`` to run and the parsed
fault plan.  A served run is built once, at submit, and executes that
plan.

An entry holds only the tenant-facing part: parameter defaults, type
checks and the mapping of JSON values onto the app's arguments.  The
plan function its app's ``run_*`` entry point calls decides the rest;
``spin`` and ``fortran`` exist only here and are planned here.

Rebuildability is the point, not a convenience: a run interrupted by a
service crash is resumed from its latest ``.pckpt`` checkpoint, and
:func:`repro.api.restore_vm` needs the *identical* registry to attach
restored tasks to.  Because every entry here is deterministic in its
parameters, replaying ``catalog.build(spec)`` in a fresh process
yields that registry.

Importing the catalog is cheap: each builder imports its app module
(and through it the engine and, for the array apps, numpy) when it
first builds, so a service that has only booted holds none of them.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from ..config.configuration import simple_configuration
from ..errors import ConfigurationError, InvalidRunSpec
from ..flex.presets import nasa_langley_flex32
from .spec import RunSpec

if TYPE_CHECKING:
    from ..core.task import TaskRegistry
    from ..core.vm import AppPlan


def _same_type(value: Any, default: Any) -> bool:
    """Whether ``value`` may stand in for ``default``: an int default
    takes an int only, a float default an int or a float, a list default
    a list or a tuple; a bool is never a number, nor a number a bool."""
    if isinstance(value, bool) is not isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, (list, tuple))
    return isinstance(value, type(default))


def _params(spec: RunSpec, allowed: Dict[str, Any]) -> Dict[str, Any]:
    """Merge spec params over defaults, refusing unknown keys and values
    of another type than the default's."""
    unknown = sorted(set(spec.params) - set(allowed))
    if unknown:
        raise InvalidRunSpec(
            f"app {spec.app!r} does not take parameter(s) "
            f"{', '.join(unknown)} (takes: {', '.join(sorted(allowed))})")
    for name, value in sorted(spec.params.items()):
        default = allowed[name]
        if not _same_type(value, default):
            want = ("a number" if isinstance(default, float)
                    else type(default).__name__)
            raise InvalidRunSpec(
                f"app {spec.app!r} parameter {name!r} must be {want}, "
                f"got {value!r}")
    merged = dict(allowed)
    merged.update(spec.params)
    return merged


# ------------------------------------------------------------- builders ----


def _build_jacobi(spec: RunSpec) -> AppPlan:
    from ..apps import jacobi

    p = _params(spec, dict(n=20, sweeps=3, n_workers=3))
    return jacobi.windows_plan(p["n"], p["sweeps"], p["n_workers"])


def _build_jacobi_force(spec: RunSpec) -> AppPlan:
    from ..apps import jacobi

    p = _params(spec, dict(n=20, sweeps=3, force_pes=3))
    return jacobi.force_plan(p["n"], p["sweeps"], p["force_pes"])


def _build_matmul(spec: RunSpec) -> AppPlan:
    from ..apps import matmul

    p = _params(spec, dict(n=16, n_workers=3, n_clusters=2))
    return matmul.tasks_plan(p["n"], p["n_workers"], p["n_clusters"])


def _build_integrate(spec: RunSpec) -> AppPlan:
    from ..apps import integrate

    p = _params(spec, dict(pieces=12, points_per_piece=6, n_workers=3,
                           n_clusters=2, a=0.0, b=3.0))
    return integrate.integrate_plan(
        p["pieces"], p["points_per_piece"], p["n_workers"], p["n_clusters"],
        integrate.default_integrand, float(p["a"]), float(p["b"]))


def _build_pipeline(spec: RunSpec) -> AppPlan:
    from ..apps import pipeline

    p = _params(spec, dict(n_stages=3, n_items=10, n_clusters=2, slots=4))
    return pipeline.pipeline_plan(p["n_stages"], list(range(p["n_items"])),
                                  p["n_clusters"], p["slots"])


def _build_fem(spec: RunSpec) -> AppPlan:
    from ..apps import fem

    p = _params(spec, dict(n_elements=12, force_pes=3))
    return fem.fem_plan(fem.FEMProblem(n_elements=p["n_elements"]),
                        p["force_pes"])


def _build_truss(spec: RunSpec) -> AppPlan:
    from ..apps import truss

    p = _params(spec, dict(n_panels=4, force_pes=3))
    return truss.truss_plan(truss.pratt_truss(n_panels=p["n_panels"]),
                            p["force_pes"])


def _build_chaos_jacobi(spec: RunSpec) -> AppPlan:
    from ..apps import chaos_jacobi
    from ..core.supervision import Supervision

    p = _params(spec, dict(n=20, sweeps=3, n_workers=3, supervision="none",
                           max_restarts=3, backoff_ticks=1_000,
                           on_death="abort", resend_delay=8_000,
                           idle_timeout=60_000, max_rounds=200))
    if p["on_death"] not in ("abort", "reassign"):
        raise InvalidRunSpec("on_death must be abort|reassign")
    sup = None
    if p["supervision"] != "none":
        if p["supervision"] not in ("notify", "restart"):
            raise InvalidRunSpec("supervision must be none|notify|restart")
        sup = Supervision(policy=p["supervision"],
                          max_restarts=p["max_restarts"],
                          backoff_ticks=p["backoff_ticks"])
    return chaos_jacobi.chaos_plan(
        p["n"], p["sweeps"], p["n_workers"], sup, p["on_death"],
        p["resend_delay"], p["idle_timeout"], p["max_rounds"])


def build_spin_registry(rounds: int, ticks_per_round: int) -> TaskRegistry:
    """A synthetic app: one task computing in small slices.

    Exists for the service's own sake -- its duration is controllable
    (``rounds`` engine slices, each costing ``ticks_per_round`` virtual
    ticks), so tests can hold a worker busy long enough to exercise the
    kill endpoint, quota limits and fair-share ordering.
    """
    from ..core.task import TaskRegistry

    reg = TaskRegistry()

    @reg.tasktype("SPIN")
    def spin(ctx, rounds, ticks):
        done = 0
        for _ in range(rounds):
            yield from ctx.compute(ticks)
            done += 1
        return done

    return reg


def _build_spin(spec: RunSpec) -> AppPlan:
    from ..core.vm import AppPlan

    p = _params(spec, dict(rounds=100, ticks_per_round=50))
    return AppPlan(
        registry=build_spin_registry(p["rounds"], p["ticks_per_round"]),
        config=simple_configuration(1, 2, name="spin"),
        tasktype="SPIN", args=(p["rounds"], p["ticks_per_round"]))


def _build_fortran(spec: RunSpec) -> AppPlan:
    from ..core.vm import AppPlan
    from ..fortran.preprocessor import preprocess

    p = _params(spec, dict(source="", tasktype="", args=[],
                           n_clusters=2, slots=4))
    if not p["source"]:
        raise InvalidRunSpec("fortran app needs params.source (program text)")
    try:
        program = preprocess(p["source"])
    except Exception as e:            # surface lex/parse errors as 400s
        raise InvalidRunSpec(f"fortran source did not preprocess: {e}") from e
    names = program.task_names()
    tasktype = p["tasktype"] or (names[0] if names else "")
    if tasktype not in names:
        raise InvalidRunSpec(
            f"tasktype {tasktype!r} not defined by the source "
            f"(defines: {', '.join(names) or 'none'})")
    return AppPlan(
        registry=program.registry,
        config=simple_configuration(p["n_clusters"], p["slots"],
                                    name="fortran"),
        tasktype=tasktype, args=tuple(p["args"]))


#: Name -> builder.  Every builder is deterministic in the spec params.
APPS: Dict[str, Callable[[RunSpec], AppPlan]] = {
    "jacobi": _build_jacobi,
    "jacobi_force": _build_jacobi_force,
    "matmul": _build_matmul,
    "integrate": _build_integrate,
    "pipeline": _build_pipeline,
    "fem": _build_fem,
    "truss": _build_truss,
    "chaos_jacobi": _build_chaos_jacobi,
    "spin": _build_spin,
    "fortran": _build_fortran,
}


#: Held while a plan is built and wherever the service imports engine
#: modules lazily.  The first build imports the engine, and two threads
#: entering its mutually importing modules at once can find one half
#: initialized ("cannot import name 'Task' from partially initialized
#: module 'repro.core.task'"), which failed a submit with HTTP 500.
IMPORT_LOCK = threading.RLock()


def app_names() -> Tuple[str, ...]:
    return tuple(sorted(APPS))


def build(spec: RunSpec) -> AppPlan:
    """Build the plan for ``spec`` (raises :class:`InvalidRunSpec`)."""
    try:
        builder = APPS[spec.app]
    except KeyError:
        raise InvalidRunSpec(
            f"unknown app {spec.app!r} "
            f"(catalog: {', '.join(app_names())})") from None
    with IMPORT_LOCK:
        try:
            plan = builder(spec)
            # The machine every served run boots on (PiscesVM's default):
            # a configuration it cannot hold is refused here, at submit,
            # not at VM boot.
            plan.config.validate(nasa_langley_flex32().spec)
        except ConfigurationError as e:     # e.g. more slots than a cluster has
            raise InvalidRunSpec(f"app {spec.app!r}: {e}") from e
        if not spec.fault_plan:
            return plan
        from ..faults.plan import loads
    try:
        fault_plan = loads(spec.fault_plan)
    except Exception as e:            # any parse failure is a 400
        raise InvalidRunSpec(f"fault_plan did not parse: {e}") from e
    if fault_plan.host_kills:
        # A host kill SIGKILLs the process executing the run, which
        # for a served run is the service: every reboot would recover
        # the run and die again.
        raise InvalidRunSpec(
            "fault_plan: hostkill would SIGKILL the service process; "
            "a served run may not carry one")
    return replace(plan, fault_plan=fault_plan)
