"""The service's app catalog: named, rebuildable PISCES applications.

The run service never accepts code from tenants -- it accepts a
*name* plus JSON parameters (or, for ``"fortran"``, Pisces Fortran
source text, which the preprocessor turns into a registry).  Each
catalog entry is a pure function from parameters to an
:class:`AppPlan`: the task registry, the machine configuration, and
the root ``(tasktype, args)`` to run.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from ..config.configuration import ClusterSpec, Configuration
from ..errors import InvalidRunSpec
from .spec import RunSpec

if TYPE_CHECKING:
    from ..core.task import TaskRegistry


@dataclass(frozen=True)
class AppPlan:
    """Everything needed to boot and run one catalog app."""

    registry: TaskRegistry
    config: Configuration
    tasktype: str
    args: Tuple[Any, ...] = ()


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


def _task_clusters(n_clusters: int, slots: int, name: str) -> Configuration:
    """The task-parallel apps' standard shape: ``n_clusters`` clusters
    on primary PEs 3, 4, ... (matches the app entry points)."""
    clusters = tuple(ClusterSpec(number=i, primary_pe=2 + i, slots=slots)
                     for i in range(1, n_clusters + 1))
    return Configuration(clusters=clusters, name=name)


def _force_cluster(force_pes: int, name: str) -> Configuration:
    """The force apps' shape: one cluster, ``force_pes`` secondaries."""
    return Configuration(
        clusters=(ClusterSpec(number=1, primary_pe=3, slots=2,
                              secondary_pes=tuple(range(4, 4 + force_pes))),),
        name=name)


# ------------------------------------------------------------- builders ----


def _build_jacobi(spec: RunSpec) -> AppPlan:
    from ..apps import jacobi

    p = _params(spec, dict(n=20, sweeps=3, n_workers=3))
    return AppPlan(
        registry=jacobi.build_windows_registry(p["n"], p["sweeps"],
                                               p["n_workers"]),
        config=_task_clusters(2, max(2, p["n_workers"]), "jacobi-windows"),
        tasktype="JMASTER")


def _build_jacobi_force(spec: RunSpec) -> AppPlan:
    from ..apps import jacobi

    p = _params(spec, dict(n=20, sweeps=3, force_pes=3))
    return AppPlan(
        registry=jacobi.build_force_registry(p["n"], p["sweeps"]),
        config=_force_cluster(p["force_pes"],
                              f"jacobi-force-{p['force_pes'] + 1}"),
        tasktype="JFORCE", args=(p["n"], p["sweeps"]))


def _build_matmul(spec: RunSpec) -> AppPlan:
    from ..apps import matmul

    p = _params(spec, dict(n=16, n_workers=3, n_clusters=2))
    return AppPlan(
        registry=matmul.build_tasks_registry(p["n"], p["n_workers"]),
        config=_task_clusters(p["n_clusters"], max(2, p["n_workers"]),
                              "matmul-tasks"),
        tasktype="MMASTER")


def _build_integrate(spec: RunSpec) -> AppPlan:
    from ..apps import integrate

    p = _params(spec, dict(pieces=12, points_per_piece=6, n_workers=3,
                           n_clusters=2, a=0.0, b=3.0))
    return AppPlan(
        registry=integrate.build_integrate_registry(
            integrate.default_integrand, float(p["a"]), float(p["b"]),
            p["pieces"], p["points_per_piece"], p["n_workers"]),
        config=_task_clusters(p["n_clusters"], max(2, p["n_workers"]),
                              "integrate"),
        tasktype="IMASTER")


def _build_pipeline(spec: RunSpec) -> AppPlan:
    from ..apps import pipeline

    p = _params(spec, dict(n_stages=3, n_items=10, n_clusters=2, slots=4))
    return AppPlan(
        registry=pipeline.build_pipeline_registry(
            p["n_stages"], list(range(p["n_items"]))),
        config=_task_clusters(p["n_clusters"], p["slots"], "pipeline"),
        tasktype="COORD")


def _build_fem(spec: RunSpec) -> AppPlan:
    from ..apps import fem

    p = _params(spec, dict(n_elements=12, force_pes=3))
    prob = fem.FEMProblem(n_elements=p["n_elements"])
    return AppPlan(
        registry=fem.build_fem_registry(prob),
        config=_force_cluster(p["force_pes"],
                              f"fem-force-{p['force_pes'] + 1}"),
        tasktype="FEM")


def _build_truss(spec: RunSpec) -> AppPlan:
    from ..apps import truss

    p = _params(spec, dict(n_panels=4, force_pes=3))
    prob = truss.pratt_truss(n_panels=p["n_panels"])
    return AppPlan(
        registry=truss.build_truss_registry(prob),
        config=_force_cluster(p["force_pes"],
                              f"truss-force-{p['force_pes'] + 1}"),
        tasktype="TRUSS")


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
    clusters = tuple(ClusterSpec(number=i, primary_pe=2 + i,
                                 slots=max(2, p["n_workers"]) + 1)
                     for i in range(1, 3))
    return AppPlan(
        registry=chaos_jacobi.build_chaos_registry(
            p["n"], p["sweeps"], p["n_workers"], sup, p["on_death"],
            p["resend_delay"], p["idle_timeout"], p["max_rounds"]),
        config=Configuration(clusters=clusters, name="chaos-jacobi"),
        tasktype="CMASTER")


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
    p = _params(spec, dict(rounds=100, ticks_per_round=50))
    return AppPlan(
        registry=build_spin_registry(p["rounds"], p["ticks_per_round"]),
        config=_task_clusters(1, 2, "spin"),
        tasktype="SPIN", args=(p["rounds"], p["ticks_per_round"]))


def _build_fortran(spec: RunSpec) -> AppPlan:
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
        config=_task_clusters(p["n_clusters"], p["slots"], "fortran"),
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


_NAMES = tuple(sorted(APPS))


def app_names() -> Tuple[str, ...]:
    return _NAMES


def build(spec: RunSpec) -> AppPlan:
    """Build the plan for ``spec`` (raises :class:`InvalidRunSpec`)."""
    try:
        builder = APPS[spec.app]
    except KeyError:
        raise InvalidRunSpec(
            f"unknown app {spec.app!r} "
            f"(catalog: {', '.join(app_names())})") from None
    return builder(spec)


def pe_cost(spec: RunSpec) -> int:
    """PEs the run will occupy -- the admission scheduler's cost unit."""
    return len(build(spec).config.used_pes())
