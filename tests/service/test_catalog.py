"""The app catalog: every entry builds deterministically from params."""

import threading
from dataclasses import replace

import pytest

from repro.apps import (chaos_jacobi, fem, integrate, jacobi, matmul,
                        pipeline, truss)
from repro.core.supervision import Supervision
from repro.errors import InvalidRunSpec
from repro.service import catalog, executor
from repro.service.spec import RunSpec
from tests.service.test_imports import ALL_APP_SPECS

FORTRAN_SOURCE = """\
      TASK HELLO
      INTEGER N
      N = 2 + 3
      END TASK
"""


class TestBuild:

    @pytest.mark.parametrize("app", catalog.app_names())
    def test_every_app_builds_with_defaults(self, app):
        if app == "fortran":
            spec = RunSpec(app=app, params={"source": FORTRAN_SOURCE})
        else:
            spec = RunSpec(app=app)
        plan = catalog.build(spec)
        assert plan.tasktype in plan.registry.names()
        assert plan.config.cluster_numbers()

    def test_unknown_app_refused(self):
        with pytest.raises(InvalidRunSpec, match="unknown app"):
            catalog.build(RunSpec(app="fluid_dynamics"))

    def test_unknown_param_refused(self):
        with pytest.raises(InvalidRunSpec, match="does not take"):
            catalog.build(RunSpec(app="jacobi", params={"grid_size": 9}))

    @pytest.mark.parametrize("params", [
        {"rounds": "x"}, {"rounds": 1.5}, {"rounds": True},
        {"ticks_per_round": None}, {"rounds": [3]}])
    def test_ill_typed_int_param_refused(self, params):
        with pytest.raises(InvalidRunSpec, match="must be int"):
            catalog.build(RunSpec(app="spin", params=params))

    def test_float_param_takes_int_or_float_but_not_bool(self):
        for a in (1, 1.5):
            catalog.build(RunSpec(app="integrate", params={"a": a}))
        for a in (True, "1.0"):
            with pytest.raises(InvalidRunSpec, match="must be a number"):
                catalog.build(RunSpec(app="integrate", params={"a": a}))

    def test_str_and_list_params_are_type_checked(self):
        with pytest.raises(InvalidRunSpec, match="must be str"):
            catalog.build(RunSpec(app="chaos_jacobi",
                                  params={"supervision": 1}))
        with pytest.raises(InvalidRunSpec, match="must be list"):
            catalog.build(RunSpec(app="fortran", params={
                "source": FORTRAN_SOURCE, "args": "12"}))
        catalog.build(RunSpec(app="fortran", params={
            "source": FORTRAN_SOURCE, "args": (), "tasktype": "HELLO"}))

    def test_build_is_pure_in_params(self):
        spec = RunSpec(app="matmul", params={"n": 8, "n_workers": 2})
        a, b = catalog.build(spec), catalog.build(spec)
        assert a.config == b.config
        assert a.tasktype == b.tasktype and a.args == b.args
        assert a.registry.names() == b.registry.names()

    def test_every_app_plan_uses_a_pe(self):
        for app in catalog.app_names():
            if app == "fortran":
                spec = RunSpec(app=app, params={"source": FORTRAN_SOURCE})
            else:
                spec = RunSpec(app=app)
            assert len(catalog.build(spec).config.used_pes()) >= 1

    def test_force_apps_cost_their_secondaries(self):
        def pes(spec):
            return len(catalog.build(spec).config.used_pes())

        assert pes(RunSpec(app="jacobi_force", params={"force_pes": 3})) \
            > pes(RunSpec(app="spin"))


class TestFortran:

    def test_source_builds_registry(self):
        plan = catalog.build(RunSpec(app="fortran",
                                     params={"source": FORTRAN_SOURCE}))
        assert plan.tasktype == "HELLO"

    def test_empty_source_refused(self):
        with pytest.raises(InvalidRunSpec, match="params.source"):
            catalog.build(RunSpec(app="fortran"))

    def test_garbage_source_refused(self):
        with pytest.raises(InvalidRunSpec, match="did not preprocess"):
            catalog.build(RunSpec(app="fortran",
                                  params={"source": "*** not fortran ((("}))

    def test_unknown_tasktype_refused(self):
        with pytest.raises(InvalidRunSpec, match="not defined"):
            catalog.build(RunSpec(app="fortran",
                                  params={"source": FORTRAN_SOURCE,
                                          "tasktype": "MAIN"}))


class TestChaosParams:

    def test_supervision_strings(self):
        plan = catalog.build(RunSpec(app="chaos_jacobi",
                                     params={"supervision": "restart"}))
        assert plan.tasktype == "CMASTER"

    def test_bad_supervision_refused(self):
        with pytest.raises(InvalidRunSpec):
            catalog.build(RunSpec(app="chaos_jacobi",
                                  params={"supervision": "resurrect"}))

    def test_bad_on_death_refused(self):
        with pytest.raises(InvalidRunSpec):
            catalog.build(RunSpec(app="chaos_jacobi",
                                  params={"on_death": "panic"}))


class TestFaultPlan:

    def test_plan_carries_the_parsed_fault_plan(self):
        from repro.faults import FaultPlan, TaskKill, dumps

        fp = FaultPlan(seed=7, kills=(TaskKill(at=5_000,
                                               tasktype="CWORKER"),))
        plan = catalog.build(RunSpec(app="chaos_jacobi",
                                     fault_plan=dumps(fp)))
        assert dumps(plan.fault_plan) == dumps(fp)
        assert catalog.build(RunSpec(app="spin")).fault_plan is None

    def test_unparsable_fault_plan_refused(self):
        with pytest.raises(InvalidRunSpec, match="fault_plan did not parse"):
            catalog.build(RunSpec(app="spin", fault_plan="crash at=x"))

    def test_host_kill_refused(self):
        """A served run executes in the service process, which a host
        kill would SIGKILL.  Library plans keep :class:`HostKill`."""
        with pytest.raises(InvalidRunSpec, match="hostkill"):
            catalog.build(RunSpec(app="spin", fault_plan="hostkill at 10"))


def test_spin_runs_and_charges_virtual_time():
    from repro.core.vm import PiscesVM
    plan = catalog.build(RunSpec(app="spin",
                                 params={"rounds": 10,
                                         "ticks_per_round": 7}))
    vm = PiscesVM(plan.config, registry=plan.registry)
    r = vm.run(plan.tasktype, *plan.args)
    assert r.value == 10
    assert r.elapsed >= 70


#: Each library app: its ``run_*`` entry point called with catalog
#: params, the catalog's defaults spelled out, and one other set.
LIBRARY_APPS = {
    "jacobi": (
        lambda p: jacobi.run_jacobi_windows(p["n"], p["sweeps"],
                                            p["n_workers"]),
        dict(n=20, sweeps=3, n_workers=3),
        dict(n=12, sweeps=2, n_workers=5)),
    "jacobi_force": (
        lambda p: jacobi.run_jacobi_force(p["n"], p["sweeps"],
                                          p["force_pes"]),
        dict(n=20, sweeps=3, force_pes=3),
        dict(n=12, sweeps=2, force_pes=0)),
    "matmul": (
        lambda p: matmul.run_matmul_tasks(p["n"], p["n_workers"],
                                          p["n_clusters"]),
        dict(n=16, n_workers=3, n_clusters=2),
        dict(n=12, n_workers=4, n_clusters=3)),
    "integrate": (
        lambda p: integrate.run_integrate(
            p["pieces"], p["points_per_piece"], p["n_workers"],
            p["n_clusters"], a=p["a"], b=p["b"]),
        dict(pieces=12, points_per_piece=6, n_workers=3, n_clusters=2,
             a=0.0, b=3.0),
        dict(pieces=8, points_per_piece=4, n_workers=2, n_clusters=3,
             a=1.0, b=2.5)),
    "pipeline": (
        lambda p: pipeline.run_pipeline(p["n_stages"], range(p["n_items"]),
                                        p["n_clusters"], p["slots"]),
        dict(n_stages=3, n_items=10, n_clusters=2, slots=4),
        dict(n_stages=2, n_items=6, n_clusters=3, slots=2)),
    "fem": (
        lambda p: fem.run_fem(p["n_elements"], p["force_pes"]),
        dict(n_elements=12, force_pes=3),
        dict(n_elements=8, force_pes=1)),
    "truss": (
        lambda p: truss.run_truss(p["n_panels"], p["force_pes"]),
        dict(n_panels=4, force_pes=3),
        dict(n_panels=2, force_pes=5)),
    "chaos_jacobi": (
        lambda p: chaos_jacobi.run_chaos_jacobi(
            p["n"], p["sweeps"], p["n_workers"],
            supervision=(None if p["supervision"] == "none" else
                         Supervision(policy=p["supervision"],
                                     max_restarts=3, backoff_ticks=1_000)),
            on_death=p["on_death"]),
        dict(n=20, sweeps=3, n_workers=3, supervision="none",
             on_death="abort"),
        dict(n=12, sweeps=2, n_workers=2, supervision="restart",
             on_death="reassign")),
}


def test_library_apps_are_every_catalog_app_but_spin_and_fortran():
    assert sorted(LIBRARY_APPS) == sorted(
        set(catalog.app_names()) - {"spin", "fortran"})


@pytest.mark.parametrize("at_defaults", [True, False],
                         ids=["defaults", "other"])
@pytest.mark.parametrize("app", sorted(LIBRARY_APPS))
def test_library_run_and_served_run_are_the_same_run(app, at_defaults):
    """``run_<app>`` and the catalog plan the service runs boot the same
    configuration and take the same virtual time.  The served VM differs
    only by the run toggles the executor sets on every plan."""
    run, defaults, other = LIBRARY_APPS[app]
    spec = RunSpec(app=app, params={} if at_defaults else other)
    lib = run(defaults if at_defaults else other)
    served = executor.standalone_run(spec)
    toggles = {name: getattr(served.vm.config, name)
               for name in ("trace_events", "metrics_enabled", "run_seed")}
    assert served.vm.config == replace(lib.vm.config, **toggles)
    assert served.elapsed == lib.elapsed


@pytest.mark.parametrize("name", sorted(ALL_APP_SPECS))
def test_every_catalog_run_starts_no_thread(name, monkeypatch):
    """Every catalog app, Fortran included, runs its tasks, force
    members and controllers as coroutine processes: a run starts no
    thread."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    result = executor.standalone_run(RunSpec.from_dict(ALL_APP_SPECS[name]))
    assert result.elapsed > 0
    assert started == []
