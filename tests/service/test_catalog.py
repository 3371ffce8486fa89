"""The app catalog: every entry builds deterministically from params."""

import pytest

from repro.errors import InvalidRunSpec
from repro.service import catalog
from repro.service.spec import RunSpec

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

    def test_pe_cost_positive_for_all_apps(self):
        for app in catalog.app_names():
            if app == "fortran":
                spec = RunSpec(app=app, params={"source": FORTRAN_SOURCE})
            else:
                spec = RunSpec(app=app)
            assert catalog.pe_cost(spec) >= 1

    def test_force_apps_cost_their_secondaries(self):
        assert catalog.pe_cost(RunSpec(app="jacobi_force",
                                       params={"force_pes": 3})) \
            > catalog.pe_cost(RunSpec(app="spin"))


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


def test_spin_runs_and_charges_virtual_time():
    from repro.core.vm import PiscesVM
    plan = catalog.build(RunSpec(app="spin",
                                 params={"rounds": 10,
                                         "ticks_per_round": 7}))
    vm = PiscesVM(plan.config, registry=plan.registry)
    r = vm.run(plan.tasktype, *plan.args)
    assert r.value == 10
    assert r.elapsed >= 70
