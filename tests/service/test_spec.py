"""RunSpec: validation, JSON round-trip and legacy execution axes."""

import pytest

from repro.errors import InvalidRunSpec
from repro.service.spec import RunSpec


class TestRoundTrip:

    def test_defaults_round_trip(self):
        s = RunSpec(app="jacobi")
        assert RunSpec.from_dict(s.to_dict()) == s

    def test_full_round_trip(self):
        s = RunSpec(app="chaos_jacobi", params={"n": 16, "sweeps": 2},
                    fault_plan="pisces-fault-plan v1\n", trace=True,
                    checkpoint_every=5000, run_seed=42)
        assert RunSpec.from_dict(s.to_dict()) == s

    def test_legacy_axes_accepted_and_dropped(self):
        """Specs written before the execution axes collapsed still
        load; every old choice had the same virtual history."""
        s = RunSpec.from_dict({"app": "jacobi", "exec_core": "threaded",
                               "window_path": "batched",
                               "task_bodies": "callable"})
        assert s == RunSpec(app="jacobi")
        for window_path in ("", "fast", "batched", "reference"):
            for task_bodies in ("", "auto", "callable"):
                s = RunSpec.from_dict({"app": "spin",
                                       "window_path": window_path,
                                       "task_bodies": task_bodies})
                assert s == RunSpec(app="spin")
                assert "window_path" not in s.to_dict()

    def test_dict_is_json_stable(self):
        import json
        s = RunSpec(app="spin", params={"rounds": 5})
        assert json.loads(json.dumps(s.to_dict())) == s.to_dict()


class TestValidation:

    def test_missing_app_refused(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec(app="")

    def test_unknown_field_refused(self):
        with pytest.raises(InvalidRunSpec, match="unknown spec field"):
            RunSpec.from_dict({"app": "jacobi", "sweeps": 3})

    def test_bad_exec_core_refused(self):
        with pytest.raises(InvalidRunSpec, match="exec_core"):
            RunSpec.from_dict({"app": "jacobi", "exec_core": "quantum"})

    def test_bad_window_path_refused(self):
        with pytest.raises(InvalidRunSpec, match="window_path"):
            RunSpec.from_dict({"app": "jacobi", "window_path": "slow"})

    def test_bad_task_bodies_refused(self):
        with pytest.raises(InvalidRunSpec, match="task_bodies"):
            RunSpec.from_dict({"app": "jacobi", "task_bodies": "threads"})

    @pytest.mark.parametrize("field,value", [
        ("run_seed", [1]),
        ("run_seed", "7"),
        ("run_seed", True),
        ("checkpoint_every", True),
        ("checkpoint_every", 1.5),
        ("trace", "no"),
        ("trace", 0),
    ])
    def test_ill_typed_field_refused(self, field, value):
        with pytest.raises(InvalidRunSpec, match=field):
            RunSpec.from_dict({"app": "spin", field: value})

    def test_negative_checkpoint_refused(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec(app="jacobi", checkpoint_every=-1)

    def test_params_must_be_object(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec(app="jacobi", params=[1, 2])

    def test_non_dict_refused(self):
        with pytest.raises(InvalidRunSpec):
            RunSpec.from_dict(["jacobi"])


def test_fingerprint_elides_source():
    s = RunSpec(app="fortran", params={"source": "X" * 999, "slots": 2})
    app, params = s.fingerprint()
    assert app == "fortran"
    assert "999" not in params and "slots=2" in params
