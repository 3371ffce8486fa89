"""Every shipped example must run clean end to end.

Examples are executable documentation; this keeps them from rotting.
Each is executed in-process via runpy (their __main__ blocks contain
their own assertions).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} produced no output"


def test_all_shipped_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert names == {
        "quickstart", "jacobi_heat", "fem_structural", "fortran_program",
        "monitor_session", "dynamic_pipeline", "tune_mapping",
        "parallel_io", "chaos_jacobi", "race_debugging", "profile_jacobi",
        "checkpoint_restore", "run_service",
    }
