"""Tests of the end-to-end benchmark itself.

Outside tier-1's ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import compare
import expected
import harness
import workloads
from repro.service.store import DONE, RunStore
from stats import percentile

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_percentile_is_nearest_rank():
    values = list(range(20, 0, -1))          # 1..20, unsorted
    assert percentile(values, 95) == 19
    assert percentile(values, 50) == 10
    assert percentile(values, 100) == 20
    assert percentile(values, 1) == 1
    assert percentile([7.5], 95) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_arrival_schedule_is_a_pure_function_of_the_seed():
    a = workloads.arrival_schedule(3, 5.0)
    assert a == workloads.arrival_schedule(3, 5.0)
    assert a != workloads.arrival_schedule(4, 5.0)
    assert len(a) == 5.0 * workloads.OPEN_RATE
    offsets = [t for t, _, _ in a]
    assert offsets == sorted(offsets) and 0.0 <= offsets[0] < offsets[-1] < 5.0
    assert {tenant for _, _, tenant in a} == set(workloads.OPEN_TENANTS)
    assert {name for _, name, _ in a} == set(workloads.SPECS["svc_tiny_open"])


BASE = [100.0, 101.0, 99.0, 100.0, 102.0]


@pytest.mark.parametrize("change, better, expect", [
    ([100.0, 99.0, 101.0, 102.0, 100.0], "lower", "same"),
    ([120.0, 121.0, 119.0, 122.0, 120.0], "lower", "worse"),
    ([80.0, 81.0, 79.0, 80.0, 82.0], "lower", "better"),
    ([80.0, 81.0, 79.0, 80.0, 82.0], "higher", "worse"),
    ([104.0, 105.0, 103.0, 104.0, 106.0], "lower", "same"),   # within bound
    ([60.0, 140.0, 100.0, 70.0, 130.0], "lower", "unresolved"),
])
def test_compare_verdicts(change, better, expect):
    assert compare.verdict(BASE, change, 0.1, better) == expect


def test_compare_wide_spread_is_resolved_when_every_run_wins():
    parent = [100.0, 150.0, 120.0, 130.0, 110.0]
    change = [50.0, 60.0, 55.0, 58.0, 52.0]
    assert compare.verdict(parent, change, 0.1, "lower") == "better"


def test_compare_counts_wins_per_seed():
    # B beats A on every seed.  Counted all against all, B's four slow
    # runs would lose to most of A's runs: 70 wins of 100, not better.
    parent = [100.0 + i for i in range(10)]
    change = [90.0] * 6 + [105.5, 106.5, 107.5, 108.5]
    assert compare.verdict(parent, change, 0.1, "lower") == "better"
    with pytest.raises(ValueError):
        compare.verdict(parent, change[:-1], 0.1, "lower")


def _result_file(path, seed, runs_per_s, failed=0):
    metrics = {m["name"]: {"value": runs_per_s, "unit": m["unit"]}
               for m in BENCHMARK["end_to_end"]}
    path.write_text(json.dumps({"claim": None, "seed": seed, "trace": 0,
                                "workloads": {"lib_zoo": {
                                    "attempted": 100, "failed": failed,
                                    "metrics": metrics}}}))


def test_compare_exit_status(tmp_path, capsys):
    a, b, c, d = (tmp_path / n for n in "abcd")
    for side in (a, b, c, d):
        side.mkdir()
    for seed, v in enumerate([10.0, 10.1, 9.9, 10.0, 10.05]):
        _result_file(a / f"{seed}.json", seed, v)
        _result_file(b / f"{seed}.json", seed, v * 1.01)
        _result_file(c / f"{seed}.json", seed, v, failed=1 if seed == 0 else 0)
        _result_file(d / f"{seed}.json", seed + 1, v)
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main([str(a), str(c)]) == 1      # a failure is worse
    assert "failed_share" in capsys.readouterr().out
    assert compare.main([str(a), str(d)]) == 2      # no pairs by seed
    assert compare.main([str(a), str(tmp_path / "missing")]) == 2


def test_expected_ticks_match_a_fresh_standalone_run():
    assert expected.compute() == harness.load_expected()


def test_seeded_history_loads_whole_and_needs_no_recovery(tmp_path):
    workloads.seed_history(tmp_path, seed=1)
    store = RunStore(tmp_path)
    records = store.list()
    assert len(records) == workloads.HISTORY_RECORDS
    assert {r.state for r in records} == {DONE}
    assert set(store.tenants()) == set(workloads.HISTORY_TENANTS)
    assert store.recover() == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_metric(workload, trace, tmp_path):
    result = harness.measure(workload, seed=1, seconds=1.0, trace=trace,
                             work=tmp_path, expected=harness.load_expected())
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["failed_share"] == 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(harness.HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lib_zoo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
