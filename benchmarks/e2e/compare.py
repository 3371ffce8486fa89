"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

Each directory holds result files written by ``run.py --out`` -- A from
the parent commit, B from the change, with ``--seconds`` the same and
the same seeds on both sides.  A and B runs of one seed form a pair;
run at least ten pairs, alternating which side runs first (README.md).
For every (workload, end-to-end metric) the table shows each side's
quartiles and a verdict, judged against the metric's bound in
``BENCHMARK.json``:

* **better** -- B wins at least 9 of 10 pairs, ties counting for
  neither, and the medians differ by more than A's inter-quartile
  distance;
* **unresolved** -- either side's spread (IQR / median) is wider than
  the bound, unless every B run reads better than every A run;
* **worse** -- B's median is worse than A's by more than the bound;
* **same** -- otherwise.

Any rise in the share of failed runs is **worse**.  Traced result
files (``--trace 1``) carry no end-to-end metrics.  For them the table
prints each side's median of ``bench.trace_overhead`` and of the
whole-run wall times that are per-layer diagnostics, with no verdict.
Exit status: 0 when nothing is worse or unresolved, 1 otherwise, 2 on
unusable input (including seeds that differ between the sides).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from stats import quartiles, relative_spread

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Per-layer metrics of traced files shown beside the verdicts: the
#: wall times too noisy on a shared host to carry a bound (README.md).
DIAGNOSTICS = ("runs_per_s", "latency_p50_ms", "latency_p95_ms",
               "bench.trace_overhead")


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """The verdict on one metric from A's runs to B's, where ``a[i]``
    and ``b[i]`` are the two sides' runs on one seed."""
    if len(a) != len(b):
        raise ValueError("verdict needs one B run per A run")
    sign = -1.0 if better == "lower" else 1.0      # sign * (y - x) > 0: y is better
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    if (wins >= 0.9 * len(a) and sign * (qb[1] - qa[1]) > 0
            and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        return "better"
    every_run_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (max(relative_spread(a), relative_spread(b)) > bound
            and not every_run_better):
        return "unresolved"
    if -sign * (qb[1] - qa[1]) / abs(qa[1]) > bound:
        return "worse"
    return "same"


def load(directory: Path) -> Tuple[Dict, Dict, Dict]:
    """A side's runs: ``{(workload, metric): {seed: value}}``,
    ``{workload: [attempted, failed]}`` and, from traced files,
    ``{(workload, diagnostic): [values]}``."""
    values: Dict[Tuple[str, str], Dict[int, float]] = defaultdict(dict)
    failures: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    diagnostics: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    files = sorted(directory.glob("*.json"))
    if not files:
        raise ValueError(f"{directory}: no result files")
    for path in files:
        doc = json.loads(path.read_text())
        for workload, result in doc["workloads"].items():
            failures[workload][0] += result["attempted"]
            failures[workload][1] += result["failed"]
            metrics = result["metrics"]
            if doc["trace"]:
                for name in DIAGNOSTICS:
                    diagnostics[workload, name].append(
                        metrics[name]["value"])
                continue
            for name, m in metrics.items():
                runs = values[workload, name]
                if doc["seed"] in runs:
                    raise ValueError(f"{path}: a second {workload} run of "
                                     f"seed {doc['seed']}")
                runs[doc["seed"]] = m["value"]
    return values, failures, diagnostics


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[0]:>10.3f} {q[1]:>10.3f} {q[2]:>10.3f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="compare.py", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a", type=Path, help="parent's result files")
    ap.add_argument("b", type=Path, help="change's result files")
    args = ap.parse_args(argv)
    try:
        e2e = json.loads(BENCHMARK.read_text())["end_to_end"]
        a_vals, a_fail, a_diag = load(args.a)
        b_vals, b_fail, b_diag = load(args.b)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    bad = 0
    print(f"{'workload':<14} {'metric':<16} {'A q1':>10} {'A median':>10} "
          f"{'A q3':>10} {'B q1':>10} {'B median':>10} {'B q3':>10} "
          f"{'change':>8}  verdict")
    for workload in sorted({w for w, _ in a_vals} | {w for w, _ in b_vals}):
        for m in e2e:
            a_runs = a_vals.get((workload, m["name"]), {})
            b_runs = b_vals.get((workload, m["name"]), {})
            if not a_runs or a_runs.keys() != b_runs.keys():
                print(f"compare.py: {workload} {m['name']}: seeds "
                      f"{sorted(a_runs)} in A but {sorted(b_runs)} in B",
                      file=sys.stderr)
                return 2
            a = [a_runs[s] for s in sorted(a_runs)]
            b = [b_runs[s] for s in sorted(a_runs)]
            v = verdict(a, b, m["bound"], m["better"])
            qa, qb = quartiles(a), quartiles(b)
            bad += v in ("worse", "unresolved")
            print(f"{workload:<14} {m['name']:<16} {_fmt(qa)} {_fmt(qb)} "
                  f"{(qb[1] - qa[1]) / qa[1]:>+8.1%}  {v}")
    for workload in sorted(set(a_fail) | set(b_fail)):
        share = [f / n if n else 0.0 for n, f in
                 (a_fail.get(workload, (0, 0)), b_fail.get(workload, (0, 0)))]
        v = "worse" if share[1] > share[0] else "same"
        bad += v == "worse"
        print(f"{workload:<14} {'failed_share':<16} A {share[0]:.4f}  "
              f"B {share[1]:.4f}  {v}")
    for workload, name in sorted(set(a_diag) | set(b_diag)):
        sides = "  ".join(
            f"{side} median {quartiles(diag[workload, name])[1]:.3f} "
            f"(n={len(diag[workload, name])})"
            for side, diag in (("A", a_diag), ("B", b_diag))
            if (workload, name) in diag)
        print(f"{workload:<14} {name:<22} {sides}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
