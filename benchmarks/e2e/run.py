"""End-to-end benchmark of PISCES library runs and the run service.

    python3 benchmarks/e2e/run.py --workload svc_heavy --seed 1 \
        --seconds 20 --trace 0 [--out result.json]

Run from anywhere inside a full checkout; the benchmark drives the
checkout's own ``src/``.  Prints each metric by name with its unit and
sample count, then, as the last line of each workload, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
the workloads, the metrics and ``compare.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no PISCES sources at {SRC}; run the benchmark "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness              # imports repro, so only once SRC is known
    return harness.main(argv)


if __name__ == "__main__":
    sys.exit(main())
