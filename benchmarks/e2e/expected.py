"""The correctness oracle: every workload spec's expected virtual time.

    PYTHONPATH=src python benchmarks/e2e/expected.py

rewrites ``expected_ticks.json`` from
``repro.service.executor.standalone_run``, the service's own
bit-identity reference.  A run whose ``elapsed_ticks`` differs from
the committed value counts as failed.  Regenerate only when a change
to the program is meant to change virtual time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from repro.service.executor import standalone_run
from repro.service.spec import RunSpec

import workloads

TABLE = Path(__file__).resolve().parent / "expected_ticks.json"


def compute() -> Dict[str, Dict[str, int]]:
    return {w: {name: int(standalone_run(RunSpec.from_dict(spec)).elapsed)
                for name, spec in sorted(workloads.SPECS[w].items())}
            for w in workloads.WORKLOADS}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
