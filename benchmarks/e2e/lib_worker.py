"""The library-path worker: one process, one thread, a closed loop.

    python lib_worker.py WORKLOAD [SPANS_FILE]

Imports ``repro``, builds every plan of WORKLOAD once and prints
``ready`` (the parent times spawn -> ready as set-up).  It then reads
one JSON job from stdin, ``{"order": [spec names], "seconds": S}``, and
runs each named spec the way a standalone user does -- catalog plan,
``repro.api.make_vm`` with library defaults, ``vm.run`` -- going round
``order`` until S seconds have passed (S = 0: through ``order`` once).
It prints one JSON line: per run ``[name, lag_ms, latency_ms,
elapsed_ticks]``, the loop's wall time and its peak RSS.  An empty
stdin ends it after set-up.  With SPANS_FILE, the layers are traced
(see ``layers.py``) and the spans written there at the end.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time


def main(argv) -> int:
    workload = argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path:
        import layers
        tracer = layers.install()

    from repro import api
    from repro.service import catalog
    from repro.service.spec import RunSpec

    import workloads

    specs = {name: RunSpec.from_dict(d)
             for name, d in workloads.SPECS[workload].items()}
    for spec in specs.values():
        catalog.build(spec)
    print("ready", flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    seconds = job["seconds"]
    order = itertools.cycle(job["order"]) if seconds else job["order"]

    runs = []
    start = prev_end = time.perf_counter()
    for name in order:
        t = time.perf_counter()
        if seconds and t - start >= seconds:
            break
        plan = catalog.build(specs[name])
        vm = api.make_vm(config=plan.config, registry=plan.registry)
        result = vm.run(plan.tasktype, *plan.args)
        end = time.perf_counter()
        runs.append([name, (t - prev_end) * 1000.0, (end - t) * 1000.0,
                     int(result.elapsed)])
        prev_end = end
    wall = time.perf_counter() - start

    if tracer is not None:
        tracer.dump(spans_path)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"runs": runs, "wall_s": wall,
                      "peak_rss_mb": maxrss_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
