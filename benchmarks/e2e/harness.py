"""The benchmark's orchestration: processes, passes, checks and output.

A *pass* runs one workload against fresh processes for ``--seconds``
and checks every run's output.  ``--trace 0`` makes one untraced pass
(its boots repeated for ``setup_s``) and reports the end-to-end
metrics.  ``--trace 1`` makes an untraced pass, a traced pass and the
serial probe, and reports the per-layer metrics (see ``layers.py``).
The metric names and units are those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
import loadgen
import workloads
from repro.service.client import ServiceClient
from repro.service.store import DONE
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The service as deployed for every service workload: product
#: defaults on every execution axis, 2 workers for the 2 cores, and a
#: quota no workload reaches.
SERVICE_ARGS = ("--workers", "2", "--default-quota", "2,1000,64")
SETUP_BOOTS = 5
#: Latency samples a pass needs so that at least 10 lie beyond p95.
MIN_SAMPLES = 200
#: Runs of each spec in the serial probe.
PROBE_REPS = 3
#: Closed-loop workloads: (client tenants, runs each keeps outstanding,
#: read each run back).
CLOSED = {"svc_heavy": (("heavy0", "heavy1"), 2, False),
          "svc_ckpt_read": (("ckpt0", "ckpt1"), 1, True)}


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    ``BENCHMARK.json``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts: this
    checkout's sources, and no ``PISCES_*`` overrides of the product's
    defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PISCES_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _stop(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Service:
    """A run-service subprocess over ``store``, traced when ``spans``
    names the file its spans go to."""

    def __init__(self, store: Path, spans: Optional[Path] = None) -> None:
        launcher = (["-m", "repro.service"] if spans is None
                    else [str(HERE / "traced_service.py"), str(spans)])
        self.cmd = [sys.executable, *launcher, "--root", str(store),
                    *SERVICE_ARGS]

    def __enter__(self) -> "Service":
        t = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                     text=True, env=_child_env(), cwd=ROOT)
        try:
            self.url = json.loads(self.proc.stdout.readline())["url"]
            ServiceClient(self.url).health()
        except BaseException:
            self.__exit__()
            raise
        self.boot_s = time.perf_counter() - t
        return self

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def __exit__(self, *exc) -> None:
        self.proc.terminate()            # SIGTERM: a clean service exit
        _stop(self.proc)
        self.proc.stdout.close()


class LibWorker:
    """A ``lib_worker.py`` subprocess (see its docstring)."""

    def __init__(self, workload: str, spans: Optional[Path] = None) -> None:
        self.cmd = [sys.executable, str(HERE / "lib_worker.py"), workload]
        if spans is not None:
            self.cmd.append(str(spans))

    def __enter__(self) -> "LibWorker":
        t = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=_child_env(), cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError(f"{self.cmd} did not start")
        self.boot_s = time.perf_counter() - t
        return self

    def run(self, order: Sequence[str], seconds: float) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps({"order": list(order),
                                          "seconds": seconds}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()          # EOF: an idle worker exits
        _stop(self.proc)
        self.proc.stdout.close()


@dataclass
class Pass:
    """What one measured pass of a workload produced."""

    latencies_ms: List[float]
    runs_per_s: float
    peak_rss_mb: float
    boot_s: List[float]
    attempted: int
    failed: int
    #: Runs whose output was checked and found wrong.
    wrong: int
    lags_ms: List[float]
    readbacks_ms: List[float] = field(default_factory=list)
    #: Client calls ``(route, ms)`` and the runs that passed (service).
    calls: List[Tuple[str, float]] = field(default_factory=list)
    done: List[loadgen.Sample] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Run records in the store when the pass ended (service).
    resident: int = 0


def load_expected() -> Dict[str, Dict[str, int]]:
    with open(HERE / "expected_ticks.json") as f:
        return json.load(f)


def _maybe_spans(path: Optional[Path]) -> List[Dict[str, Any]]:
    return layers.load_spans(path) if path is not None else []


def lib_pass(workload: str, order: Sequence[str], seconds: float,
             work: Path, boots: int, traced: bool,
             expected: Dict[str, int]) -> Pass:
    spans = (Path(tempfile.mkdtemp(prefix="lib-", dir=work)) / "spans.json"
             if traced else None)
    boot_s = []
    for _ in range(boots - 1):
        with LibWorker(workload) as w:
            boot_s.append(w.boot_s)
    with LibWorker(workload, spans) as w:
        boot_s.append(w.boot_s)
        out = w.run(order, seconds)
    runs = out["runs"]
    ok = [r for r in runs if r[3] == expected[r[0]]]
    return Pass(latencies_ms=[r[2] for r in ok],
                runs_per_s=len(ok) / out["wall_s"],
                peak_rss_mb=out["peak_rss_mb"], boot_s=boot_s,
                attempted=len(runs), failed=len(runs) - len(ok),
                wrong=len(runs) - len(ok), lags_ms=[r[1] for r in runs],
                spans=_maybe_spans(spans))


def _drive(workload: str, url: str, seed: int, seconds: float,
           calls: List[Tuple[str, float]]) -> List[loadgen.Sample]:
    specs = workloads.SPECS[workload]
    if workload == "svc_tiny_open":
        return loadgen.open_loop(
            url, specs, workloads.arrival_schedule(seed, seconds), calls)
    tenants, depth, readback = CLOSED[workload]
    count = int(seconds * 100) + 10      # more than a client can finish
    orders = [(t, workloads.shuffled_cycle(specs, f"{seed}.{k}", count))
              for k, t in enumerate(tenants)]
    return loadgen.closed_loops(url, specs, orders, depth, seconds,
                                readback, calls)


def service_pass(samples_of, work: Path, boots: int, traced: bool,
                 expected: Dict[str, int], history_seed: Optional[int] = None,
                 from_due: bool = False) -> Pass:
    """Boot the service ``boots`` times over one store (the last boot
    serves the load), run ``samples_of(url, calls)`` against it and
    check every run.  With ``history_seed`` the store starts with a
    seeded run history.  Latency counts from the send time, or from the
    due time when ``from_due``."""
    store = Path(tempfile.mkdtemp(prefix="store-", dir=work))
    if history_seed is not None:
        workloads.seed_history(store, history_seed)
    spans = store.with_suffix(".spans.json") if traced else None
    boot_s = []
    for _ in range(boots - 1):
        with Service(store) as svc:
            boot_s.append(svc.boot_s)
    calls: List[Tuple[str, float]] = []
    with Service(store, spans) as svc:
        boot_s.append(svc.boot_s)
        samples = samples_of(svc.url, calls)
        rss = svc.peak_rss_mb()

    ok, wrong = [], 0
    for s in samples:
        if s.error is not None:
            continue
        exit_ = s.record.get("exit") or {}
        if (s.record["state"] == DONE and s.readback_ok
                and exit_.get("elapsed_ticks") == expected[s.spec]):
            ok.append(s)
        else:
            wrong += 1
    start = min(s.due for s in samples)
    end = max(s.record["finished_at"] for s in ok)
    return Pass(
        latencies_ms=[(s.record["finished_at"]
                       - (s.due if from_due else s.send)) * 1000.0
                      for s in ok],
        runs_per_s=len(ok) / (end - start), peak_rss_mb=rss, boot_s=boot_s,
        attempted=len(samples), failed=len(samples) - len(ok), wrong=wrong,
        lags_ms=[(s.send - s.due) * 1000.0 for s in samples if s.send],
        readbacks_ms=[s.readback_ms for s in ok if s.readback_ms is not None],
        calls=calls, done=ok,
        spans=_maybe_spans(spans),
        resident=sum(1 for _ in (store / "runs").iterdir()))


def measure_pass(workload: str, seed: int, seconds: float, work: Path,
                 boots: int, traced: bool,
                 expected: Dict[str, Dict[str, int]]) -> Pass:
    if workload == "lib_zoo":
        order = workloads.shuffled_cycle(workloads.SPECS[workload], seed,
                                         50 * len(workloads.SPECS[workload]))
        return lib_pass(workload, order, seconds, work, boots, traced,
                        expected[workload])
    open_loop = workload == "svc_tiny_open"
    return service_pass(
        lambda url, calls: _drive(workload, url, seed, seconds, calls),
        work, boots, traced, expected[workload],
        history_seed=seed if open_loop else None, from_due=open_loop)


def serial_probe(workload: str, work: Path,
                 expected: Dict[str, Dict[str, int]]) -> Tuple[Pass, float]:
    """Each of the workload's specs, ``PROBE_REPS`` times, submitted
    alone to a traced service (and read back), then run bare in a
    traced library worker.  Returns the service pass and the median
    over specs of service ``vm.run`` wall / bare ``vm.run`` wall."""
    specs = workloads.SPECS[workload]
    order = [name for name in sorted(specs) for _ in range(PROBE_REPS)]
    probe = service_pass(
        lambda url, calls: loadgen.closed_loop(
            url, "probe", specs, order, depth=1, seconds=120.0,
            readback=True, calls=calls, poll=0.005),
        work, boots=1, traced=True, expected=expected[workload])
    bare = lib_pass(workload, order, 0, work, boots=1, traced=True,
                    expected=expected[workload])

    spec_of = {s.run_id: s.spec for s in probe.done}
    served: Dict[str, List[float]] = {name: [] for name in specs}
    for run_id, walls in layers.execute_ms_by_run(probe.spans).items():
        if run_id in spec_of:
            served[spec_of[run_id]].extend(walls)
    alone: Dict[str, List[float]] = {name: [] for name in specs}
    for name, wall in zip(order, layers.execute_ms_by_run(bare.spans)[None]):
        alone[name].append(wall)
    ratio = statistics.median(
        statistics.median(served[n]) / statistics.median(alone[n])
        for n in specs)
    return probe, ratio


def end_to_end(p: Pass) -> Dict[str, float]:
    return {"setup_s": statistics.median(p.boot_s),
            "peak_rss_mb": p.peak_rss_mb}


def per_layer(workload: str, untraced: Pass, traced: Pass, probe: Pass,
              ratio: float) -> Dict[str, float]:
    """The per-layer metrics, and the whole-run wall times of the
    untraced pass.  lib_zoo runs no service, so its ``service.*``,
    ``checkpoint.*`` and ``obs.*`` numbers are those of its specs
    served one at a time by the serial probe.  Only svc_ckpt_read reads
    runs back under load; elsewhere the read-back is the probe's."""
    served = probe if workload == "lib_zoo" else traced
    m = layers.engine_metrics(traced.spans)
    m.update(layers.service_metrics(served.spans))
    reads = [ms for route, ms in served.calls
             if route in loadgen.READ_ROUTES]
    m.update({
        "runs_per_s": untraced.runs_per_s,
        "latency_p50_ms": percentile(untraced.latencies_ms, 50),
        "latency_p95_ms": percentile(untraced.latencies_ms, 95),
        "service.executor.execute_vs_standalone": ratio,
        "service.executor.queue_wait_ms_p50": statistics.median(
            (s.record["started_at"] - s.record["submitted_at"]) * 1000.0
            for s in served.done),
        "service.store.records_resident": served.resident,
        "service.rest.submit_ms_p50": statistics.median(
            ms for route, ms in served.calls if route == "submit"),
        "service.rest.read_ms_p50": statistics.median(reads),
        "service.rest.requests_per_run":
            len(served.calls) / served.attempted,
        "bench.generator_lag_p95_ms": percentile(traced.lags_ms, 95),
        "bench.readback_ms_p95": percentile(
            served.readbacks_ms or probe.readbacks_ms, 95),
        "bench.trace_overhead": percentile(traced.latencies_ms, 50)
            / percentile(untraced.latencies_ms, 50),
    })
    return m


def measure(workload: str, seed: int, seconds: float, trace: int,
            work: Path, expected: Dict[str, Dict[str, int]]
            ) -> Dict[str, Any]:
    """One workload's result: checks, sample counts and metrics."""
    if trace:
        untraced = measure_pass(workload, seed, seconds, work, 1, False,
                                expected)
        traced = measure_pass(workload, seed, seconds, work, 1, True,
                              expected)
        probe, ratio = serial_probe(workload, work, expected)
        passes = (untraced, traced, probe)
        values = per_layer(workload, untraced, traced, probe, ratio)
        units = declared("per_layer")
    else:
        p = measure_pass(workload, seed, seconds, work, SETUP_BOOTS, False,
                         expected)
        passes = (p,)
        values = end_to_end(p)
        units = declared("end_to_end")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    runs = len(passes[0].latencies_ms)
    if runs < MIN_SAMPLES:
        print(f"run.py: warning: {workload} gave {runs} latency samples; "
              f"below {MIN_SAMPLES}, fewer than 10 lie beyond "
              f"latency_p95_ms", file=sys.stderr)
    return {"correct": not any(p.wrong for p in passes),
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "samples": {"runs": runs, "boots": len(passes[0].boot_s)},
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def report(workload: str, result: Dict[str, Any]) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<14} {name:<40} {m['value']:>14.4f} "
              f"{m['unit']:<8}")
    print(f"{workload:<14} {'failed_share':<40} "
          f"{result['failed_share']:>14.4f} {'fraction':<8}")
    print(f"{workload:<14} samples: runs checked (latency) "
          f"n={result['samples']['runs']}, boots (setup_s) "
          f"n={result['samples']['boots']}, runs attempted "
          f"n={result['attempted']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="run.py",
        description="End-to-end benchmark of library runs and the run "
                    "service (see README.md).")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0,
                    help="measured time of each pass (default 22)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced pass")
    ap.add_argument("--out", type=Path,
                    help="also write the full result as JSON here")
    args = ap.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    expected = load_expected()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    args.trace, work, expected)
            report(name, results[name])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"claim": None, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": results}, indent=1) + "\n")
    return 0
