"""Per-layer tracing from outside the program, and the per-layer metrics.

:func:`install` wraps the public functions of each layer so that every
call records a span: name, start, end, parent span and run id.  Spans
nest per thread, and a span with no run id of its own takes its
parent's, so all spans of one run share its id.  ``Engine.step`` is
too hot for spans; it gets a per-thread call count and total time,
which the ``PiscesVM.run`` span reads as deltas together with the
VM's own counters.  Everything stays in memory until :meth:`dump`.

The wrappers replace module and class attributes, so they must patch
the name each caller looks up: ``execute_run`` is patched where the
service's worker loop imported it, ``checkpoint_vm`` where the
periodic checkpointer imported it.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_RUN_ID = re.compile(r"r\d{6,}")

_STORE_WRITES = ("store.create", "store.transition", "store.amend")


class _ThreadState(threading.local):
    steps = 0                   # Engine.step calls
    step_dispatches = 0         # ... that dispatched a slice
    step_s = 0.0

    def __init__(self) -> None:
        self.stack: List[Dict[str, Any]] = []


def _run_id_in(values) -> Optional[str]:
    for v in values:
        rid = getattr(v, "run_id", None)
        if isinstance(rid, str):
            return rid
        if isinstance(v, str) and _RUN_ID.fullmatch(v):
            return v
    return None


def _vm_counters(args, result) -> Dict[str, int]:
    vm = args[0]
    st = vm.stats
    counters = {"dispatches": vm.engine.dispatch_count,
                "messages_sent": st.messages_sent,
                "window_bytes": st.window_bytes_moved,
                "window_hits": st.window_cache_hits,
                "window_misses": st.window_cache_misses,
                "checkpoint_bytes": st.checkpoint_bytes}
    return {k: int(v) for k, v in counters.items()}     # some are numpy


def _export_bytes(args, result) -> Dict[str, int]:
    return {"bytes": sum(p.stat().st_size for p in (result or {}).values())}


def _select_hit(args, result) -> Dict[str, bool]:
    return {"hit": result is not None}


class Tracer:
    """Spans and step counters of one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._thread = _ThreadState()

    def wrap(self, owner: Any, attr: str, name: str,
             attrs: Optional[Callable[[tuple, Any], Dict]] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ts = tracer._thread
            stack = ts.stack
            span = {"name": name, "run": _run_id_in(args),
                    "parent": stack[-1]["id"] if stack else None}
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            steps, dispatched, step_s = (ts.steps, ts.step_dispatches,
                                         ts.step_s)
            stack.append(span)
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if ts.steps != steps:
                    span["steps"] = ts.steps - steps
                    span["step_dispatches"] = ts.step_dispatches - dispatched
                    span["step_s"] = ts.step_s - step_s
                if span["run"] is None:
                    span["run"] = _run_id_in((result,))
                if attrs is not None:
                    span.update(attrs(args, result))

        setattr(owner, attr, wrapper)

    def count_steps(self, engine_cls: type) -> None:
        step = engine_cls.step
        ts = self._thread

        @functools.wraps(step)
        def counted(*args, **kwargs):
            t = time.perf_counter()
            dispatched = False
            try:
                dispatched = step(*args, **kwargs)
                return dispatched
            finally:
                ts.steps += 1
                ts.step_dispatches += bool(dispatched)
                ts.step_s += time.perf_counter() - t

        engine_cls.step = counted

    def dump(self, path) -> None:
        """Write the spans as JSON, each with its run id resolved."""
        with self._lock:
            spans = list(self.spans)
        for s in spans:                      # parents precede children
            if s["run"] is None and s["parent"] is not None:
                s["run"] = spans[s["parent"]]["run"]
        with open(path, "w") as f:
            json.dump({"spans": spans}, f)


def install() -> Tracer:
    """Wrap every layer's public functions; returns the recording tracer."""
    from repro.checkpoint import policy
    from repro.checkpoint.restore import RestoredRun
    from repro.core.vm import PiscesVM
    from repro.mmos.scheduler import Engine
    from repro.service import admission, catalog, executor, service, store

    t = Tracer()
    t.wrap(service.RunService, "submit", "service.submit")
    t.wrap(admission.AdmissionScheduler, "select", "admission.select",
           _select_hit)
    t.wrap(admission.AdmissionScheduler, "check_submit",
           "admission.check_submit")
    for op in ("create", "transition", "amend", "list"):
        t.wrap(store.RunStore, op, f"store.{op}")
    t.wrap(catalog, "build", "catalog.build")
    t.wrap(service, "execute_run", "executor.execute_run")
    t.wrap(executor, "build_vm", "executor.build_vm")
    t.wrap(executor, "restore_vm", "executor.restore_vm")
    t.wrap(executor, "export_run", "executor.export_run", _export_bytes)
    t.wrap(policy, "checkpoint_vm", "checkpoint.write")
    t.wrap(PiscesVM, "run", "vm.run", _vm_counters)
    t.wrap(RestoredRun, "resume", "vm.resume")
    t.count_steps(Engine)
    return t


def load_spans(path) -> List[Dict[str, Any]]:
    with open(path) as f:
        return json.load(f)["spans"]


# --------------------------------------------------------- derivations --


def _ms(span) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _by_name(spans) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        out[s["name"]].append(s)
    return out


def engine_metrics(spans) -> Dict[str, float]:
    """Scheduler, window and message counters of the VM runs."""
    runs = _by_name(spans)["vm.run"]
    n = len(runs)
    wall_s = sum(_ms(s) for s in runs) / 1000.0
    dispatches = sum(s["dispatches"] for s in runs)
    hits = sum(s["window_hits"] for s in runs)
    lookups = hits + sum(s["window_misses"] for s in runs)
    return {
        "mmos.scheduler.dispatches_per_s": dispatches / wall_s,
        "mmos.scheduler.dispatches_per_run": dispatches / n,
        "mmos.scheduler.fast_path_share": 1.0 - sum(
            s.get("step_dispatches", 0) for s in runs) / dispatches,
        "mmos.scheduler.step_calls_per_run":
            sum(s.get("steps", 0) for s in runs) / n,
        "mmos.scheduler.step_share":
            sum(s.get("step_s", 0.0) for s in runs) / wall_s,
        "core.windows.bytes_per_run":
            sum(s["window_bytes"] for s in runs) / n,
        "core.windows.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.messages.sent_per_run":
            sum(s["messages_sent"] for s in runs) / n,
    }


def service_metrics(spans) -> Dict[str, float]:
    """Executor, store, admission, catalog, checkpoint and export costs
    of the runs one traced service executed."""
    by = _by_name(spans)
    executed = by["executor.execute_run"]
    n = len(executed)
    children: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _ms(s)
    covered = sum(children[s["id"]] for s in executed)
    writes = [s for name in _STORE_WRITES for s in by[name]]
    selects = by["admission.select"]
    vm_ms = sum(_ms(s) for s in by["vm.run"])
    return {
        "service.executor.execute_ms_p50":
            statistics.median(_ms(s) for s in by["vm.run"]),
        "service.executor.boot_ms_p50": statistics.median(
            _ms(s) for s in by["executor.build_vm"]
            + by["executor.restore_vm"]),
        "service.executor.archive_ms_p50":
            statistics.median(_ms(s) for s in by["executor.export_run"]),
        "service.executor.unattributed_share":
            1.0 - covered / sum(_ms(s) for s in executed),
        "service.store.writes_per_run": len(writes) / n,
        "service.store.write_ms_p50": statistics.median(
            _ms(s) for s in writes),
        "service.store.list_calls_per_run": len(by["store.list"]) / n,
        "service.store.list_ms_per_run":
            sum(_ms(s) for s in by["store.list"]) / n,
        "service.admission.select_calls_per_run": len(selects) / n,
        "service.admission.select_hit_ratio":
            sum(s["hit"] for s in selects) / len(selects),
        "service.admission.select_ms_per_run":
            sum(_ms(s) for s in selects) / n,
        "service.admission.check_submit_ms_p50": statistics.median(
            _ms(s) for s in by["admission.check_submit"]),
        "service.catalog.build_calls_per_run": len(by["catalog.build"]) / n,
        "service.catalog.build_ms_per_run":
            sum(_ms(s) for s in by["catalog.build"]) / n,
        "checkpoint.writes_per_run": len(by["checkpoint.write"]) / n,
        "checkpoint.write_share":
            sum(_ms(s) for s in by["checkpoint.write"]) / vm_ms,
        "checkpoint.bytes_per_run":
            sum(s["checkpoint_bytes"] for s in by["vm.run"]) / n,
        "obs.export.artifact_bytes_per_run":
            sum(s["bytes"] for s in by["executor.export_run"]) / n,
    }


def execute_ms_by_run(spans) -> Dict[Optional[str], List[float]]:
    """``vm.run`` wall per run id (None for library runs, in order)."""
    out: Dict[Optional[str], List[float]] = defaultdict(list)
    for s in spans:
        if s["name"] == "vm.run":
            out[s["run"]].append(_ms(s))
    return out
