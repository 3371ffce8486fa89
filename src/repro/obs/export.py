"""Structured exporters: JSONL event logs, Chrome trace format, text.

Three machine-readable views of a traced run:

* **JSONL** -- one JSON object per trace event, round-trippable back
  into :class:`~repro.core.tracing.TraceEvent` objects for off-line
  analysis (the structured sibling of the section-12 trace file);
* **Chrome trace-event format** -- a JSON array of ``ph: "B"/"E"``
  (task lifetimes) and ``ph: "X"`` (message-in-flight and
  critical-section) events, loadable in Perfetto / chrome://tracing;
  one "process" per PE, one "thread" per task, timestamps in virtual
  ticks;
* **text snapshot** -- the metrics registry rendered for the monitor.

``export_run(vm, directory)`` writes all three for one VM, each file
whole or not at all (:mod:`repro.util.durable`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from ..core.taskid import TaskId
from ..core.tracing import TraceEvent, TraceEventType
from ..util.durable import durable_open
from .metrics import MetricsRegistry
from .spans import CAT_TASK, Span, derive_spans

# ------------------------------------------------------------------ JSONL --


def event_to_dict(e: TraceEvent) -> Dict[str, Any]:
    d: Dict[str, Any] = {"etype": e.etype.value, "task": str(e.task),
                         "pe": int(e.pe), "ticks": int(e.ticks)}
    if e.info:
        d["info"] = e.info
    if e.other is not None:
        d["other"] = str(e.other)
    return d


def event_from_dict(d: Dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        etype=TraceEventType(d["etype"]),
        task=TaskId.parse(d["task"]),
        pe=int(d["pe"]),
        ticks=int(d["ticks"]),
        info=d.get("info", ""),
        other=TaskId.parse(d["other"]) if "other" in d else None,
    )


def write_jsonl(events: Iterable[TraceEvent], f: IO[str]) -> int:
    """Write one JSON object per line; returns the event count."""
    n = 0
    for e in events:
        f.write(json.dumps(event_to_dict(e), sort_keys=True) + "\n")
        n += 1
    return n


def read_jsonl(f: IO[str]) -> List[TraceEvent]:
    """Re-load a JSONL event log written by :func:`write_jsonl`."""
    out = []
    for line in f:
        line = line.strip()
        if line:
            out.append(event_from_dict(json.loads(line)))
    return out


# ----------------------------------------------------------- Chrome trace --


def chrome_trace_events(events: Iterable[TraceEvent]) -> List[Dict[str, Any]]:
    """Trace events as a Chrome trace-event array.

    Task lifetimes become ``B``/``E`` duration pairs; message-in-flight
    and critical-section spans become ``X`` complete events.  ``pid`` is
    the PE number (so Perfetto groups rows by processor) and ``tid`` the
    taskid text; ``ts``/``dur`` are virtual ticks (declared as
    microseconds to the viewer, which only affects the displayed unit).
    """
    out: List[Dict[str, Any]] = []
    seen_pids = set()
    for s in derive_spans(events):
        if not s.closed:
            continue
        common = {"cat": s.cat, "pid": int(s.pe), "tid": s.task}
        if s.cat == CAT_TASK:
            out.append({"name": s.name, "ph": "B", "ts": int(s.start),
                        **common})
            out.append({"name": s.name, "ph": "E", "ts": int(s.end),
                        **common})
        else:
            out.append({"name": s.name, "ph": "X", "ts": int(s.start),
                        "dur": int(s.duration), "args": dict(s.args),
                        **common})
        seen_pids.add(int(s.pe))
    meta = [{"name": "process_name", "ph": "M", "pid": pid, "tid": "",
             "args": {"name": f"PE {pid}"}} for pid in sorted(seen_pids)]
    return meta + out


def write_chrome_trace(events: Iterable[TraceEvent], f: IO[str]) -> int:
    """Write the Chrome trace JSON array; returns the event count."""
    arr = chrome_trace_events(events)
    json.dump(arr, f, sort_keys=True)
    return len(arr)


def load_chrome_trace(f: IO[str]) -> List[Dict[str, Any]]:
    """Load (and sanity-check) a Chrome trace file written above."""
    arr = json.load(f)
    if not isinstance(arr, list):
        raise ValueError("chrome trace must be a JSON array")
    for item in arr:
        if "ph" not in item:
            raise ValueError(f"not a trace event: {item!r}")
    return arr


# ----------------------------------------------------------------- text ----


def write_metrics_snapshot(registry: MetricsRegistry, f: IO[str],
                           as_json: bool = False) -> None:
    """Write the registry snapshot: monitor text, or structured JSON."""
    if as_json:
        json.dump(registry.snapshot(), f, indent=1, sort_keys=True)
        f.write("\n")
    else:
        f.write(registry.snapshot_text() + "\n")


# --------------------------------------------------------------- manifest --


def sha256_hex(data: bytes) -> str:
    """The sha256 hex digest of ``data``, from CPython's built-in SHA-256.

    These are the modules ``hashlib`` itself falls back to when built
    without OpenSSL.  ``hashlib`` would map OpenSSL's libcrypto (3.4 MB
    resident on x86-64 Linux) into a served run for the one short
    digest a faulty run's manifest takes.
    """
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
    return sha256(data).hexdigest()


def run_manifest(vm, files: Optional[Dict[str, Path]] = None,
                 ) -> Dict[str, Any]:
    """Self-describing metadata for an exported bundle: enough to know
    exactly which run produced the artifacts next to it."""
    from .. import __version__ as repro_version

    plan = vm.faults.plan if getattr(vm, "faults", None) is not None else None
    plan_hash = None
    seed = None
    if plan is not None:
        from ..faults import plan as fault_plan_mod
        seed = plan.seed
        plan_hash = sha256_hex(fault_plan_mod.dumps(plan).encode("utf-8"))
    det = getattr(vm, "race_detector", None)
    manifest: Dict[str, Any] = {
        "repro_version": repro_version,
        "seed": seed,
        "fault_plan_hash": plan_hash,
        "detect_races": det.mode if det is not None else None,
        "profile": vm.profiler is not None,
        "elapsed_ticks": int(vm.machine.clocks.elapsed()),
        # Where the run *stopped*, not just what it started from: the
        # fault plan's cursor (events fired/pending) and the schedule
        # decision counts at export time.  Lets a bundle be matched
        # against the checkpoint that resumed it.
        "fault_plan_cursor": (vm.faults.cursor_state()
                              if getattr(vm, "faults", None) is not None
                              else None),
        "schedule_position": (vm.sched_hook.position()
                              if vm.sched_hook is not None else None),
        "config": {
            "name": vm.config.name,
            "summary": vm.config.describe(),
            "clusters": vm.config.cluster_numbers(),
            "time_limit": vm.config.time_limit,
            "metrics_enabled": vm.config.metrics_enabled,
        },
    }
    if files:
        manifest["files"] = {k: p.name for k, p in sorted(files.items())}
    return manifest


def write_run_manifest(vm, directory: Union[str, Path],
                       files: Optional[Dict[str, Path]] = None) -> Path:
    """Write ``manifest.json`` next to an export bundle's artifacts."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    with durable_open(path) as f:
        json.dump(run_manifest(vm, files), f, indent=1, sort_keys=True)
        f.write("\n")
    return path


# ------------------------------------------------------------- one-stop ----


def export_run(vm, directory: Union[str, Path],
               prefix: str = "run") -> Dict[str, Path]:
    """Export one VM's observability record into ``directory``.

    Writes ``<prefix>.events.jsonl``, ``<prefix>.chrome.json``,
    ``<prefix>.metrics.json``, ``<prefix>.metrics.txt`` and a
    ``manifest.json`` describing the run (fault seed/hash,
    config summary, repro version); returns the written paths keyed by
    kind.  The event stream is written even when tracing kept no events
    (readers of a run's archive expect the file, empty or not); the
    Chrome trace only renders events, so a run with none gets no
    ``chrome.json``.  A VM with profiling enabled also gets the profile
    bundle (see :func:`repro.obs.profile.write_profile`).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    events = list(vm.tracer.events)
    out: Dict[str, Path] = {}
    chrome = (("chrome", "chrome.json",
               lambda f: write_chrome_trace(events, f)),) if events else ()

    for kind, suffix, write in (
            ("jsonl", "events.jsonl", lambda f: write_jsonl(events, f)),
            *chrome,
            ("metrics_json", "metrics.json",
             lambda f: write_metrics_snapshot(vm.metrics, f, as_json=True)),
            ("metrics_txt", "metrics.txt",
             lambda f: write_metrics_snapshot(vm.metrics, f))):
        out[kind] = p = directory / f"{prefix}.{suffix}"
        with durable_open(p) as f:
            write(f)

    det = getattr(vm, "race_detector", None)
    if det is not None:
        p = directory / f"{prefix}.races.jsonl"
        det.export_jsonl(p)
        out["races"] = p

    prof = getattr(vm, "profiler", None)
    if prof is not None:
        from .profile import write_profile
        bundle = write_profile(prof, directory, prefix=f"{prefix}.profile")
        out.update({f"profile_{kind}": p for kind, p in bundle.items()})

    out["manifest"] = write_run_manifest(vm, directory, files=out)
    return out
