"""Observability: metrics registry, span derivation, structured export.

The quantitative layer over section 12's event tracing and section 11's
execution-environment monitor: a :class:`MetricsRegistry` collects
counters / gauges / tick-bucketed histograms while the machine runs
(its run counts always, the rest only when enabled);
:mod:`repro.obs.spans` derives task /
message / critical-section intervals from trace events; and
:mod:`repro.obs.export` writes JSONL event logs, Chrome trace files and
monitor text snapshots.  :mod:`repro.obs.profile` layers the causal
profiler on top: wait-state accounting, critical-path extraction and
flamegraph/Chrome-trace exporters.  :mod:`repro.obs.analysis` is the
off-line analysis of a finished run: metrics, storage accounting,
configuration sweeps and the combined :func:`run_report`.
"""

from .. import lazy_exports

__all__ = [
    "CAT_CRITICAL",
    "CAT_FAULT",
    "CAT_MESSAGE",
    "CAT_TASK",
    "CausalProfiler",
    "CriticalPath",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Span",
    "chrome_trace_events",
    "collect_metrics",
    "derive_spans",
    "event_from_dict",
    "event_to_dict",
    "export_run",
    "extract_critical_path",
    "force_size_sweep",
    "idle_report",
    "load_chrome_trace",
    "measure",
    "pe_gantt",
    "profile_report",
    "read_jsonl",
    "run_report",
    "span_summary",
    "storage_table",
    "task_gantt",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_snapshot",
    "write_profile",
    "write_run_manifest",
]

#: Public name -> the submodule that defines it, imported on first
#: access: a run loads the metrics registry, not the exporters or the
#: profiler.
_LAZY = {
    **dict.fromkeys(("Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
                     "MetricsRegistry", "NULL_REGISTRY"), "metrics"),
    **dict.fromkeys(("CAT_CRITICAL", "CAT_FAULT", "CAT_MESSAGE", "CAT_TASK",
                     "Span", "derive_spans", "span_summary", "task_gantt"),
                    "spans"),
    **dict.fromkeys(("chrome_trace_events", "event_from_dict",
                     "event_to_dict", "export_run", "load_chrome_trace",
                     "read_jsonl", "write_chrome_trace", "write_jsonl",
                     "write_metrics_snapshot", "write_run_manifest"),
                    "export"),
    **dict.fromkeys(("CriticalPath", "extract_critical_path"),
                    "profile.critical_path"),
    "write_profile": "profile.export",
    **dict.fromkeys(("CausalProfiler", "idle_report", "pe_gantt",
                     "profile_report"), "profile.profiler"),
    **dict.fromkeys(("collect_metrics", "force_size_sweep", "measure",
                     "run_report", "storage_table"), "analysis"),
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
