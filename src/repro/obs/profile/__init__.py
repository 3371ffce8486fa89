"""Causal profiling: wait-state accounting, critical path, exporters.

See :mod:`repro.obs.profile.profiler` for the model.  Typical use goes
through :func:`repro.api.profile_run`; the pieces compose directly too:

    vm = make_vm(...)
    prof = vm.enable_profiling()
    result = vm.run(MAIN)
    print(profile_report(prof))
    print(pe_gantt(prof))            # per-PE occupancy
    cp = extract_critical_path(prof)
    write_profile(prof, "out/", critical_path=cp)
"""

from ... import lazy_exports

__all__ = [
    "CausalProfiler",
    "CriticalPath",
    "PathSegment",
    "Slice",
    "WaitAccounting",
    "WaitInterval",
    "WAIT_ACCEPT",
    "WAIT_BARRIER",
    "WAIT_CATEGORIES",
    "WAIT_DISPATCH",
    "WAIT_FAULT",
    "WAIT_LOCK",
    "WAIT_WINDOW",
    "chrome_profile_trace",
    "extract_critical_path",
    "folded_stacks",
    "idle_report",
    "pe_gantt",
    "profile_report",
    "wait_category",
    "write_profile",
]

#: Public name -> the submodule that defines it, imported on first
#: access: enabling the profiler loads the profiler, not its exporters.
_LAZY = {
    **dict.fromkeys(("CriticalPath", "PathSegment", "extract_critical_path"),
                    "critical_path"),
    **dict.fromkeys(("chrome_profile_trace", "folded_stacks",
                     "write_profile"), "export"),
    **dict.fromkeys((
        "CausalProfiler", "Slice", "WaitAccounting", "WaitInterval",
        "WAIT_ACCEPT", "WAIT_BARRIER", "WAIT_CATEGORIES", "WAIT_DISPATCH",
        "WAIT_FAULT", "WAIT_LOCK", "WAIT_WINDOW", "idle_report", "pe_gantt",
        "profile_report", "wait_category"), "profiler"),
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
