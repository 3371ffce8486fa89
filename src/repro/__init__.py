"""repro -- a reproduction of the PISCES 2 parallel programming environment.

Terrence W. Pratt, "The PISCES 2 Parallel Programming Environment",
Proc. 1987 International Conference on Parallel Processing.

Public API quickstart::

    from repro import ANY, PARENT, PiscesVM, TaskRegistry, simple_configuration

    reg = TaskRegistry()

    @reg.tasktype("WORKER")
    def worker(ctx, n):
        ctx.accept("GO")
        ctx.send(PARENT, "DONE", n * n)

    @reg.tasktype("MAIN")
    def main(ctx):
        ...

    vm = PiscesVM(simple_configuration(n_clusters=2), registry=reg)
    result = vm.run("MAIN")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.

Every public name resolves on first access (PEP 562), so ``import
repro`` loads no engine and no numpy: a process pays for the layers it
uses.  ``repro.make_vm is repro.api.make_vm`` still holds.
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = [
    "ALL_RECEIVED",
    "ANY",
    "Broadcast",
    "Cluster",
    "ClusterSpec",
    "Configuration",
    "FlexMachine",
    "GLOBAL_REGISTRY",
    "MachineSpec",
    "MetricsRegistry",
    "OTHER",
    "PARENT",
    "PiscesError",
    "PiscesVM",
    "RaceError",
    "RaceWarning",
    "ReplayDivergence",
    "RunResult",
    "SAME",
    "SELF",
    "SENDER",
    "TContr",
    "TaskContext",
    "TaskId",
    "TaskRegistry",
    "TraceEventType",
    "TraceOverflow",
    "USER",
    "Window",
    "WindowConflict",
    "WindowError",
    "__version__",
    "api",
    "check_races",
    "checkpoint_vm",
    "derive_spans",
    "export_run",
    "find_latest_checkpoint",
    "make_vm",
    "profile_run",
    "record_run",
    "replay_run",
    "restore_vm",
    "nasa_langley_flex32",
    "open_window",
    "plan_scope",
    "run_app",
    "simple_configuration",
    "small_flex",
    "tasktype",
]

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(("ClusterSpec", "Configuration", "simple_configuration"),
                    "config"),
    **dict.fromkeys((
        "ALL_RECEIVED", "ANY", "Broadcast", "Cluster", "GLOBAL_REGISTRY",
        "OTHER", "PARENT", "PiscesVM", "RunResult", "SAME", "SELF", "SENDER",
        "TContr", "TaskContext", "TaskId", "TaskRegistry", "TraceEventType",
        "USER", "Window", "tasktype"), "core"),
    **dict.fromkeys((
        "PiscesError", "RaceError", "RaceWarning", "ReplayDivergence",
        "TraceOverflow", "WindowConflict", "WindowError"), "errors"),
    **dict.fromkeys(("FlexMachine", "MachineSpec", "nasa_langley_flex32",
                     "small_flex"), "flex"),
    **dict.fromkeys(("MetricsRegistry", "derive_spans", "export_run"), "obs"),
    **dict.fromkeys((
        "check_races", "checkpoint_vm", "find_latest_checkpoint", "make_vm",
        "open_window", "plan_scope", "profile_run", "record_run",
        "replay_run", "restore_vm", "run_app"), "api"),
}


def __getattr__(name):
    if name == "api":
        return import_module(".api", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
