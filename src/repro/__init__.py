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


def lazy_exports(namespace, table):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a module whose public
    names load on first access.

    ``namespace`` is the module's ``globals()``; ``table`` maps each
    lazy name to the module, relative to the module's package, that
    defines it.  A name that is the last part of its module path is that
    module itself.  A resolved name is stored in ``namespace``, so the
    next lookup is a plain attribute read; ``__dir__`` lists the lazy
    names before they resolve.
    """
    package, module_name = namespace["__package__"], namespace["__name__"]

    def __getattr__(name):
        try:
            where = table[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no "
                                 f"attribute {name!r}") from None
        module = import_module(f".{where}", package)
        value = (module if where.rpartition(".")[2] == name
                 else getattr(module, name))
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


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
    "api": "api",
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

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
