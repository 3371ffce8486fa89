"""The multi-tenant run service (the layer above :mod:`repro.api`).

The paper's PISCES environment is single-user by construction: one
``pisces`` session, one configuration, one run.  This package turns
the reproduction into a *shared* environment -- a long-lived service
that queues, admits, executes and archives many concurrent runs for
many tenants, with nothing beyond the standard library:

* :mod:`~repro.service.spec` -- the JSON run spec tenants submit;
* :mod:`~repro.service.catalog` -- named, deterministically
  rebuildable applications (the app zoo + Pisces Fortran source);
* :mod:`~repro.service.store` -- the persistent, crash-safe run store
  (QUEUED -> RUNNING -> DONE|FAILED|KILLED);
* :mod:`~repro.service.admission` -- per-tenant quotas and
  deficit-round-robin fair share;
* :mod:`~repro.service.executor` -- one run's execution: kill seam,
  checkpoint-resume, artifact archiving;
* :mod:`~repro.service.service` -- :class:`RunService`, the worker
  pool tying the above together;
* :mod:`~repro.service.rest` / :mod:`~repro.service.client` -- the
  HTTP/1.1 control plane (one thread serves every connection) and its
  stdlib client;
* ``python -m repro.service`` -- the server entry point.

Importing the package loads none of its modules: every public name
resolves on first access (PEP 562) from the submodule that defines it.
So a library process that only builds catalog plans loads the catalog
and the spec, not the store, admission or the worker pool, and no
HTTP code; a server boot loads the control plane but no engine, no
numpy and no ``http.server``, ``http.client``, ``email``, ``ssl`` or
``socketserver`` (the REST layer reads HTTP itself) -- the first run
loads the engine, and no run loads ``hashlib``.

The load-bearing guarantee: a run executed by the service has the
same virtual time and trace stream as the same spec run standalone.
The service only ever adds pure observers (tracing, metrics, the kill
hook, periodic checkpoints) to the VM it builds from the catalog's
pure plan, so multi-tenancy costs no determinism.
"""

from .. import lazy_exports

__all__ = [
    "APPS", "AdmissionScheduler", "AppPlan", "DEFAULT_QUOTA", "DONE",
    "ExecutionHandle", "FAILED", "KILLED", "KilledByService",
    "LIVE_STATES", "QUEUED", "RUNNING", "RunRecord", "RunService",
    "RunSpec", "RunStore", "RunTimeout", "ServiceClient",
    "ServiceClientError", "ServiceHTTPServer", "TERMINAL_STATES",
    "TenantQuota", "app_names", "build", "execute_run", "serve",
]

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(("DEFAULT_QUOTA", "AdmissionScheduler", "TenantQuota"),
                    "admission"),
    **dict.fromkeys(("APPS", "app_names", "build"), "catalog"),
    "AppPlan": ".core.vm",
    **dict.fromkeys(("ExecutionHandle", "KilledByService", "execute_run"),
                    "executor"),
    **dict.fromkeys(("RunTimeout", "ServiceClient", "ServiceClientError"),
                    "client"),
    **dict.fromkeys(("ServiceHTTPServer", "serve"), "rest"),
    "RunService": "service",
    "RunSpec": "spec",
    **dict.fromkeys(("DONE", "FAILED", "KILLED", "LIVE_STATES", "QUEUED",
                     "RUNNING", "TERMINAL_STATES", "RunRecord", "RunStore"),
                    "store"),
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
