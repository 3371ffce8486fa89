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
  (QUEUED -> ADMITTED -> RUNNING -> DONE|FAILED|KILLED);
* :mod:`~repro.service.admission` -- per-tenant quotas and
  deficit-round-robin fair share;
* :mod:`~repro.service.executor` -- one run's execution: kill seam,
  checkpoint-resume, artifact archiving;
* :mod:`~repro.service.service` -- :class:`RunService`, the worker
  pool tying the above together;
* :mod:`~repro.service.rest` / :mod:`~repro.service.client` -- the
  HTTP control plane and its stdlib client;
* ``python -m repro.service`` -- the server entry point.

Importing the package loads only the control plane: the store, the
spec, admission, the catalog's name table and the worker pool.  The
executor names (``ExecutionHandle``, ``KilledByService``,
``execute_run``) and the five HTTP-facing names (``RunTimeout``,
``ServiceClient``, ``ServiceClientError``, ``ServiceHTTPServer``,
``serve``) resolve on first access (PEP 562).  So a server boot loads
no engine and no numpy -- the first run does -- and a library process
that only builds catalog plans never loads ``http.server``,
``urllib.request`` or ``ssl``.

The load-bearing guarantee: a run executed by the service has the
same virtual time and trace stream as the same spec run standalone.
The service only ever adds pure observers (tracing, metrics, the kill
hook, periodic checkpoints) to the VM it builds from the catalog's
pure plan, so multi-tenancy costs no determinism.
"""

from importlib import import_module

from .admission import DEFAULT_QUOTA, AdmissionScheduler, TenantQuota
from .catalog import APPS, AppPlan, app_names, build, pe_cost
from .service import RunService
from .spec import RunSpec
from .store import (ADMITTED, DONE, FAILED, KILLED, LIVE_STATES, QUEUED,
                    RUNNING, TERMINAL_STATES, RunRecord, RunStore)

__all__ = [
    "ADMITTED", "APPS", "AdmissionScheduler", "AppPlan", "DEFAULT_QUOTA",
    "DONE", "ExecutionHandle", "FAILED", "KILLED", "KilledByService",
    "LIVE_STATES", "QUEUED", "RUNNING", "RunRecord", "RunService",
    "RunSpec", "RunStore", "RunTimeout", "ServiceClient",
    "ServiceClientError", "ServiceHTTPServer", "TERMINAL_STATES",
    "TenantQuota", "app_names", "build", "execute_run", "pe_cost", "serve",
]

#: Executor and HTTP-facing re-exports, imported from their submodule on
#: first access.
_LAZY = {"ExecutionHandle": "executor", "KilledByService": "executor",
         "execute_run": "executor", "RunTimeout": "client",
         "ServiceClient": "client", "ServiceClientError": "client",
         "ServiceHTTPServer": "rest", "serve": "rest"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
