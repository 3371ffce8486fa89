"""Each entry point imports only what it serves.

A library process that builds catalog plans must not pay for the
service's HTTP stack (``http.server`` pulls in ``http.client`` and
``ssl``) or the Fortran front end; the server must not load the HTTP
client.  Every check runs in a fresh interpreter, since this test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro.service

SRC = str(Path(__file__).resolve().parents[2] / "src")

LIBRARY_MUST_NOT_LOAD = (
    "ssl", "http.server", "http.client", "urllib.request", "repro.fortran",
    "repro.service.rest", "repro.service.client",
)
SERVER_MUST_NOT_LOAD = ("urllib.request", "repro.service.client")
#: A matmul run draws its inputs from the stdlib generator; numpy's
#: would load ``numpy.random`` and, through it, the hashing modules.
MATMUL_MUST_NOT_LOAD = ("numpy.random", "secrets", "hashlib")
#: ``repro.service.__all__`` as it stood when the HTTP names went lazy.
PUBLIC_NAMES = (
    "ADMITTED", "APPS", "AdmissionScheduler", "AppPlan", "DEFAULT_QUOTA",
    "DONE", "ExecutionHandle", "FAILED", "KILLED", "KilledByService",
    "LIVE_STATES", "QUEUED", "RUNNING", "RunRecord", "RunService",
    "RunSpec", "RunStore", "RunTimeout", "ServiceClient",
    "ServiceClientError", "ServiceHTTPServer", "TERMINAL_STATES",
    "TenantQuota", "app_names", "build", "execute_run", "pe_cost", "serve",
)


def loaded_after(code, modules):
    """Which of ``modules`` a fresh interpreter holds after ``code``."""
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {list(modules)!r} "
             f"if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_library_path_loads_no_http_or_fortran():
    code = "import repro.api\nfrom repro.service import catalog, spec"
    assert loaded_after(code, LIBRARY_MUST_NOT_LOAD) == []


def test_matmul_run_loads_no_numpy_random():
    code = ("import repro.api\n"
            "from repro.service import catalog, spec\n"
            "plan = catalog.build(spec.RunSpec.from_dict({'app': 'matmul'}))\n"
            "vm = repro.api.make_vm(config=plan.config, "
            "registry=plan.registry)\n"
            "vm.run(plan.tasktype, *plan.args)")
    assert loaded_after(code, MATMUL_MUST_NOT_LOAD) == []


def test_server_entry_point_loads_no_http_client():
    code = "import repro.service.__main__"
    assert loaded_after(code, SERVER_MUST_NOT_LOAD) == []


def test_every_public_name_still_resolves():
    assert sorted(repro.service.__all__) == sorted(PUBLIC_NAMES)
    code = (f"from repro.service import {', '.join(PUBLIC_NAMES)}\n"
            f"import repro.service\n"
            f"assert not hasattr(repro.service, 'no_such_name')")
    assert loaded_after(code, ()) == []
