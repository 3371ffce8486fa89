"""Each entry point imports only what it serves.

A library process that builds catalog plans must not pay for the
service's HTTP stack (``http.server`` pulls in ``http.client`` and
``ssl``) or the Fortran front end; the server must not load the HTTP
client.  A server boots on its control plane: the engine stack and
numpy load with the first run, not at start-up, and runs that hold no
arrays never load numpy.  Every check runs in a fresh interpreter,
since this test process has long since imported everything.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
import repro.service
from repro.service import (ADMITTED, DONE, QUEUED, RUNNING, TERMINAL_STATES,
                           RunService, RunSpec, catalog)
from repro.service.client import ServiceClient

SRC = str(Path(__file__).resolve().parents[2] / "src")

LIBRARY_MUST_NOT_LOAD = (
    "ssl", "http.server", "http.client", "urllib.request", "repro.fortran",
    "repro.service.rest", "repro.service.client",
)
SERVER_MUST_NOT_LOAD = ("urllib.request", "repro.service.client")
#: The execution side: none of it loads before the first run is built.
ENGINE = ("repro.core", "repro.mmos", "repro.apps", "repro.checkpoint",
          "repro.correctness", "repro.obs.profile", "numpy")
#: ``repro`` modules a server boot may load: store, spec, admission,
#: catalog, rest, service, errors, config, util.durable and their
#: packages (17 when this was set, 19 with the durable-write module).  Like the store's boot-parse count, a deterministic
#: work key for the benchmark's ``setup_s``.
BOOT_MODULE_BUDGET = 20
QUICK = {"app": "spin", "params": {"rounds": 5, "ticks_per_round": 10}}
#: Catalog apps that hold no arrays, so their runs never load numpy.
ARRAY_FREE_APPS = ("spin", "pipeline", "integrate")
#: A matmul run draws its inputs from the stdlib generator; numpy's
#: would load ``numpy.random`` and, through it, the hashing modules.
MATMUL_MUST_NOT_LOAD = ("numpy.random", "secrets", "hashlib")
#: ``repro.__all__`` as it stood when the package went lazy.
REPRO_PUBLIC_NAMES = (
    "ALL_RECEIVED", "ANY", "Broadcast", "Cluster", "ClusterSpec",
    "Configuration", "FlexMachine", "GLOBAL_REGISTRY", "MachineSpec",
    "MetricsRegistry", "OTHER", "PARENT", "PiscesError", "PiscesVM",
    "RaceError", "RaceWarning", "ReplayDivergence", "RunResult", "SAME",
    "SELF", "SENDER", "TContr", "TaskContext", "TaskId", "TaskRegistry",
    "TraceEventType", "TraceOverflow", "USER", "Window", "WindowConflict",
    "WindowError", "__version__", "api", "check_races", "checkpoint_vm",
    "derive_spans", "export_run", "find_latest_checkpoint", "make_vm",
    "profile_run", "record_run", "replay_run", "restore_vm",
    "nasa_langley_flex32", "open_window", "plan_scope", "run_app",
    "simple_configuration", "small_flex", "tasktype",
)
#: ``repro.service.__all__`` as it stood when the HTTP names went lazy.
PUBLIC_NAMES = (
    "ADMITTED", "APPS", "AdmissionScheduler", "AppPlan", "DEFAULT_QUOTA",
    "DONE", "ExecutionHandle", "FAILED", "KILLED", "KilledByService",
    "LIVE_STATES", "QUEUED", "RUNNING", "RunRecord", "RunService",
    "RunSpec", "RunStore", "RunTimeout", "ServiceClient",
    "ServiceClientError", "ServiceHTTPServer", "TERMINAL_STATES",
    "TenantQuota", "app_names", "build", "execute_run", "pe_cost", "serve",
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def loaded_after(code, modules):
    """Which of ``modules`` a fresh interpreter holds after ``code``."""
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {list(modules)!r} "
             f"if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], env=_env(),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def engine_loaded(modules):
    """The :data:`ENGINE` packages (or their submodules) in ``modules``."""
    return sorted(m for m in modules
                  if any(m == e or m.startswith(e + ".") for e in ENGINE))


def serve_and_list_modules(root, requests):
    """Boot ``python -m repro.service`` over ``root``, call
    ``requests(client)`` against it, stop it with SIGTERM and return the
    modules the server held at exit."""
    dump = Path(root).with_suffix(".modules.json")
    probe = textwrap.dedent(f"""
        import atexit, json, sys
        atexit.register(lambda: open({str(dump)!r}, "w").write(
            json.dumps(sorted(sys.modules))))
        from repro.service.__main__ import main
        sys.exit(main(["--root", {str(root)!r}, "--workers", "2"]))
    """)
    proc = subprocess.Popen([sys.executable, "-c", probe], env=_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        requests(ServiceClient(json.loads(proc.stdout.readline())["url"],
                               tenant="alice"))
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        proc.stdout.close()
    assert proc.returncode == 0
    return json.loads(dump.read_text())


@pytest.fixture(scope="module")
def archived_store(tmp_path_factory):
    """A store holding one finished run."""
    root = tmp_path_factory.mktemp("archive") / "store"
    svc = RunService(root, n_workers=1).start()
    try:
        rec = svc.submit("alice", QUICK)
        deadline = time.monotonic() + 60.0
        while svc.get_run(rec.run_id).state != DONE:
            assert time.monotonic() < deadline, "the run did not finish"
            time.sleep(0.02)
    finally:
        svc.stop(kill_live=True)
    return root, rec.run_id


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


def test_server_boot_loads_only_the_control_plane(tmp_path):
    modules = serve_and_list_modules(tmp_path / "store",
                                     lambda c: c.health())
    assert engine_loaded(modules) == []
    assert "repro.util.durable" in modules
    assert "repro.util.tables" not in modules
    own = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(own) <= BOOT_MODULE_BUDGET, own


def test_control_plane_reads_load_no_engine(archived_store):
    root, run_id = archived_store

    def requests(client):
        assert client.health()["status"] == "ok"
        assert "spin" in client.apps()
        assert [r["run_id"] for r in client.list_runs()] == [run_id]
        assert client.get_run(run_id)["state"] == DONE
        assert client.kill(run_id)["state"] == DONE
        assert client.trace(run_id, limit=1)

    assert engine_loaded(serve_and_list_modules(root, requests)) == []


def test_boot_recovery_loads_no_engine(tmp_path):
    """A run a previous life left RUNNING is re-queued at boot; pricing
    it is left to the admission scheduler's first build."""
    store = RunService(tmp_path / "store").store
    run_id = store.create("alice", RunSpec.from_dict(QUICK)).run_id
    store.transition(run_id, ADMITTED)
    store.transition(run_id, RUNNING)
    code = (f"from repro.service import RunService\n"
            f"svc = RunService({str(store.root)!r})\n"
            f"assert [r.state for r in svc.recovered] == [{QUEUED!r}]")
    assert loaded_after(code, ENGINE) == []


def test_first_run_loads_the_engine(tmp_path):
    code = (f"from repro.service import RunService\n"
            f"svc = RunService({str(tmp_path / 'store')!r})\n"
            f"svc.submit('alice', {QUICK!r})")
    assert loaded_after(code, ("repro.core", "repro.apps")) == [
        "repro.core"]


def test_import_repro_loads_no_numpy():
    assert loaded_after("import repro", ENGINE) == []
    assert loaded_after("import repro.api", ("numpy",)) == []


@pytest.mark.parametrize("app", ARRAY_FREE_APPS)
def test_array_free_runs_load_no_numpy(app):
    code = ("import repro.api\n"
            "from repro.service import catalog, spec\n"
            f"plan = catalog.build(spec.RunSpec(app={app!r}))\n"
            "vm = repro.api.make_vm(config=plan.config, "
            "registry=plan.registry)\n"
            "assert vm.run(plan.tasktype, *plan.args).elapsed > 0")
    assert loaded_after(code, ("numpy",)) == []


def test_array_free_service_runs_load_no_numpy(tmp_path):
    """Served with tracing, checkpoints and the archived bundle."""
    code = textwrap.dedent(f"""
        import time
        from repro.service import RunService
        svc = RunService({str(tmp_path / "store")!r}, n_workers=1).start()
        for app in {ARRAY_FREE_APPS!r}:
            run_id = svc.submit("alice", {{"app": app,
                                           "checkpoint_every": 500}}).run_id
            while svc.get_run(run_id).state not in {TERMINAL_STATES!r}:
                time.sleep(0.01)
            assert svc.get_run(run_id).state == {DONE!r}, app
        svc.stop()
    """)
    assert loaded_after(code, ("numpy",)) == []


def test_every_repro_name_resolves():
    assert sorted(repro.__all__) == sorted(REPRO_PUBLIC_NAMES)
    code = (f"from repro import {', '.join(REPRO_PUBLIC_NAMES)}\n"
            f"import repro, repro.api\n"
            f"assert repro.make_vm is repro.api.make_vm\n"
            f"assert repro.api is api\n"
            f"assert not hasattr(repro, 'no_such_name')")
    assert loaded_after(code, ()) == []


def test_app_names_are_the_builder_table():
    assert catalog.app_names() == tuple(sorted(catalog.APPS))
