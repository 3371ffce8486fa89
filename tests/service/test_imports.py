"""Each entry point imports only what it serves.

A library process that builds catalog plans must not pay for the
service's HTTP stack or the Fortran front end; the server must not load
the HTTP client, and it reads HTTP itself, so it loads no
``http.server``, ``http.client``, ``email``, ``ssl`` or
``socketserver``.  A server boots on its control plane: the engine
stack loads with the first run, not at start-up.  No served run loads
``hashlib`` or maps OpenSSL's libcrypto, a faulty one included: its
manifest hashes the fault plan with CPython's built-in SHA-256.  No run
loads numpy: SHARED COMMON, exported arrays and window blocks are
stdlib Grids, so the array apps and Fortran programs run without it.
Every check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import gc
import importlib.util
import inspect
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.service
from repro.service import (DONE, QUEUED, RUNNING, TERMINAL_STATES,
                           RunService, RunSpec, catalog)
from repro.api import make_vm
from repro.apps.fortran_programs import WINDOW_SUM
from repro.core import task as core_task
from repro.core.sizes import DEFAULT_TASKTYPE_CODE_BYTES
from repro.service.client import ServiceClient
from tests.golden.digests import ADDUP_SOURCE, CHAOS_PLAN

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")

LIBRARY_MUST_NOT_LOAD = (
    "ssl", "http.server", "http.client", "urllib.request", "repro.fortran",
    "repro.service.rest", "repro.service.client",
)
SERVER_MUST_NOT_LOAD = ("urllib.request", "repro.service.client", "ssl",
                        "http.server", "http.client", "email.parser",
                        "socketserver", "hashlib")
#: The execution side: none of it loads before the first run is built.
ENGINE = ("repro.core", "repro.mmos", "repro.apps", "repro.checkpoint",
          "repro.correctness", "repro.obs.profile", "numpy")
#: ``repro`` modules a server boot may load: store, spec, admission,
#: catalog, rest, service, errors, config, util.durable and their
#: packages (17 when this was set, 19 with the durable-write module).  Like the store's boot-parse count, a deterministic
#: work key for the benchmark's ``setup_s``.
BOOT_MODULE_BUDGET = 20
QUICK = {"app": "spin", "params": {"rounds": 5, "ticks_per_round": 10}}
#: Catalog apps that hold no arrays.
ARRAY_FREE_APPS = ("spin", "pipeline", "integrate")
#: A run of every catalog app, Fortran with and without arrays: none
#: loads numpy.
NUMPY_FREE_SPECS = {
    **{app: {"app": app} for app in ("jacobi", "jacobi_force", "matmul",
                                     "fem", "truss", "chaos_jacobi")
       + ARRAY_FREE_APPS},
    "fortran_addup": {"app": "fortran", "params": {"source": ADDUP_SOURCE}},
    "fortran_window_sum": {"app": "fortran",
                           "params": {"source": WINDOW_SUM}},
}
#: svc_tiny_open's five specs (benchmarks/e2e/workloads.py).
TINY_OPEN_SPECS = {
    "spin10": {"app": "spin", "params": {"rounds": 10}},
    "integrate": {"app": "integrate"},
    "matmul": {"app": "matmul"},
    "jacobi12": {"app": "jacobi",
                 "params": {"n": 12, "sweeps": 2, "n_workers": 2}},
    "addup": {"app": "fortran", "params": {"source": ADDUP_SOURCE}},
}
#: svc_ckpt_read's faulty spec, under the CI chaos plan, and one of its
#: checkpointing specs (benchmarks/e2e/workloads.py).
CKPT_READ_SPECS = {
    "chaos_jacobi": {"app": "chaos_jacobi",
                     "params": {"n": 20, "sweeps": 3, "n_workers": 3,
                                "on_death": "reassign"},
                     "checkpoint_every": 2000, "fault_plan": CHAOS_PLAN},
    "jacobi": {"app": "jacobi",
               "params": {"n": 24, "sweeps": 6, "n_workers": 6},
               "checkpoint_every": 2000},
}
#: What no served run loads: numpy (no run needs it), the hashing
#: modules, which map OpenSSL's libcrypto, and the library facade
#: ``repro.api`` (the executor builds its VMs from plans).
SERVED_MUST_NOT_LOAD = ("numpy", "hashlib", "_hashlib", "_blake2",
                        "repro.api")
#: The largest ``repro`` source file a served run may load.  A service
#: started without a bytecode cache (a fresh checkout, a read-only tree)
#: compiles every module it imports, and the compile of a module this
#: large sets the service's peak RSS (VmHWM).
MAX_SERVED_SOURCE_BYTES = 32 * 1024
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
#: ``repro.service.__all__`` as it stood when the HTTP names went lazy,
#: less ``pe_cost`` (a run is priced from its held plan).
PUBLIC_NAMES = (
    "APPS", "AdmissionScheduler", "AppPlan", "DEFAULT_QUOTA",
    "DONE", "ExecutionHandle", "FAILED", "KILLED", "KilledByService",
    "LIVE_STATES", "QUEUED", "RUNNING", "RunRecord", "RunService",
    "RunSpec", "RunStore", "RunTimeout", "ServiceClient",
    "ServiceClientError", "ServiceHTTPServer", "TERMINAL_STATES",
    "TenantQuota", "app_names", "build", "execute_run", "serve",
)


#: Layers a default library run never calls: ``from repro import api``
#: plus a default build and run of every non-Fortran catalog app loads
#: none of them (or their submodules).
NEVER_CALLED = (
    "repro.checkpoint", "repro.correctness", "repro.obs.profile",
    "repro.obs.export", "repro.obs.spans", "repro.faults.injector",
    "repro.faults.plan", "repro.service.service", "repro.service.store",
    "repro.service.admission", "repro.util.durable",
)
#: ``repro`` modules that library run loads (48 when this was set, down
#: from 70 when ``repro.api`` loaded every layer; 53 since the VM and the
#: engine are split by concern into five more modules of the same source).
LIBRARY_MODULE_BUDGET = 53
#: ``__all__`` of the other modules whose names resolve on first
#: access, as it stood when the module went lazy.
LAZY_PUBLIC_NAMES = {
    "repro.api": (
        "ProfiledRun", "RaceCheck", "RecordedRun", "RestoredRun",
        "RunRecord", "RunResult", "check_races", "checkpoint_vm",
        "export_run", "find_latest_checkpoint", "make_vm", "open_window",
        "plan_scope", "profile_run", "record_run", "replay_run",
        "restore_vm", "run_app"),
    "repro.apps": (
        "FEMProblem", "FEMResult", "IntegrateResult", "JacobiResult",
        "MatmulResult", "PipelineResult", "make_inputs", "run_matmul_force",
        "run_matmul_hybrid", "run_matmul_tasks", "TrussProblem",
        "TrussResult", "build_truss_registry", "pratt_truss", "run_truss",
        "fortran_programs", "build_fem_registry", "build_force_registry",
        "build_integrate_registry", "build_pipeline_registry",
        "build_windows_registry", "default_integrand", "make_problem",
        "reference_solution", "run_fem", "run_integrate",
        "run_jacobi_force", "run_jacobi_windows", "run_pipeline"),
    "repro.obs": (
        "CAT_CRITICAL", "CAT_FAULT", "CAT_MESSAGE", "CAT_TASK",
        "CausalProfiler", "CriticalPath", "Counter", "DEFAULT_BUCKETS",
        "Gauge", "Histogram", "MetricsRegistry", "NULL_REGISTRY", "Span",
        "chrome_trace_events", "collect_metrics", "derive_spans",
        "event_from_dict", "event_to_dict", "export_run",
        "extract_critical_path", "force_size_sweep", "idle_report",
        "load_chrome_trace", "measure", "pe_gantt", "profile_report",
        "read_jsonl", "run_report", "span_summary", "storage_table",
        "task_gantt", "write_chrome_trace", "write_jsonl",
        "write_metrics_snapshot", "write_profile", "write_run_manifest"),
    "repro.obs.profile": (
        "CausalProfiler", "CriticalPath", "PathSegment", "Slice",
        "WaitAccounting", "WaitInterval", "WAIT_ACCEPT", "WAIT_BARRIER",
        "WAIT_CATEGORIES", "WAIT_DISPATCH", "WAIT_FAULT", "WAIT_LOCK",
        "WAIT_WINDOW", "chrome_profile_trace", "extract_critical_path",
        "folded_stacks", "idle_report", "pe_gantt", "profile_report",
        "wait_category", "write_profile"),
    "repro.checkpoint": (
        "PeriodicCheckpointer", "RestoredRun", "checkpoint_vm",
        "find_latest_checkpoint", "load_bundle", "restore_vm",
        "snapshot_state", "verify_snapshot"),
    "repro.correctness": (
        "HBEdge", "HBEdgeLog", "RaceDetector", "RaceReport", "Schedule",
        "iter_hb_edges"),
    "repro.faults": (
        "ALWAYS_PROTECTED", "CORRUPT", "CORRUPTION_MARKER", "DELAY", "DROP",
        "DUPLICATE", "FaultEvent", "FaultInjector", "FaultPlan", "HostKill",
        "MessagePolicy", "NONE", "NOTIFY", "PECrash", "RESTART",
        "Supervision", "TaskKill", "ambient_plan", "corrupt_args", "dumps",
        "load", "loads", "plan_scope", "save"),
}
#: Every catalog app at its defaults, Fortran with and without arrays.
ALL_APP_SPECS = {
    **{app: {"app": app} for app in catalog.app_names() if app != "fortran"},
    "fortran_addup": NUMPY_FREE_SPECS["fortran_addup"],
    "fortran_window_sum": NUMPY_FREE_SPECS["fortran_window_sum"],
}


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


def serve_and_inspect(root, requests):
    """Boot ``python -m repro.service`` over ``root``, call
    ``requests(client)`` against it, stop it with SIGTERM and return the
    modules the server held at exit and the files it had mapped (empty
    where there is no ``/proc/self/maps``)."""
    dump = Path(root).with_suffix(".modules.json")
    probe = textwrap.dedent(f"""
        import atexit, json, os, sys
        def write_dump():
            maps = "/proc/self/maps"
            mapped = ({{line.split()[-1] for line in open(maps)
                        if len(line.split()) > 5}}
                      if os.path.exists(maps) else set())
            open({str(dump)!r}, "w").write(json.dumps(
                [sorted(sys.modules), sorted(mapped)]))
        atexit.register(write_dump)
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


def serve_and_list_modules(root, requests):
    """The modules the server held at exit (:func:`serve_and_inspect`)."""
    return serve_and_inspect(root, requests)[0]


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
    code = (f"import repro.service\n"
            f"assert set(repro.service.__all__) <= set(dir(repro.service))\n"
            f"from repro.service import {', '.join(PUBLIC_NAMES)}\n"
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


def test_no_catalog_run_loads_numpy():
    """Every app on the library path; the probe names the first run
    after which numpy was loaded, if any."""
    code = textwrap.dedent(f"""
        import sys
        import repro.api
        from repro.service import catalog, spec
        loaded = []
        for name, s in {NUMPY_FREE_SPECS!r}.items():
            plan = catalog.build(spec.RunSpec.from_dict(s))
            vm = repro.api.make_vm(config=plan.config,
                                   registry=plan.registry)
            assert vm.run(plan.tasktype, *plan.args).elapsed > 0, name
            if "numpy" in sys.modules and not loaded:
                loaded.append(name)
        print(loaded)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_served_runs_load_no_numpy(tmp_path):
    """Every app served twice -- traced, then untraced and checkpointing
    -- with the archived bundle written each time: none loads numpy or
    the hashing modules."""
    code = textwrap.dedent(f"""
        import time
        from repro.service import RunService
        svc = RunService({str(tmp_path / "store")!r}, n_workers=1).start()
        for name, s in {NUMPY_FREE_SPECS!r}.items():
            for extra in ({{}}, {{"trace": False, "checkpoint_every": 500}}):
                run_id = svc.submit("alice", dict(s, **extra)).run_id
                while svc.get_run(run_id).state not in {TERMINAL_STATES!r}:
                    time.sleep(0.01)
                assert svc.get_run(run_id).state == {DONE!r}, name
        svc.stop()
    """)
    assert loaded_after(code, SERVED_MUST_NOT_LOAD) == []


def test_tiny_open_specs_served_over_http_load_no_numpy(tmp_path):
    def requests(client):
        runs = [client.submit(s)["run_id"] for s in TINY_OPEN_SPECS.values()]
        for run_id in runs:
            assert client.wait(run_id, timeout=120)["state"] == DONE

    modules = serve_and_list_modules(tmp_path / "store", requests)
    assert "repro.core.grid" in modules
    assert [m for m in SERVED_MUST_NOT_LOAD if m in modules] == []


def test_faulty_and_checkpointing_runs_map_no_openssl(tmp_path):
    """svc_ckpt_read's runs over HTTP: the faulty one's manifest hashes
    its fault plan, both write checkpoints and are read back, and the
    server loads no hashing module and maps no libcrypto."""
    def requests(client):
        for name, s in CKPT_READ_SPECS.items():
            run_id = client.submit(s)["run_id"]
            rec = client.wait(run_id, timeout=120)
            assert rec["state"] == DONE, name
            assert client.trace(run_id, limit=1), name
            hashes[name] = rec["provenance"]["fault_plan_hash"]

    hashes = {}
    modules, mapped = serve_and_inspect(tmp_path / "store", requests)
    assert [m for m in SERVED_MUST_NOT_LOAD if m in modules] == []
    assert [f for f in mapped if "libcrypto" in f] == []
    assert hashes == {"chaos_jacobi": "6b4439e2d64ebea4058625b5df8f45bf"
                                      "056a27e71bf78d2a1f625ac6a137f14f",
                      "jacobi": None}


def test_served_runs_load_no_large_module(tmp_path):
    """Every catalog app served over HTTP at its defaults, Fortran with
    and without arrays, then svc_ckpt_read's faulty and checkpointing
    runs: the server loads no ``repro`` module over
    :data:`MAX_SERVED_SOURCE_BYTES` of source."""
    def requests(client):
        specs = list(ALL_APP_SPECS.values()) + list(CKPT_READ_SPECS.values())
        for s in specs:
            run_id = client.submit(s)["run_id"]
            assert client.wait(run_id, timeout=120)["state"] == DONE, s

    modules = serve_and_list_modules(tmp_path / "store", requests)
    sizes = {m: Path(importlib.util.find_spec(m).origin).stat().st_size
             for m in modules if m == "repro" or m.startswith("repro.")}
    large = {m: n for m, n in sizes.items() if n > MAX_SERVED_SOURCE_BYTES}
    assert large == {}, (
        f"served runs load {large} (bytes of source): without a bytecode "
        f"cache, compiling a module over {MAX_SERVED_SOURCE_BYTES} bytes "
        f"sets the service's VmHWM")


def test_legacy_bundle_restores_without_numpy(tmp_path):
    """The legacy jacobi bundle's array digests were taken over numpy
    bytes; the Grid's bytes are the same, so it restores and resumes to
    the identical history with numpy never loaded."""
    legacy = ROOT / "tests" / "golden" / "legacy"
    exp = json.loads((legacy / "expected.json").read_text())["bundle"]
    code = textwrap.dedent(f"""
        import hashlib, json, os
        from repro.api import restore_vm
        from repro.obs.export import event_to_dict
        from repro.service import catalog
        from repro.service.spec import RunSpec
        os.chdir({str(tmp_path)!r})
        registry = catalog.build(RunSpec(app={exp["app"]!r})).registry
        r = restore_vm({str(legacy / exp["file"])!r},
                       registry=registry).resume()
        lines = [json.dumps(event_to_dict(e), sort_keys=True)
                 for e in r.vm.tracer.events]
        assert r.elapsed == {exp["elapsed"]!r}
        digest = hashlib.sha256(chr(10).join(lines).encode()).hexdigest()
        assert digest == {exp["trace_sha256"]!r}
    """)
    assert loaded_after(code, ("numpy",)) == []


def test_every_repro_name_resolves():
    assert sorted(repro.__all__) == sorted(REPRO_PUBLIC_NAMES)
    code = (f"import repro\n"
            f"assert set(repro.__all__) <= set(dir(repro))\n"
            f"from repro import {', '.join(REPRO_PUBLIC_NAMES)}\n"
            f"import repro.api\n"
            f"assert repro.make_vm is repro.api.make_vm\n"
            f"assert repro.api is api\n"
            f"assert not hasattr(repro, 'no_such_name')")
    assert loaded_after(code, ()) == []


def test_builds_hold_the_import_lock(monkeypatch):
    """The first build imports the engine.  Two threads entering its
    mutually importing modules at once could find one half initialized
    and fail a submit with HTTP 500, so builds hold one lock (as do the
    service's other lazy engine imports)."""
    seen = []
    build_spin = catalog.APPS["spin"]

    def probe(spec):
        def other_thread():
            free = catalog.IMPORT_LOCK.acquire(blocking=False)
            if free:
                catalog.IMPORT_LOCK.release()
            seen.append(free)
        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
        return build_spin(spec)

    monkeypatch.setitem(catalog.APPS, "spin", probe)
    catalog.build(RunSpec(app="spin"))
    assert seen == [False]


def test_app_names_are_the_builder_table():
    assert catalog.app_names() == tuple(sorted(catalog.APPS))


def test_library_run_loads_only_what_it_executes():
    """The library path pays for the engine and the apps it runs, not
    for the checkpoint, race, profile and fault layers, the exporters or
    the service's control plane."""
    code = textwrap.dedent("""
        import json, sys
        from repro import api
        from repro.service import catalog, spec
        for app in catalog.app_names():
            if app != "fortran":
                plan = catalog.build(spec.RunSpec(app=app))
                vm = api.make_vm(config=plan.config, registry=plan.registry)
                assert vm.run(plan.tasktype, *plan.args).elapsed > 0, app
        print(json.dumps(sorted(sys.modules)))
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, check=True)
    modules = json.loads(out.stdout.splitlines()[-1])
    assert [m for m in modules
            if any(m == n or m.startswith(n + ".") for n in NEVER_CALLED)
            ] == []
    own = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(own) <= LIBRARY_MODULE_BUDGET, own


@pytest.mark.parametrize("package", sorted(LAZY_PUBLIC_NAMES))
def test_lazy_package_lists_and_resolves_its_names(package):
    """``__all__`` is pinned, ``dir()`` lists every name before it
    resolves, and every name resolves in a fresh interpreter (``repro``
    and ``repro.service``: the two tests above)."""
    names = LAZY_PUBLIC_NAMES[package]
    module = sys.modules.get(package) or __import__(package, fromlist=["_"])
    assert sorted(module.__all__) == sorted(names)
    code = textwrap.dedent(f"""
        import importlib
        m = importlib.import_module({package!r})
        assert set(m.__all__) <= set(dir(m)), set(m.__all__) - set(dir(m))
        for name in m.__all__:
            getattr(m, name)
        assert set(m.__all__) <= set(dir(m))
        assert not hasattr(m, "no_such_name")
    """)
    assert loaded_after(code, ()) == []


def _eager_code_bytes(fn):
    """The loadfile rule as it ran at every plan build before it moved
    to VM boot."""
    try:
        return max(DEFAULT_TASKTYPE_CODE_BYTES // 2, len(inspect.getsource(fn)))
    except (OSError, TypeError):
        return DEFAULT_TASKTYPE_CODE_BYTES


@pytest.mark.parametrize("name", sorted(ALL_APP_SPECS))
def test_code_bytes_equal_the_eager_rule(name):
    registry = catalog.build(RunSpec.from_dict(ALL_APP_SPECS[name])).registry
    eager = sum(_eager_code_bytes(registry.get(t).fn)
                for t in registry.names())
    assert registry.total_code_bytes() == eager


def test_plan_builds_read_no_source(monkeypatch):
    """A plan build registers tasktypes; their code is measured when a
    VM boots (the section 11 download), so building reads no source."""
    def no_source(obj):
        raise AssertionError(f"catalog.build read the source of {obj!r}")

    monkeypatch.setattr(inspect, "getsource", no_source)
    for name, s in ALL_APP_SPECS.items():
        assert catalog.build(RunSpec.from_dict(s)).tasktype, name


def test_code_bytes_memo_does_not_grow_with_fortran_builds():
    """Each Fortran build compiles new code; the per-code-object memo
    holds it weakly, so a long-lived service does not grow with every
    submit."""
    def boot(k):
        source = ADDUP_SOURCE.replace("1, 50", f"1, {k}")
        plan = catalog.build(RunSpec.from_dict(
            {"app": "fortran", "params": {"source": source}}))
        make_vm(config=plan.config, registry=plan.registry).shutdown()

    boot(0)
    gc.collect()
    before = len(core_task._CODE_BYTES)
    for k in range(1, 51):
        boot(k)
    gc.collect()
    assert len(core_task._CODE_BYTES) <= before


def test_first_checkpointing_runs_on_two_workers(tmp_path):
    """A served run without checkpoints loads no checkpoint code; the
    first two checkpointing runs then load it on two worker threads at
    once (under the catalog's import lock) and both finish DONE, in
    every fresh boot."""
    code = textwrap.dedent(f"""
        import sys, time
        from repro.service import RunService
        def wait(svc, run_ids):
            while any(svc.get_run(r).state not in {TERMINAL_STATES!r}
                      for r in run_ids):
                time.sleep(0.01)
            return [svc.get_run(r).state for r in run_ids]
        svc = RunService(sys.argv[1], n_workers=2).start()
        try:
            plain = svc.submit("alice", {QUICK!r}).run_id
            assert wait(svc, [plain]) == [{DONE!r}]
            assert "repro.checkpoint" not in sys.modules
            spec = {{"app": "jacobi", "checkpoint_every": 500}}
            runs = [svc.submit(t, spec).run_id for t in ("alice", "bob")]
            assert wait(svc, runs) == [{DONE!r}] * 2
        finally:
            svc.stop()
    """)
    for boot in range(5):
        subprocess.run([sys.executable, "-c", code,
                        str(tmp_path / f"store{boot}")], env=_env(),
                       check=True, timeout=120)


def test_fault_plan_parsing_loads_no_engine():
    """A catalog build parses its spec's fault plan; the plan format
    needs neither the engine nor the injector."""
    code = "from repro.faults import loads, plan_scope"
    assert loaded_after(code, ENGINE + ("repro.faults.injector",)) == []
