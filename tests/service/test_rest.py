"""The REST control plane end to end over a real HTTP socket."""

import json
import urllib.request

import pytest

from repro.errors import InvalidRunSpec, QuotaExceeded, UnknownRun
from repro.service import RunService, TenantQuota, serve
from repro.service.client import ServiceClient

QUICK = {"app": "spin", "params": {"rounds": 5, "ticks_per_round": 10}}
SLOW = {"app": "spin", "params": {"rounds": 400000, "ticks_per_round": 10}}


@pytest.fixture
def stack(tmp_path):
    svc = RunService(tmp_path / "store", n_workers=2,
                     quotas={"bob": TenantQuota(max_running=1,
                                                max_queued=1)}).start()
    server, thread = serve(svc)
    yield svc, server
    server.shutdown()
    svc.stop(timeout=10.0, kill_live=True)


@pytest.fixture
def client(stack):
    _, server = stack
    return ServiceClient(server.url, tenant="alice")


class TestEndpoints:

    def test_health_and_apps(self, client):
        h = client.health()
        assert h["status"] == "ok"
        assert "jacobi" in client.apps()

    def test_submit_wait_fetch(self, client, tmp_path):
        rec = client.submit(QUICK)
        assert rec["state"] == "QUEUED" and rec["tenant"] == "alice"
        done = client.wait(rec["run_id"])
        assert done["state"] == "DONE"
        names = client.artifacts(rec["run_id"])
        assert "run.events.jsonl" in names
        data = client.fetch_artifact(rec["run_id"], "run.events.jsonl")
        assert data and b"etype" in data
        path = client.fetch_artifact(rec["run_id"], "manifest.json",
                                     tmp_path / "m.json")
        manifest = json.loads(path.read_text())
        assert manifest["dispatcher"] == "indexed"
        assert "task_bodies" not in manifest

    def test_untraced_run_archives_no_empty_chrome_trace(self, client):
        rec = client.submit(dict(QUICK, trace=False))
        assert client.wait(rec["run_id"])["state"] == "DONE"
        names = client.artifacts(rec["run_id"])
        assert "run.chrome.json" not in names
        assert "run.events.jsonl" in names        # empty, but archived
        assert client.fetch_artifact(rec["run_id"], "run.events.jsonl") \
            == b""
        assert client.trace(rec["run_id"]) == []
        assert "run.chrome.json" in client.artifacts(
            client.wait(client.submit(QUICK)["run_id"])["run_id"])

    def test_list_runs_filters(self, client):
        rec = client.submit(QUICK)
        client.wait(rec["run_id"])
        assert any(r["run_id"] == rec["run_id"]
                   for r in client.list_runs(tenant="alice"))
        assert client.list_runs(tenant="nobody") == []
        assert [r["state"] for r in client.list_runs(state="DONE")]

    def test_kill_over_http(self, client):
        rec = client.submit(SLOW)
        import time
        for _ in range(200):
            if client.get_run(rec["run_id"])["state"] == "RUNNING":
                break
            time.sleep(0.02)
        client.kill(rec["run_id"])
        final = client.wait(rec["run_id"], timeout=30)
        assert final["state"] == "KILLED"

    def test_trace_spans_metrics_status(self, client):
        rec = client.submit(QUICK)
        client.wait(rec["run_id"])
        events = client.trace(rec["run_id"])
        assert events and client.trace(rec["run_id"], limit=2) == events[-2:]
        spans = client.spans(rec["run_id"])
        assert spans and all("duration" in s for s in spans)
        m = client.metrics(rec["run_id"])
        assert m["live"] is False and "metrics" in m
        text = client.status_text(rec["run_id"])
        assert rec["run_id"] in text

    def test_usage_and_tenants(self, client):
        rec = client.submit(QUICK)
        client.wait(rec["run_id"])
        u = client.usage()
        assert u["max_running"] >= 1
        assert "alice" in client.tenants()


class TestErrorMapping:

    def test_400_bad_spec(self, client):
        with pytest.raises(InvalidRunSpec):
            client.submit({"app": "no_such_app"})
        with pytest.raises(InvalidRunSpec):
            client.submit({"app": "jacobi", "bogus_field": 1})
        for axis, value in (("window_path", "slow"),
                            ("task_bodies", "threads")):
            with pytest.raises(InvalidRunSpec, match=axis):
                client.submit({"app": "spin", axis: value})

    def test_400_garbage_fault_plan(self, client):
        with pytest.raises(InvalidRunSpec, match="fault_plan"):
            client.submit(dict(QUICK, fault_plan="garbage here"))

    def test_400_ill_typed_param(self, client):
        for rounds in ("x", 1.5):
            with pytest.raises(InvalidRunSpec, match="rounds"):
                client.submit({"app": "spin", "params": {"rounds": rounds}})

    def test_400_unknown_state_filter(self, client):
        with pytest.raises(InvalidRunSpec, match="unknown run state"):
            client.list_runs(state="BOGUS")

    def test_400_negative_trace_limit(self, stack, client):
        """A negative tail is refused, not read as "drop the first N"."""
        _, server = stack
        done = client.wait(client.submit(QUICK)["run_id"])
        live = client.submit(SLOW)
        import time
        for _ in range(200):
            if client.get_run(live["run_id"])["state"] == "RUNNING":
                break
            time.sleep(0.02)
        try:
            for run_id in (done["run_id"], live["run_id"]):
                with pytest.raises(InvalidRunSpec, match="limit"):
                    client.trace(run_id, limit=-5)
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(
                    f"{server.url}/runs/{done['run_id']}/trace?limit=-5")
            assert ei.value.code == 400
            assert json.loads(ei.value.read())["error"] == "InvalidRunSpec"
        finally:
            client.kill(live["run_id"])
            client.wait(live["run_id"], timeout=30)

    def test_404_unknown_run(self, client):
        with pytest.raises(UnknownRun):
            client.get_run("r999999")
        with pytest.raises(UnknownRun):
            client.fetch_artifact("r999999", "x.bin")

    def test_429_over_quota(self, stack):
        _, server = stack
        bob = ServiceClient(server.url, tenant="bob")
        first = bob.submit(SLOW)
        import time
        for _ in range(200):
            if bob.get_run(first["run_id"])["state"] == "RUNNING":
                break
            time.sleep(0.02)
        bob.submit(SLOW)          # waits behind max_running=1
        with pytest.raises(QuotaExceeded):
            bob.submit(SLOW)

    def test_403_cross_tenant_kill(self, stack, client):
        svc, server = stack
        rec = client.submit(SLOW)
        mallory = ServiceClient(server.url, tenant="mallory")
        from repro.service.client import ServiceClientError
        with pytest.raises(ServiceClientError) as ei:
            mallory.kill(rec["run_id"])
        assert ei.value.status == 403
        client.kill(rec["run_id"])      # the owner still can
        client.wait(rec["run_id"], timeout=30)

    def test_404_unknown_route(self, stack):
        _, server = stack
        req = urllib.request.Request(server.url + "/frobnicate")
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(req)
        assert ei.value.code == 404

    def test_error_envelope_shape(self, stack):
        _, server = stack
        try:
            urllib.request.urlopen(server.url + "/runs/r999999")
        except urllib.error.HTTPError as e:
            body = json.loads(e.read())
            assert body["error"] == "UnknownRun" and body["detail"]
        else:
            raise AssertionError("expected 404")
