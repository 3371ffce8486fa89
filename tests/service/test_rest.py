"""The REST control plane end to end over a real HTTP socket."""

import email.utils
import json
import re
import socket
import struct
import threading
import time
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import InvalidRunSpec, QuotaExceeded, UnknownRun
from repro.service import RunService, TenantQuota, rest, serve
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
    server.server_close()
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
        assert "dispatcher" not in manifest
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

    @pytest.mark.parametrize("spec, match", [
        ({"app": "jacobi", "params": {"n_workers": 20}}, "slots must be 1..16"),
        ({"app": "pipeline", "params": {"slots": 20}}, "slots must be 1..16"),
        ({"app": "jacobi_force", "params": {"force_pes": 40}},
         "secondary PE 21 is not an MMOS PE"),
    ])
    def test_400_configuration_the_machine_cannot_hold(self, client, spec,
                                                       match):
        """Refused at submit, not FAILED at VM boot."""
        with pytest.raises(InvalidRunSpec, match=match):
            client.submit(spec)

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


# ---------------------------------------------------------------- the wire

@pytest.fixture(scope="module")
def wire(tmp_path_factory):
    """One service for every wire test."""
    svc = RunService(tmp_path_factory.mktemp("wire") / "store",
                     n_workers=2).start()
    server, _ = serve(svc)
    yield svc, server
    server.shutdown()
    server.server_close()
    svc.stop(timeout=10.0, kill_live=True)


def connect(server, timeout=5.0):
    host, port = server.server_address[:2]
    return socket.create_connection((host, port), timeout=timeout)


def read_response(f):
    """One response from the file ``f``: (status, headers, body), with
    headers keyed by lower-cased name; None at end of input."""
    line = f.readline()
    if not line:
        return None
    m = re.fullmatch(rb"HTTP/1\.1 (\d{3}) [^\r\n]+\r\n", line)
    assert m, line
    headers = {}
    while (line := f.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = f.read(int(headers["content-length"]))
    return int(m.group(1)), headers, body


def exchange(server, data, half_close=False):
    """Send ``data`` on one connection and read every response until the
    server closes it (a stalled connection times out the socket)."""
    with connect(server) as s:
        s.sendall(data)
        if half_close:
            s.shutdown(socket.SHUT_WR)
        f = s.makefile("rb")
        return list(iter(lambda: read_response(f), None))


def assert_refused(responses, status, error=None):
    """One answer, ``status`` with the error envelope, then the server
    closed the connection."""
    assert [r[0] for r in responses] == [status]
    _, headers, body = responses[0]
    assert headers["connection"] == "close"
    assert headers["content-type"] == "application/json"
    envelope = json.loads(body)
    assert set(envelope) == {"error", "detail"} and envelope["detail"]
    if error:
        assert envelope["error"] == error


def post_runs(headers, body=b""):
    return (b"POST /runs HTTP/1.1\r\nHost: x\r\nX-Pisces-Tenant: bodies\r\n"
            + headers + b"\r\n" + body)


class TestRequestBodies:
    """``POST /runs`` framing is refused before any body is read, and
    nothing is submitted."""

    def test_negative_length_is_400(self, wire):
        svc, server = wire
        responses = exchange(server, post_runs(b"Content-Length: -1\r\n"))
        assert_refused(responses, 400, "BadRequest")
        assert svc.list_runs(tenant="bodies") == []

    @pytest.mark.parametrize("length", [b"abc", b"", b"+5", b"5, 5",
                                        "\u00b2".encode("latin-1")],
                             ids=["abc", "empty", "plus", "list", "super2"])
    def test_non_numeric_length_is_400(self, wire, length):
        svc, server = wire
        responses = exchange(server, post_runs(
            b"Content-Length: " + length + b"\r\n", b"{}"))
        assert_refused(responses, 400, "BadRequest")
        assert svc.list_runs(tenant="bodies") == []

    def test_huge_length_is_413_before_any_body(self, wire):
        svc, server = wire
        responses = exchange(server, post_runs(
            b"Content-Length: 99999999999\r\n"))
        assert_refused(responses, 413, "RequestEntityTooLarge")
        assert svc.list_runs(tenant="bodies") == []

    @pytest.mark.parametrize("length", [b"%d" % (rest.MAX_BODY + 1),
                                        b"9" * 5000],
                             ids=["cap-plus-one", "5000-digits"])
    def test_length_over_the_cap_is_413(self, wire, length):
        _, server = wire
        responses = exchange(server, post_runs(
            b"Content-Length: " + length + b"\r\n"))
        assert_refused(responses, 413)

    def test_length_with_leading_zeros(self, wire):
        _, server = wire
        body = json.dumps({"tenant": "alice", "spec": QUICK}).encode()
        [(status, _, answer)] = exchange(server, post_runs(
            b"Connection: close\r\nContent-Length: 000%d\r\n" % len(body),
            body))
        assert status == 201 and json.loads(answer)["tenant"] == "alice"

    def test_chunked_body_is_411_and_not_read_as_a_request(self, wire):
        svc, server = wire
        spec = json.dumps({"tenant": "bodies", "spec": QUICK}).encode()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(spec), spec)
        responses = exchange(server, post_runs(
            b"Transfer-Encoding: chunked\r\n", chunked))
        assert_refused(responses, 411, "LengthRequired")
        assert svc.list_runs(tenant="bodies") == []

    def test_expect_100_continue(self, wire):
        _, server = wire
        body = json.dumps({"tenant": "alice", "spec": QUICK}).encode()
        with connect(server) as s:
            s.sendall(post_runs(b"Content-Length: %d\r\nExpect: "
                                b"100-continue\r\n" % len(body)))
            f = s.makefile("rb")
            assert f.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert f.readline() == b"\r\n"
            s.sendall(body)
            status, _, answer = read_response(f)
        assert status == 201 and json.loads(answer)["tenant"] == "alice"


class TestMalformedRequests:
    """Every refusal is a well-formed answer with the error envelope,
    then the connection closes; none is a 500."""

    @pytest.mark.parametrize("request_bytes, status", [
        pytest.param(b"GET /health\r\n\r\n", 400, id="two-words"),
        pytest.param(b"GET /health HTTP/1.1 extra\r\n\r\n", 400,
                     id="four-words"),
        pytest.param(b"\r\n", 400, id="empty-line"),
        pytest.param(b"GET /health HTTP/1.x\r\n\r\n", 400, id="minor-x"),
        pytest.param(b"GET /health HTTP/1.\r\n\r\n", 400, id="no-minor"),
        pytest.param(b"GET /health FTP/1.1\r\n\r\n", 400, id="not-http"),
        pytest.param(b"GET /health HTTP/1." + b"1" * 5000 + b"\r\n\r\n", 400,
                     id="long-minor"),
        pytest.param(b"GET /health HTTP/2.0\r\n\r\n", 505, id="http2"),
        pytest.param(b"GET /health HTTP/0.9\r\n\r\n", 505, id="http09"),
        pytest.param(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414,
                     id="long-request-line"),
        pytest.param(b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 70_000
                     + b"\r\n\r\n", 431, id="long-header-line"),
        pytest.param(b"GET /health HTTP/1.1\r\n"
                     + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
                     + b"\r\n", 431, id="101-headers"),
        pytest.param(b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n",
                     400, id="no-colon"),
        pytest.param(b"GET /health HTTP/1.1\r\nHost : x\r\n\r\n", 400,
                     id="space-before-colon"),
        pytest.param(b"GET /health HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n",
                     400, id="folded-header"),
        pytest.param(b"HEAD /health HTTP/1.1\r\n\r\n", 501, id="HEAD"),
        pytest.param(b"PUT /runs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
                     501, id="PUT"),
        pytest.param(b"DELETE /runs/r000001 HTTP/1.1\r\n\r\n", 501,
                     id="DELETE"),
    ])
    def test_refused(self, wire, request_bytes, status):
        _, server = wire
        assert_refused(exchange(server, request_bytes), status)

    def test_exactly_100_headers_are_read(self, wire):
        _, server = wire
        request = (b"GET /health HTTP/1.1\r\nConnection: close\r\n"
                   + b"".join(b"X-H%d: v\r\n" % i for i in range(99))
                   + b"\r\n")
        [(status, _, body)] = exchange(server, request)
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_bad_target_is_400(self, wire):
        _, server = wire
        responses = exchange(server, b"GET //[::1/health HTTP/1.1\r\n"
                                     b"Connection: close\r\n\r\n")
        assert [r[0] for r in responses] == [400]

    def test_two_requests_on_one_keep_alive_connection(self, wire):
        _, server = wire
        with connect(server) as s:
            f = s.makefile("rb")
            s.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            status, headers, body = read_response(f)
            assert status == 200 and "connection" not in headers
            assert json.loads(body)["status"] == "ok"
            s.sendall(b"GET /apps HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, body = read_response(f)
            assert status == 200 and "spin" in json.loads(body)["apps"]
            # an application error keeps the connection too
            s.sendall(b"GET /runs/r999999 HTTP/1.1\r\n\r\n")
            assert read_response(f)[0] == 404
            s.sendall(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, headers, _ = read_response(f)
            assert status == 200 and headers["connection"] == "close"
            assert f.read() == b""

    def test_pipelined_requests_answered_in_order(self, wire):
        _, server = wire
        responses = exchange(server, b"GET /health HTTP/1.1\r\n\r\n"
                                     b"GET /nowhere HTTP/1.1\r\n\r\n"
                                     b"GET /apps HTTP/1.1\r\n"
                                     b"Connection: close\r\n\r\n")
        assert [r[0] for r in responses] == [200, 404, 200]

    def test_http10_closes_unless_keep_alive(self, wire):
        _, server = wire
        [(status, headers, _)] = exchange(
            server, b"GET /health HTTP/1.0\r\n\r\nGET /apps HTTP/1.0\r\n\r\n")
        assert status == 200 and headers["connection"] == "close"
        responses = exchange(
            server, b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                    b"GET /apps HTTP/1.0\r\n\r\n")
        assert [r[0] for r in responses] == [200, 200]

    def test_response_headers(self, wire):
        _, server = wire
        [(_, headers, body)] = exchange(
            server, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert headers["server"].startswith("PiscesRunService/1.0 Python/")
        assert re.fullmatch(r"\w{3}, \d\d \w{3} \d{4} \d\d:\d\d:\d\d GMT",
                            headers["date"])
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)

    @pytest.mark.parametrize("when", [0.0, 784111777.0, 951782400.0,
                                      1_700_000_000.5, 4_102_444_799.0])
    def test_date_is_imf_fixdate(self, when):
        assert rest.http_date(when) == email.utils.formatdate(when,
                                                              usegmt=True)

    def test_tenant_header_name_is_case_insensitive(self, wire):
        _, server = wire
        client = ServiceClient(server.url, tenant="alice")
        rec = client.submit(SLOW)
        try:
            request = (b"POST /runs/%s/kill HTTP/1.1\r\nx-pisces-TENANT: "
                       b"mallory\r\nConnection: close\r\n\r\n"
                       % rec["run_id"].encode())
            [(status, _, body)] = exchange(server, request)
            assert status == 403
            assert json.loads(body)["error"] == "PermissionError"
        finally:
            client.kill(rec["run_id"])
            client.wait(rec["run_id"], timeout=30)


#: Well-formed requests the mutation strategy starts from; none of them
#: reaches a route that could answer 500.
BASE_REQUESTS = (
    b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n",
    b"GET /runs?state=DONE&tenant=alice HTTP/1.1\r\n"
    b"Connection: keep-alive\r\n\r\n",
    b"GET /runs/r000001/trace?limit=2 HTTP/1.0\r\n\r\n",
    b"POST /runs HTTP/1.1\r\nContent-Type: application/json\r\n"
    b"X-Pisces-Tenant: fuzz\r\nContent-Length: 46\r\n\r\n"
    b'{"tenant": "fuzz", "spec": {"app": "no_app"}}\n',
)
SPECIAL = [b"\r", b"\n", b"\r\n", b":", b" ", b"-", b"0", b"9", b"/", b"\x00",
           b"\xff", b"HTTP/1.1", b"Content-Length: ", b"Transfer-Encoding: "]


@st.composite
def mutated_requests(draw):
    data = bytearray(draw(st.sampled_from(BASE_REQUESTS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        insert = draw(st.sampled_from(SPECIAL) | st.binary(max_size=3))
        data[at:at + cut] = insert
    return bytes(data)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request_bytes=mutated_requests())
def test_mutated_requests_get_no_500_and_never_stall(wire, request_bytes):
    """Whatever the bytes, each answer is well formed, none is a 500,
    every error carries the envelope, and the server ends the connection
    once the client has nothing more to send."""
    _, server = wire
    for status, _, body in exchange(server, request_bytes, half_close=True):
        assert status != 500, body
        if status >= 400:
            assert set(json.loads(body)) == {"error", "detail"}


def test_client_that_leaves_prints_nothing(wire, capsys, monkeypatch):
    """Clients that reset the connection before their answer is written:
    the server ends those connections without a traceback."""
    _, server = wire
    closed = threading.Semaphore(0)
    end_connection = server.end_connection

    def counted(conn):              # every connection ends here
        end_connection(conn)
        closed.release()

    monkeypatch.setattr(server, "end_connection", counted)
    paths = (b"/health", b"/runs", b"/apps")
    for path in paths:
        with connect(server) as s:
            s.sendall(b"GET %s HTTP/1.1\r\n\r\n" % path)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                         struct.pack("ii", 1, 0))      # close = reset
    for _ in paths:
        assert closed.acquire(timeout=10)
    assert capsys.readouterr().err == ""


def test_silent_and_stalled_clients_are_released(wire, capsys,
                                                 monkeypatch):
    """Clients that send nothing, half a request line, or a body short
    of its ``Content-Length`` hold no handler once the read timeout
    passes: each connection is closed without an answer or a
    traceback, and the short body submits nothing."""
    svc, server = wire
    monkeypatch.setattr(rest, "READ_TIMEOUT_S", 0.3)
    closed = threading.Semaphore(0)
    end_connection = server.end_connection

    def counted(conn):              # every connection ends here
        end_connection(conn)
        closed.release()

    monkeypatch.setattr(server, "end_connection", counted)
    stalls = [b""] * 5 + [b"GET /hea", post_runs(
        b"Content-Length: 100\r\n", b'{"spec": {"app": "spin"}')]
    sockets = [connect(server) for _ in stalls]
    try:
        for s, data in zip(sockets, stalls):
            s.sendall(data)
        for s in sockets:
            assert s.recv(1) == b""             # closed, nothing answered
        for _ in stalls:
            assert closed.acquire(timeout=10)
    finally:
        for s in sockets:
            s.close()
    assert svc.list_runs(tenant="bodies") == []
    assert capsys.readouterr().err == ""


def test_one_thread_serves_every_connection(wire):
    """Five silent connections and twenty requests, each on its own
    connection, start no thread."""
    _, server = wire
    client = ServiceClient(server.url)
    client.health()
    before = threading.active_count()
    silent = [connect(server) for _ in range(5)]
    try:
        for _ in range(20):
            assert client.health()["status"] == "ok"
            assert threading.active_count() == before
    finally:
        for s in silent:
            s.close()


def test_silent_client_does_not_delay_another(wire):
    """A connection holding half a request does not hold up another
    client's answer by more than the loop's poll interval."""
    _, server = wire
    request = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"

    def fastest_answer():           # the best of three, against noise
        times = []
        for _ in range(3):
            t = time.perf_counter()
            [(status, _, _)] = exchange(server, request)
            times.append(time.perf_counter() - t)
            assert status == 200
        return min(times)

    alone = fastest_answer()
    with connect(server) as silent:
        silent.sendall(b"GET /hea")
        beside = fastest_answer()
    assert beside < alone + rest.POLL_S, (alone, beside)
