"""The REST control plane: HTTP/1.1 on stdlib ``socketserver`` over a
RunService.

Endpoints (all JSON unless noted)::

    GET  /health                         service status, apps, tenants
    GET  /apps                           catalog app names
    POST /runs                           submit {"tenant": t, "spec": {...}}
    GET  /runs[?tenant=&state=]          list run records (state: one
                                         of the six, else 400)
    GET  /runs/<id>                      one run record
    POST /runs/<id>/kill                 request kill (poll for KILLED)
    GET  /runs/<id>/metrics              metrics snapshot (live|archived)
    GET  /runs/<id>/trace[?limit=N]      trace events (tail N >= 0)
    GET  /runs/<id>/spans                derived spans
    GET  /runs/<id>/status               monitor status text (text/plain)
    GET  /runs/<id>/artifacts            archived artifact names
    GET  /runs/<id>/artifacts/<name>     artifact bytes (octet-stream)
    GET  /tenants                        known tenants
    GET  /tenants/<t>/usage              quota consumption

Error mapping: :class:`InvalidRunSpec` -> 400, :class:`UnknownRun` ->
404, :class:`QuotaExceeded` -> **429**, anything else -> 500; every
error body is ``{"error": type, "detail": text}``.

The handler reads HTTP/1.1 itself, so a service process loads no
``http.server``, ``http.client``, ``email`` or ``ssl``.  A request is a
line ``METHOD TARGET HTTP/1.x``, at most :data:`MAX_HEADERS` header
lines of at most :data:`MAX_LINE` bytes each, and a body of
``Content-Length`` bytes, at most :data:`MAX_BODY`.  A connection
serves requests until ``Connection: close`` or an HTTP/1.0 request
without ``keep-alive``.  A request the server will not read further is
refused with the same envelope and ``Connection: close``: 400 (request
line not three words, bad version, header line without a colon, bad
``Content-Length``), 411 (any ``Transfer-Encoding``), 413 (body over
the cap), 414 (request line too long), 431 (header line too long, too
many headers), 501 (a method other than GET and POST), 505 (not
HTTP/1).  A client that closes its connection early just ends it.

Multi-tenancy is cooperative, not authenticated (the service trusts
the submitted tenant name, like the paper's single-machine PISCES
trusts its user); an ``X-Pisces-Tenant`` header, when present, must
match the addressed run's tenant -- a guard against *accidental*
cross-tenant kills, not an auth scheme.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import (InvalidRunSpec, QuotaExceeded, ServiceError,
                      UnknownRun)
from .service import RunService
from .store import RunRecord

#: Longest request line or header line, and most header lines, in bytes
#: and lines (the limits ``http.client`` applies).
MAX_LINE = 65536
MAX_HEADERS = 100
#: Largest request body; the largest Fortran program in the repo is
#: about 1 KB.
MAX_BODY = 1 << 20
#: After a refusal, how long to read (and drop) what the client still
#: sends, so closing does not reset the connection under the answer.
LINGER_S = 1.0

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    403: "Forbidden", 404: "Not Found", 409: "Conflict",
    411: "Length Required", 413: "Request Entity Too Large",
    414: "Request-URI Too Long", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 505: "HTTP Version Not Supported",
}
_VERSION = re.compile(r"HTTP/(\d{1,9})\.(\d{1,9})")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")


def http_date(when: Optional[float] = None) -> str:
    """``when`` (default now) as an IMF-fixdate, the ``Date`` format."""
    t = time.gmtime(when)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def record_json(rec: RunRecord) -> Dict[str, Any]:
    return rec.to_dict()


class _Refused(Exception):
    """A request the server answers with ``code`` and reads no further."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(detail)
        self.code = code


class _Handler(socketserver.StreamRequestHandler):
    """One connection.  ``self.server.service`` is the RunService."""

    server_version = "PiscesRunService/1.0"
    sys_version = "Python/" + sys.version.split()[0]

    # quiet by default; the __main__ entry point can flip this
    log_to_stderr = False

    @property
    def service(self) -> RunService:
        return self.server.service        # type: ignore[attr-defined]

    # ------------------------------------------------------------- wire

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except ConnectionError:
            pass                        # the client left

    def _handle_one(self) -> bool:
        """Serve one request; False when the connection is done."""
        self.requestline = ""
        self.close_connection = True
        try:
            if not self._read_request():
                return False            # end of input: the client left
        except _Refused as e:
            self.close_connection = True
            self._send(e.code, {"error": _REASONS[e.code].replace(" ", "")
                                .replace("-", ""), "detail": str(e)})
            self._linger()
            return False
        self._route(self.command)
        return not self.close_connection

    def _readline(self, code: int) -> bytes:
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise _Refused(code, f"line longer than {MAX_LINE} bytes")
        return line

    def _read_request(self) -> bool:
        """Read one request into ``command``, ``path``, ``headers`` (keyed
        by lower-cased name) and ``body``; False at end of input."""
        line = self._readline(414)
        if not line:
            return False
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            raise _Refused(400, f"bad request line {self.requestline!r}")
        self.command, self.path, version = words
        m = _VERSION.fullmatch(version)
        if not m:
            raise _Refused(400, f"bad HTTP version {version!r}")
        if int(m[1]) != 1:
            raise _Refused(505, f"{version} is not supported; use HTTP/1.1")

        self.headers: Dict[str, str] = {}
        for count in range(MAX_HEADERS + 1):
            line = self._readline(431)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return False
            if count == MAX_HEADERS:
                raise _Refused(431, f"more than {MAX_HEADERS} headers")
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Refused(400, f"bad header line {line[:80]!r}")
            key, value = name.lower(), value.strip()
            self.headers[key] = (f"{self.headers[key]}, {value}"
                                 if key in self.headers else value)
        tokens = {t.strip() for t in
                  self.headers.get("connection", "").lower().split(",")}
        http10 = int(m[2]) == 0
        self.close_connection = "close" in tokens or (
            http10 and "keep-alive" not in tokens)

        if self.command not in ("GET", "POST"):
            raise _Refused(501, f"method {self.command!r} is not served")
        if "transfer-encoding" in self.headers:
            raise _Refused(411, "Transfer-Encoding is not accepted; "
                                "send a Content-Length")
        text = self.headers.get("content-length", "0")
        if not (text.isascii() and text.isdigit()):
            raise _Refused(400, f"bad Content-Length {text[:80]!r}")
        digits = text.lstrip("0") or "0"       # int() refuses 4,300+ digits
        if len(digits) > len(str(MAX_BODY)) or int(digits) > MAX_BODY:
            raise _Refused(413, f"body of {text[:80]} bytes is over the "
                                f"{MAX_BODY}-byte limit")
        length = int(digits)
        if length and not http10 and \
                self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.body = self.rfile.read(length)
        return len(self.body) == length

    def _linger(self) -> None:
        """Read and drop what the client still sends, until it closes or
        :data:`LINGER_S` passes without input: closing a socket with
        unread input resets the connection, and the client may lose the
        answer it has not read yet."""
        try:
            self.connection.shutdown(socket.SHUT_WR)
            self.connection.settimeout(LINGER_S)
            left = MAX_BODY
            while left > 0:
                data = self.connection.recv(65536)
                if not data:
                    break
                left -= len(data)
        except OSError:
            pass

    def log_request(self, code: int, size: int) -> None:
        if self.log_to_stderr:
            sys.stderr.write(f"{self.client_address[0]} - - [{http_date()}] "
                             f"\"{self.requestline}\" {code} {size}\n")

    # ------------------------------------------------------------ plumbing

    def _send(self, code: int, payload: Any,
              content_type: str = "application/json") -> None:
        if content_type == "application/json":
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        elif isinstance(payload, bytes):
            body = payload
        else:
            body = str(payload).encode()
        head = [f"HTTP/1.1 {code} {_REASONS[code]}",
                f"Server: {self.server_version} {self.sys_version}",
                f"Date: {http_date()}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        if self.close_connection:
            head.append("Connection: close")
        self.wfile.write("\r\n".join(head).encode("latin-1")
                         + b"\r\n\r\n" + body)
        self.log_request(code, len(body))

    def _error(self, code: int, exc: BaseException) -> None:
        self._send(code, {"error": type(exc).__name__, "detail": str(exc)})

    def _read_body(self) -> Dict[str, Any]:
        if not self.body:
            return {}
        try:
            body = json.loads(self.body)
        except ValueError as e:
            raise InvalidRunSpec(f"request body is not JSON: {e}") from None
        if not isinstance(body, dict):
            raise InvalidRunSpec("request body must be a JSON object")
        return body

    def _check_tenant(self, rec: RunRecord) -> None:
        claimed = self.headers.get("x-pisces-tenant")
        if claimed and claimed != rec.tenant:
            raise PermissionError(
                f"run {rec.run_id} belongs to tenant {rec.tenant!r}")

    def _route(self, method: str) -> None:
        try:
            url = urlparse(self.path)
            parts = tuple(p for p in url.path.split("/") if p)
            query = {k: v[-1] for k, v in parse_qs(url.query).items()}
            handled = self._dispatch(method, parts, query)
        except (InvalidRunSpec, ValueError) as e:
            self._error(400, e)
        except PermissionError as e:
            self._error(403, e)
        except UnknownRun as e:
            self._error(404, e)
        except QuotaExceeded as e:
            self._error(429, e)
        except ServiceError as e:
            self._error(409, e)
        except Exception as e:                      # noqa: BLE001
            self._error(500, e)
        else:
            if not handled:
                self._send(404, {"error": "NotFound",
                                 "detail": f"no route {method} {url.path}"})

    # ------------------------------------------------------------- routes

    def _dispatch(self, method: str, parts: Tuple[str, ...],
                  query: Dict[str, str]) -> bool:
        svc = self.service

        if method == "GET" and parts == ("health",):
            self._send(200, svc.health())
        elif method == "GET" and parts == ("apps",):
            from . import catalog
            self._send(200, {"apps": list(catalog.app_names())})
        elif method == "POST" and parts == ("runs",):
            body = self._read_body()
            tenant = body.get("tenant") or \
                self.headers.get("x-pisces-tenant") or ""
            rec = svc.submit(tenant, body.get("spec") or {})
            self._send(201, record_json(rec))
        elif method == "GET" and parts == ("runs",):
            recs = svc.list_runs(tenant=query.get("tenant"),
                                 state=query.get("state"))
            self._send(200, {"runs": [record_json(r) for r in recs]})
        elif method == "GET" and len(parts) == 2 and parts[0] == "runs":
            self._send(200, record_json(svc.get_run(parts[1])))
        elif method == "POST" and len(parts) == 3 \
                and parts[0] == "runs" and parts[2] == "kill":
            self._check_tenant(svc.get_run(parts[1]))
            self._send(202, record_json(svc.kill(parts[1])))
        elif method == "GET" and len(parts) == 3 and parts[0] == "runs":
            run_id, leaf = parts[1], parts[2]
            if leaf == "metrics":
                self._send(200, svc.metrics(run_id))
            elif leaf == "trace":
                limit = int(query.get("limit", "0"))
                self._send(200, {"events": svc.trace_events(run_id, limit)})
            elif leaf == "spans":
                self._send(200, {"spans": svc.trace_spans(run_id)})
            elif leaf == "status":
                self._send(200, svc.status_text(run_id) + "\n",
                           content_type="text/plain; charset=utf-8")
            elif leaf == "artifacts":
                self._send(200, {"artifacts":
                                 svc.store.list_artifacts(run_id)})
            else:
                return False
        elif method == "GET" and len(parts) == 4 \
                and parts[0] == "runs" and parts[2] == "artifacts":
            path = svc.store.artifact_path(parts[1], parts[3])
            self._send(200, path.read_bytes(),
                       content_type="application/octet-stream")
        elif method == "GET" and parts == ("tenants",):
            self._send(200, {"tenants": svc.store.tenants()})
        elif method == "GET" and len(parts) == 3 \
                and parts[0] == "tenants" and parts[2] == "usage":
            self._send(200, {"tenant": parts[1],
                             "usage": svc.usage(parts[1])})
        else:
            return False
        return True



class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """The HTTP front end; one handler thread per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: RunService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(service: RunService, host: str = "127.0.0.1", port: int = 0,
          ) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start serving in a background thread; returns (server, thread).

    ``port=0`` binds an ephemeral port -- read ``server.url``.
    """
    server = ServiceHTTPServer(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever,
                              name="pisces-svc-http", daemon=True)
    thread.start()
    return server, thread
