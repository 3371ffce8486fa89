"""The REST control plane: HTTP/1.1 over a RunService, every connection
served by one thread.

Endpoints (all JSON unless noted)::

    GET  /health                         service status, apps, tenants
    GET  /apps                           catalog app names
    POST /runs                           submit {"tenant": t, "spec": {...}}
    GET  /runs[?tenant=&state=]          list run records (state: one
                                         of the five, else 400)
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

:class:`ServiceHTTPServer` is one ``selectors`` loop: it accepts each
connection, buffers its bytes, parses a request once it is complete,
dispatches it on the loop's thread and writes the answer from the
connection's out-buffer.  No thread is started per connection or per
request, so a client that sends slowly or not at all holds only its
buffers, and requests are answered one at a time.

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
HTTP/1).  A client that closes its connection early just ends it, and
so does one that moves no bytes for :data:`READ_TIMEOUT_S`.

Multi-tenancy is cooperative, not authenticated (the service trusts
the submitted tenant name, like the paper's single-machine PISCES
trusts its user); an ``X-Pisces-Tenant`` header, when present, must
match the addressed run's tenant -- a guard against *accidental*
cross-tenant kills, not an auth scheme.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
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
#: How long a connection waits for its client's next bytes before the
#: server closes it, so a silent or stalled client frees its socket.
READ_TIMEOUT_S = 30.0
#: How often ``serve_forever`` looks for a ``shutdown()`` request and
#: for connections past their deadline.
POLL_S = 0.05

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


class _Refused(Exception):
    """A request the server answers with ``code`` and reads no further."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(detail)
        self.code = code


#: What the request parser yields to ask for the next line.
_LINE = None


class _Handler:
    """One connection: its buffers, its request parser and the routes.

    The serving loop hands it each socket event (:meth:`ready`); it
    reads what arrived into its in-buffer, feeds the parser, dispatches
    each request the parser completes and writes the answers from its
    out-buffer.  ``self.server.service`` is the RunService."""

    server_version = "PiscesRunService/1.0"
    sys_version = "Python/" + sys.version.split()[0]

    # quiet by default; the __main__ entry point can flip this
    log_to_stderr = False

    def __init__(self, connection: socket.socket, client_address: Any,
                 server: "ServiceHTTPServer") -> None:
        self.connection = connection
        self.client_address = client_address
        self.server = server
        #: The socket events the serving loop waits for.
        self.events = selectors.EVENT_READ
        self.requestline = ""
        self.close_connection = True
        self._in = bytearray()
        self._out = bytearray()
        self._eof = False
        self._refused = False           # linger once the refusal is out
        self._lingering = False
        self._linger_left = MAX_BODY
        self._touch()
        self._next_request()

    # ------------------------------------------------------------- wire

    def _touch(self) -> None:
        """Bytes moved: the connection may wait :data:`READ_TIMEOUT_S`
        (:data:`LINGER_S` while lingering) for its next ones."""
        self.deadline = time.monotonic() + (
            LINGER_S if self._lingering else READ_TIMEOUT_S)

    def ready(self, events: int) -> int:
        """Serve what the socket is ready for; returns the events to wait
        for next, 0 when the connection is done."""
        if events & selectors.EVENT_READ:
            try:
                data = self.connection.recv(65536)
            except BlockingIOError:
                return self.events
            if data:
                self._touch()
            if self._lingering:
                self._linger_left -= len(data)
                return selectors.EVENT_READ \
                    if data and self._linger_left > 0 else 0
            if data:
                self._in += data
            else:
                self._eof = True
        return self._advance()

    def _advance(self) -> int:
        """Write, parse and dispatch as far as the buffers allow."""
        while True:
            if self._out:
                try:
                    sent = self.connection.send(self._out)
                except BlockingIOError:
                    return selectors.EVENT_WRITE
                del self._out[:sent]
                self._touch()
                if self._out:
                    return selectors.EVENT_WRITE
            if self._parser is None:        # the last answer is out
                return self._linger() if self._refused else 0
            data = self._take()
            if data is None:
                return selectors.EVENT_READ
            self._feed(data)

    def _next_request(self) -> None:
        self._parser = self._read_request()
        self._need = next(self._parser)

    def _take(self) -> Optional[bytes]:
        """What the parser asked for, cut from the in-buffer the way a
        buffered ``readline(MAX_LINE + 1)`` or ``read(n)`` returns it;
        None until the buffer holds it."""
        buf, need = self._in, self._need
        if need is _LINE:
            end = buf.find(b"\n", 0, MAX_LINE + 1) + 1
            if not end and len(buf) > MAX_LINE:
                end = MAX_LINE + 1
        else:
            end = need if len(buf) >= need else 0
        if not end:
            if not self._eof:
                return None
            end = len(buf)              # end of input: what is left
        data = bytes(buf[:end])
        del buf[:end]
        return data

    def _feed(self, data: bytes) -> None:
        """Send the parser ``data``; answer the request it completes."""
        try:
            self._need = self._parser.send(data)
            return
        except StopIteration as stop:
            complete = stop.value
        except _Refused as e:
            self._parser, self._refused = None, True
            self.close_connection = True
            self._send(e.code, {"error": _REASONS[e.code].replace(" ", "")
                                .replace("-", ""), "detail": str(e)})
            return
        if not complete:
            self._parser = None             # end of input: the client left
            return
        self._route(self.command)
        if self.close_connection:
            self._parser = None
        else:
            self._next_request()

    def _readline(self, code: int):
        line = yield _LINE
        if len(line) > MAX_LINE:
            raise _Refused(code, f"line longer than {MAX_LINE} bytes")
        return line

    def _read_request(self):
        """Read one request into ``command``, ``path``, ``headers`` (keyed
        by lower-cased name) and ``body``.  A generator: it yields what
        it needs next -- :data:`_LINE`, or a body length -- and is sent
        those bytes, fewer at end of input.  Returns False at end of
        input."""
        line = yield from self._readline(414)
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
            line = yield from self._readline(431)
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
            self._out += b"HTTP/1.1 100 Continue\r\n\r\n"
        self.body = (yield length) if length else b""
        return len(self.body) == length

    def _linger(self) -> int:
        """After a refusal, read and drop what the client still sends,
        until it closes, :data:`MAX_BODY` bytes arrived, or
        :data:`LINGER_S` passes without input: closing a socket with
        unread input resets the connection, and the client may lose the
        answer it has not read yet."""
        self._refused, self._lingering = False, True
        self._in.clear()
        self.connection.shutdown(socket.SHUT_WR)
        self._touch()
        return 0 if self._eof else selectors.EVENT_READ

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
        self._out += "\r\n".join(head).encode("latin-1") + b"\r\n\r\n"
        self._out += body
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
        svc: RunService = self.server.service    # type: ignore

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
            self._send(201, rec.to_dict())
        elif method == "GET" and parts == ("runs",):
            recs = svc.list_runs(tenant=query.get("tenant"),
                                 state=query.get("state"))
            self._send(200, {"runs": [r.to_dict() for r in recs]})
        elif method == "GET" and len(parts) == 2 and parts[0] == "runs":
            self._send(200, svc.get_run(parts[1]).to_dict())
        elif method == "POST" and len(parts) == 3 \
                and parts[0] == "runs" and parts[2] == "kill":
            self._check_tenant(svc.get_run(parts[1]))
            self._send(202, svc.kill(parts[1]).to_dict())
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


class ServiceHTTPServer:
    """The HTTP front end: one thread serves every connection.

    :meth:`serve_forever` is a ``selectors`` loop on the calling thread.
    It accepts connections, hands each socket event to the connection's
    :class:`_Handler`, and closes a connection that is done or whose
    deadline passed.  A request is dispatched on this thread once its
    bytes are all in, so a slow or silent client holds only its buffers.
    """

    def __init__(self, service: RunService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.socket = socket.create_server((host, port))
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector: Optional[selectors.BaseSelector] = None
        self._shutdown_request = False
        self._is_shut_down = threading.Event()
        self._is_shut_down.set()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self, poll_interval: float = POLL_S) -> None:
        """Serve until :meth:`shutdown`, which the loop notices within
        ``poll_interval`` seconds; the connections still open then are
        closed."""
        self._is_shut_down.clear()
        self._selector = sel = selectors.DefaultSelector()
        try:
            sel.register(self.socket, selectors.EVENT_READ)
            while not self._shutdown_request:
                for key, events in sel.select(poll_interval):
                    if key.data is None:
                        self._accept()
                    else:
                        self._serve(key.data, events)
                now = time.monotonic()
                for conn in self._connections():
                    if conn.deadline < now:
                        self.end_connection(conn)
        finally:
            for conn in self._connections():
                self.end_connection(conn)
            sel.close()
            self._shutdown_request = False
            self._is_shut_down.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._shutdown_request = True
        self._is_shut_down.wait()

    def server_close(self) -> None:
        """Close the listening socket."""
        self.socket.close()

    def _connections(self):
        return [key.data for key in self._selector.get_map().values()
                if key.data is not None]

    def _accept(self) -> None:
        while True:
            try:
                connection, address = self.socket.accept()
            except OSError:             # none left (or out of descriptors)
                return
            connection.setblocking(False)
            conn = _Handler(connection, address, self)
            self._selector.register(connection, conn.events, conn)

    def _serve(self, conn: _Handler, events: int) -> None:
        try:
            wanted = conn.ready(events)
        except OSError:                 # the client reset or went away
            wanted = 0
        except Exception:               # noqa: BLE001 -- keep serving the rest
            sys.excepthook(*sys.exc_info())
            wanted = 0
        if not wanted:
            self.end_connection(conn)
        elif wanted != conn.events:
            conn.events = wanted
            self._selector.modify(conn.connection, wanted, conn)

    def end_connection(self, conn: _Handler) -> None:
        """Close one connection; every connection ends here, after its
        last answer or its deadline, and after any error."""
        self._selector.unregister(conn.connection)
        try:
            conn.connection.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.connection.close()


def serve(service: RunService, host: str = "127.0.0.1", port: int = 0,
          ) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start serving in a background thread; returns (server, thread).

    ``port=0`` binds an ephemeral port -- read ``server.url``.
    """
    server = ServiceHTTPServer(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, args=(POLL_S,),
                              name="pisces-svc-http", daemon=True)
    thread.start()
    return server, thread
