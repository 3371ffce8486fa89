"""A stdlib client for the run-service REST API.

``ServiceClient`` is a thin, dependency-free wrapper over
``urllib.request`` that speaks the control plane's JSON dialect and
maps its error envelope back onto the library's exception types --
submitting over quota raises the same :class:`QuotaExceeded` an
in-process caller would get.

    from repro.service.client import ServiceClient

    c = ServiceClient("http://127.0.0.1:8737", tenant="alice")
    rec = c.submit({"app": "jacobi", "params": {"n": 16}})
    rec = c.wait(rec["run_id"])
    print(rec["exit"]["elapsed_ticks"])
    c.fetch_artifact(rec["run_id"], "run.events.jsonl", "trace.jsonl")
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import (InvalidRunSpec, QuotaExceeded, ServiceError,
                      UnknownRun)
from ..util.durable import durable_write
from .store import TERMINAL_STATES


class ServiceClientError(ServiceError):
    """An HTTP error the client could not map to a library type."""

    def __init__(self, status: int, detail: str):
        self.status = status
        self.detail = detail
        super().__init__(f"HTTP {status}: {detail}")


class RunTimeout(ServiceError):
    """:meth:`ServiceClient.wait` gave up before the run finished."""


class ServiceClient:
    """One tenant's connection to a run service."""

    def __init__(self, base_url: str, tenant: str = "",
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # ---------------------------------------------------------- plumbing --

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 raw: bool = False) -> Any:
        req = urllib.request.Request(
            self.base_url + path, method=method,
            data=None if body is None
            else json.dumps(body).encode("utf-8"))
        req.add_header("Content-Type", "application/json")
        if self.tenant:
            req.add_header("X-Pisces-Tenant", self.tenant)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                data = resp.read()
        except urllib.error.HTTPError as e:
            self._raise_mapped(e)
        if raw:
            return data
        return json.loads(data) if data.strip() else {}

    @staticmethod
    def _raise_mapped(e: "urllib.error.HTTPError") -> None:
        detail, err_type = e.reason, ""
        try:
            envelope = json.loads(e.read())
            detail = envelope.get("detail", detail)
            err_type = envelope.get("error", "")
        except Exception:
            pass
        if e.code == 429:
            raise QuotaExceeded("(see detail)", detail) from None
        if e.code == 404 and err_type in ("UnknownRun", ""):
            raise UnknownRun(detail) from None
        if e.code == 400:
            raise InvalidRunSpec(detail) from None
        raise ServiceClientError(e.code, detail) from None

    # ------------------------------------------------------------- calls --

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def apps(self) -> List[str]:
        return self._request("GET", "/apps")["apps"]

    def submit(self, spec: Dict[str, Any],
               tenant: str = "") -> Dict[str, Any]:
        """Submit a run; returns the QUEUED run record."""
        return self._request("POST", "/runs", body={
            "tenant": tenant or self.tenant, "spec": spec})

    def list_runs(self, tenant: str = "",
                  state: str = "") -> List[Dict[str, Any]]:
        qs = []
        if tenant:
            qs.append(f"tenant={tenant}")
        if state:
            qs.append(f"state={state}")
        path = "/runs" + ("?" + "&".join(qs) if qs else "")
        return self._request("GET", path)["runs"]

    def get_run(self, run_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/runs/{run_id}")

    def kill(self, run_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/runs/{run_id}/kill", body={})

    def wait(self, run_id: str, timeout: float = 120.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the run reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            rec = self.get_run(run_id)
            if rec["state"] in TERMINAL_STATES:
                return rec
            if time.monotonic() >= deadline:
                raise RunTimeout(
                    f"run {run_id} still {rec['state']} after {timeout}s")
            time.sleep(poll)

    def metrics(self, run_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/runs/{run_id}/metrics")

    def trace(self, run_id: str, limit: int = 0) -> List[Dict[str, Any]]:
        path = f"/runs/{run_id}/trace"
        if limit:
            path += f"?limit={limit}"
        return self._request("GET", path)["events"]

    def spans(self, run_id: str) -> List[Dict[str, Any]]:
        return self._request("GET", f"/runs/{run_id}/spans")["spans"]

    def status_text(self, run_id: str) -> str:
        return self._request("GET", f"/runs/{run_id}/status",
                             raw=True).decode("utf-8")

    def artifacts(self, run_id: str) -> List[str]:
        return self._request("GET",
                             f"/runs/{run_id}/artifacts")["artifacts"]

    def fetch_artifact(self, run_id: str, name: str,
                       dest: Union[str, Path, None] = None,
                       ) -> Union[bytes, Path]:
        """Download one artifact; returns bytes, or the written path
        when ``dest`` is given."""
        data = self._request("GET", f"/runs/{run_id}/artifacts/{name}",
                             raw=True)
        if dest is None:
            return data
        dest = Path(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        durable_write(dest, data)
        return dest

    def usage(self, tenant: str = "") -> Dict[str, Any]:
        t = tenant or self.tenant
        return self._request("GET", f"/tenants/{t}/usage")["usage"]

    def tenants(self) -> List[str]:
        return self._request("GET", "/tenants")["tenants"]
