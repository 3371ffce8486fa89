"""HTTP load generators for the service workloads.

All load comes from the benchmark process, from at most two threads,
each with at most one request in flight, through the product's own
:class:`~repro.service.client.ServiceClient`.  Every call is timed by
route (the client method's name).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.store import DONE, TERMINAL_STATES

#: Closed-loop clients poll their oldest outstanding run this often.
POLL_S = 0.020
#: How long runs may take to finish once the load has stopped.
DRAIN_S = 60.0
#: Open-loop sender threads: the load generator's 2-thread limit.
SENDERS = 2

#: Client routes that read run state (everything but submit/health).
READ_ROUTES = ("get_run", "list_runs", "metrics", "trace", "spans",
               "artifacts", "fetch_artifact")

_ERRORS = (ServiceError, OSError)


@dataclass
class Sample:
    """One attempted run, as the load generator saw it."""

    spec: str
    tenant: str
    due: float                  # when it should have been sent (epoch s)
    send: float = 0.0           # when it was sent (epoch s)
    run_id: Optional[str] = None
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    readback_ms: Optional[float] = None
    readback_ok: bool = True


class TimedClient:
    """One tenant's client; appends ``(route, ms)`` for every call."""

    def __init__(self, url: str, tenant: str,
                 calls: List[Tuple[str, float]]) -> None:
        self._client = ServiceClient(url, tenant=tenant, timeout=60.0)
        self._calls = calls

    def __call__(self, route: str, *args: Any) -> Any:
        t = time.perf_counter()
        try:
            return getattr(self._client, route)(*args)
        finally:
            self._calls.append((route, (time.perf_counter() - t) * 1000.0))


def _fail(s: Sample, e: BaseException) -> None:
    s.error = f"{type(e).__name__}: {e}"


def read_back(c: TimedClient, s: Sample) -> None:
    """Read a finished run back as an operator would: metrics, trace,
    spans, the artifact list and the archived event stream.  The live
    trace and the archived stream must hold the same events."""
    t = time.perf_counter()
    rid = s.run_id
    c("metrics", rid)
    events = c("trace", rid)
    c("spans", rid)
    artifacts = c("artifacts", rid)
    archived = c("fetch_artifact", rid, "run.events.jsonl")
    s.readback_ms = (time.perf_counter() - t) * 1000.0
    s.readback_ok = ("run.events.jsonl" in artifacts
                     and archived.count(b"\n") == len(events))


def closed_loop(url: str, tenant: str, specs: Dict[str, Dict],
                order: Sequence[str], depth: int, seconds: float,
                readback: bool, calls: List[Tuple[str, float]],
                poll: float = POLL_S) -> List[Sample]:
    """Keep ``depth`` runs outstanding, taking specs from ``order``,
    until ``order`` is used up or ``seconds`` have passed; then drain.
    Only the oldest outstanding run is polled.  A slot that frees up is
    due at once, so the generator's lag is its own bookkeeping time."""
    c = TimedClient(url, tenant, calls)
    samples: List[Sample] = []
    outstanding: deque = deque()
    names = iter(order)
    start = time.monotonic()
    stop, give_up = start + seconds, start + seconds + DRAIN_S
    due = time.time()
    while True:
        while len(outstanding) < depth and time.monotonic() < stop:
            name = next(names, None)
            if name is None:
                break
            s = Sample(name, tenant, due=due, send=time.time())
            samples.append(s)
            try:
                s.run_id = c("submit", specs[name])["run_id"]
                outstanding.append(s)
            except _ERRORS as e:
                _fail(s, e)
        if not outstanding:
            return samples
        if time.monotonic() > give_up:
            for s in outstanding:
                s.error = "still running after the drain timeout"
            return samples
        time.sleep(poll)
        s = outstanding[0]
        try:
            rec = c("get_run", s.run_id)
            if rec["state"] not in TERMINAL_STATES:
                continue
            s.record = rec
            if readback and rec["state"] == DONE:
                read_back(c, s)
        except _ERRORS as e:
            _fail(s, e)
        outstanding.popleft()
        due = time.time()


def closed_loops(url: str, specs: Dict[str, Dict],
                 orders: Sequence[Tuple[str, Sequence[str]]], depth: int,
                 seconds: float, readback: bool,
                 calls: List[Tuple[str, float]]) -> List[Sample]:
    """One closed-loop client thread per ``(tenant, order)``."""
    with ThreadPoolExecutor(max_workers=len(orders)) as pool:
        futures = [pool.submit(closed_loop, url, tenant, specs, order, depth,
                               seconds, readback, calls)
                   for tenant, order in orders]
        return [s for f in futures for s in f.result()]


def open_loop(url: str, specs: Dict[str, Dict],
              arrivals: Sequence[Tuple[float, str, str]],
              calls: List[Tuple[str, float]]) -> List[Sample]:
    """Send each arrival when due, from ``SENDERS`` threads taking
    alternate slots, whatever the service's progress; no run is polled
    until the last arrival is sent.  Then the tenants' run listings are
    polled until every run is finished."""
    start = time.time() + 0.2
    samples = [Sample(name, tenant, due=start + offset)
               for offset, name, tenant in arrivals]
    tenants = sorted({s.tenant for s in samples})

    def send(k: int) -> None:
        clients = {t: TimedClient(url, t, calls) for t in tenants}
        for s in samples[k::SENDERS]:
            delay = s.due - time.time()
            if delay > 0:
                time.sleep(delay)
            s.send = time.time()
            try:
                s.run_id = clients[s.tenant]("submit", specs[s.spec])[
                    "run_id"]
            except _ERRORS as e:
                _fail(s, e)

    with ThreadPoolExecutor(max_workers=SENDERS) as pool:
        for f in [pool.submit(send, k) for k in range(SENDERS)]:
            f.result()

    c = TimedClient(url, "", calls)
    pending = {s.run_id: s for s in samples if s.run_id}
    give_up = time.monotonic() + DRAIN_S
    while pending and time.monotonic() < give_up:
        for tenant in tenants:
            try:
                listing = c("list_runs", tenant)
            except _ERRORS as e:
                for s in pending.values():
                    _fail(s, e)
                return samples
            for rec in listing:
                s = pending.get(rec["run_id"])
                if s is not None and rec["state"] in TERMINAL_STATES:
                    s.record = rec
                    del pending[rec["run_id"]]
        if pending:
            time.sleep(0.1)
    for s in pending.values():
        s.error = "still running after the drain timeout"
    return samples
