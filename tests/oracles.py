"""The test oracles: small independent implementations the production
paths are held to, reachable from tests only.

* :func:`reference_windows` -- the per-row window data plane: every
  row moves as its own message, off the transaction queue, with no
  batching and no reader cache (a patch of ``WindowService``).
* :func:`callable_bodies` -- generator task bodies and force regions
  driven through the engine's blocking calls on worker threads
  (``PiscesVM.task_bodies = "callable"``) instead of resumed as
  coroutines on the engine thread.
* :func:`oracle_leg` -- both seams at once, for the leg matrices;
  :func:`leg_of` names the leg a VM runs on.
* :class:`ScanEngine` -- the brute-force O(n) dispatch picker; swap it
  in with ``mock.patch("repro.mmos.kernel.Engine", ScanEngine)``.
* :data:`BOTH_VEHICLES` -- parametrizes a test over the two task-body
  vehicles through the ``bodies`` fixture, which holds the seam for the
  test's duration.  Ids keep the names these tests have long carried:
  callable bodies run on their own worker threads ("threaded");
  coroutine bodies run cooperatively on the engine thread ("coop").

Each oracle has a virtual history identical to the production path;
the golden digests, dispatcher-identity and dispatch-equivalence suites
assert it.  The seams are class attributes, so they reach every VM
built while they are held, on any thread.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Tuple
from unittest import mock

import pytest

from repro.core.grid import Grid
from repro.core.messages import allocate_message, release_message
from repro.core.vm import PiscesVM
from repro.core.window_service import WindowService
from repro.core.windows import WindowTxnReply
from repro.mmos.scheduler import Engine

#: Window data planes: production first, then the oracle.
WINDOW_PATHS = ("fast", "reference")
#: Task-body vehicles: production first, then the oracle.
TASK_BODIES = ("auto", "callable")
#: Every (window path, task-body vehicle) leg, production first.
LEGS = [(w, b) for w in WINDOW_PATHS for b in TASK_BODIES]


#: The message type of one row in transit on the per-row data plane.
MSG_WINDOW_ROW = "@WROW"


def _no_cache(vm, ctx):
    return None


def _per_row_txn(vm, store, txn, requester):
    """Serve a window read or write one leading-axis row at a time,
    each row a transient message allocated and freed on the shared
    heap; the transaction queue is never touched.  One logical access:
    logged, observed and (for a write) generation-bumped once."""
    heap, now, w = vm.machine.shared, vm.engine.now(), txn.window
    read = txn.op == "read"
    if read:
        base, block = store.get(w.array), Grid.zeros(w.shape, w.dtype)
        sender, receiver = store.owner, requester
    else:
        base, block = store._payload(w, txn.data)
        sender, receiver = requester, store.owner
    store.access_log.append((txn.op, w.array, w.bounds, now))
    store._observe(txn.op, w)
    (lo, hi), rest = w.bounds[0], w.bounds[1:]
    local = tuple((0, b - a) for a, b in rest)
    for i in range(hi - lo):
        in_base = ((lo + i, lo + i + 1),) + rest
        in_block = ((i, i + 1),) + local
        row = base.read(in_base) if read else block.read(in_block)
        msg = allocate_message(heap, MSG_WINDOW_ROW, (w, row),
                               sender=sender, receiver=receiver,
                               send_time=now, arrival_time=now)
        if read:
            block.write(in_block, row)
        else:
            base.write(in_base, row)
        release_message(heap, msg)
    if read:
        return WindowTxnReply(status="data", data=block)
    store._note_write(w.array, w.bounds)
    return WindowTxnReply(status="ok")


@contextlib.contextmanager
def oracle_leg(window_path: str = "fast",
               task_bodies: str = "auto") -> Iterator[None]:
    """Run every VM built inside the block on one leg of the matrix."""
    assert window_path in WINDOW_PATHS, window_path
    assert task_bodies in TASK_BODIES, task_bodies
    with contextlib.ExitStack() as stack:
        if window_path == "reference":
            stack.enter_context(mock.patch.object(
                WindowService, "_requester_cache", _no_cache))
            stack.enter_context(mock.patch.object(
                WindowService, "_window_txn", _per_row_txn))
        stack.enter_context(
            mock.patch.object(PiscesVM, "task_bodies", task_bodies))
        yield


def leg_of(vm: PiscesVM) -> Tuple[str, str]:
    """The (window path, task-body vehicle) leg ``vm`` runs on."""
    per_row = type(vm)._window_txn is _per_row_txn
    return ("reference" if per_row else "fast", vm.task_bodies)


def reference_windows():
    """Move windows row by row, uncached (the data-plane oracle)."""
    return oracle_leg(window_path="reference")


def callable_bodies():
    """Drive generator bodies on worker threads (the vehicle oracle)."""
    return oracle_leg(task_bodies="callable")


class ScanEngine(Engine):
    """The reference picker: every dispatch scans all processes for the
    least ``(start, last_dispatched, pid)`` key.  No index to keep."""

    def _requeue(self, p):
        pass

    def _pop_runnable(self):
        best, best_key = None, None
        for p in self._procs.values():
            if self._is_runnable(p):
                key = self._runnable_key(p)
                if best_key is None or key < best_key:
                    best, best_key = p, key
        return best, best_key


BOTH_VEHICLES = pytest.mark.parametrize("bodies", [
    pytest.param("callable", id="threaded"),
    pytest.param("auto", id="coop")], indirect=True)


@pytest.fixture
def bodies(request) -> Iterator[str]:
    """The task-body vehicle named by :data:`BOTH_VEHICLES`, held on
    :class:`PiscesVM` for the whole test."""
    with oracle_leg(task_bodies=request.param):
        yield request.param
