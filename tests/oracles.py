"""The test oracles: small independent implementations the production
paths are held to, reachable from tests only.

* :func:`reference_windows` -- the per-row window data plane: every
  row moves as its own message, off the transaction queue, with no
  batching and no reader cache (a patch of ``WindowService``).
* :func:`callable_bodies` -- generator task bodies and force regions
  driven through the engine's blocking calls on worker threads instead
  of resumed as coroutines on the engine thread (a patch of
  ``TaskLifecycle._make_task_target`` and ``forces._member_body``).
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
assert it.  The seams are patched class attributes and module
functions, so they reach every VM built while they are held, on any
thread.
"""

from __future__ import annotations

import contextlib
import inspect
from typing import Iterator, Tuple
from unittest import mock

import pytest

from repro.core import forces
from repro.core.forces import ForceContext
from repro.core.grid import Grid
from repro.core.lifecycle import TaskLifecycle
from repro.core.messages import allocate_message, release_message
from repro.core.task import TaskContext
from repro.core.vm import PiscesVM
from repro.core.window_service import WindowService
from repro.core.windows import WindowTxnReply
from repro.mmos.process import ProcState, drive_kernel_ops
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


#: The production choices of a task's and a force member's body.
_task_target = TaskLifecycle._make_task_target
_member_body = forces._member_body


def _callable_task_target(vm, task):
    """A generator task body's op stream driven through the engine's
    blocking calls on a worker thread; any other body as in production."""
    if not inspect.isgeneratorfunction(task.ttype.fn):
        return _task_target(vm, task)

    def body_gen():
        ctx = TaskContext(task, vm.engine.current(), coroutine=True)
        task.result = yield from task.ttype.fn(ctx, *task.args)
        return task.result
    return lambda: drive_kernel_ops(vm.engine, body_gen())


def _callable_member_body(vm, task, force, member, region, args):
    """A generator force region driven the same way on the member's
    worker thread; any other region as in production."""
    if not inspect.isgeneratorfunction(region):
        return _member_body(vm, task, force, member, region, args)

    def body() -> None:
        eng = vm.engine
        mctx = ForceContext(task, eng.current(), force, member,
                            coroutine=True)
        force.results[member] = drive_kernel_ops(eng, region(mctx, *args))
    return body


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
        if task_bodies == "callable":
            stack.enter_context(mock.patch.object(
                TaskLifecycle, "_make_task_target", _callable_task_target))
            stack.enter_context(mock.patch.object(
                forces, "_member_body", _callable_member_body))
        yield


def leg_of(vm: PiscesVM) -> Tuple[str, str]:
    """The (window path, task-body vehicle) leg ``vm`` runs on."""
    per_row = type(vm)._window_txn is _per_row_txn
    threaded = type(vm)._make_task_target is _callable_task_target
    return ("reference" if per_row else "fast",
            "callable" if threaded else "auto")


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

    @staticmethod
    def _runnable_key(p):
        """The dispatch key of a runnable process (READY, or BLOCKED
        with a deadline, runnable at the deadline), else None."""
        if p.state is ProcState.READY:
            base = p.ready_time
        elif p.state is ProcState.BLOCKED and p.deadline is not None:
            base = p.deadline
        else:
            return None
        return (max(base, p.clock.ticks), p.last_dispatched, p.pid)

    def _pop_runnable(self):
        best, best_key = None, None
        for p in self._procs.values():
            key = self._runnable_key(p)
            if key is not None and (best_key is None or key < best_key):
                best, best_key = p, key
        return best, best_key


BOTH_VEHICLES = pytest.mark.parametrize("bodies", [
    pytest.param("callable", id="threaded"),
    pytest.param("auto", id="coop")], indirect=True)


@pytest.fixture
def bodies(request) -> Iterator[str]:
    """The task-body vehicle named by :data:`BOTH_VEHICLES`, held for
    the whole test."""
    with oracle_leg(task_bodies=request.param):
        yield request.param
