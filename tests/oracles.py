"""The test oracles: small independent implementations the production
paths are held to, reachable from tests only.

* :func:`reference_windows` -- the per-row window data plane
  (``PiscesVM.window_path = "reference"``): every row moves as its own
  message, with no batching and no reader cache.
* :func:`callable_bodies` -- generator task bodies and force regions
  driven through the engine's blocking calls on worker threads
  (``PiscesVM.task_bodies = "callable"``) instead of resumed as
  coroutines on the engine thread.
* :func:`oracle_leg` -- both seams at once, for the leg matrices.
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
from typing import Iterator
from unittest import mock

import pytest

from repro.core.vm import PiscesVM
from repro.mmos.scheduler import Engine

#: Window data planes: production first, then the oracle.
WINDOW_PATHS = ("fast", "reference")
#: Task-body vehicles: production first, then the oracle.
TASK_BODIES = ("auto", "callable")
#: Every (window path, task-body vehicle) leg, production first.
LEGS = [(w, b) for w in WINDOW_PATHS for b in TASK_BODIES]


@contextlib.contextmanager
def oracle_leg(window_path: str = "fast",
               task_bodies: str = "auto") -> Iterator[None]:
    """Run every VM built inside the block on one leg of the matrix."""
    assert window_path in WINDOW_PATHS, window_path
    assert task_bodies in TASK_BODIES, task_bodies
    with mock.patch.object(PiscesVM, "window_path", window_path), \
            mock.patch.object(PiscesVM, "task_bodies", task_bodies):
        yield


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
