"""Concurrency-correctness subsystem: race detection and schedule replay.

Section 7 of the paper leaves SHARED COMMON discipline to the
programmer ("the programmer is responsible" for LOCK/CRITICAL/BARRIER
usage); section 12's trace stream is meant for off-line analysis.  This
package closes the loop with two cooperating halves:

* **Race detection** (:mod:`~repro.correctness.detector`) -- vector
  clocks over every kernel process, happens-before edges from the
  Pisces-level synchronization operations (message send -> accept,
  initiate -> start, barrier generations, lock hand-offs, SELFSCHED
  counter fetches, spawn and wake), locksets as corroborating evidence,
  and extent-overlap conflict tests on SHARED COMMON variables and
  window regions.  Conflicting unordered accesses become structured
  :class:`RaceReport` records.

* **Record/replay** (:mod:`~repro.correctness.recorder`) -- one
  :class:`Schedule` holds the dispatcher's decision stream: empty, it
  records a run into a compact ``.psched`` artifact; parsed from one,
  it drives the engine's ``replay`` dispatcher, re-executing the run
  bit-identically and raising
  :class:`~repro.errors.ReplayDivergence` on the first mismatch.

Both halves are zero-cost when off (one ``is not None`` test per hook
site) and charge no virtual time when on: elapsed ticks are
bit-identical with detection or recording enabled.
"""

from .. import lazy_exports

__all__ = [
    "HBEdge",
    "HBEdgeLog",
    "RaceDetector",
    "RaceReport",
    "Schedule",
    "iter_hb_edges",
]

#: Public name -> the submodule that defines it, imported on first
#: access: recording a schedule loads no race detector.
_LAZY = {
    **dict.fromkeys(("RaceDetector", "RaceReport"), "detector"),
    **dict.fromkeys(("HBEdge", "HBEdgeLog", "iter_hb_edges"), "hb"),
    "Schedule": "recorder",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
