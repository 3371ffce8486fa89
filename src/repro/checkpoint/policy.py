"""Periodic checkpointing: the engine's ``_ckpt_pump`` hook.

Installed by :class:`~repro.core.vm.PiscesVM` when
``Configuration.checkpoint_every`` is set.
The pump runs at the top of every engine step, *before* the dispatcher
picks -- the one point where the VM is between dispatches and the state
digest is well-defined.  An unchecked run pays a single attribute test
per step.

Checkpoint marks are derived from virtual time, not from "every N
pumps": the next mark after ``now`` is ``(now // every + 1) * every``.
That makes the mark sequence a pure function of the virtual clock, so
a restored run re-crosses the *same* marks during its replay and
rewrites byte-identical bundles -- re-checkpointing composes across
crash/restore cycles.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional, Union

from ..errors import CheckpointError
from .format import checkpoint_filename
from .restore import checkpoint_vm


class PeriodicCheckpointer:
    """Write a ``.pckpt`` bundle every ``every`` virtual ticks."""

    def __init__(self, vm, every: int, directory: Union[str, Path] = ".",
                 keep: int = 2):
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive, "
                             f"got {every}")
        if keep < 1:
            raise ValueError(f"checkpoint keep must be >= 1, got {keep}")
        self.vm = vm
        self.every = int(every)
        self.directory = Path(directory)
        self.keep = int(keep)
        #: Next virtual tick at or past which a bundle is due; lazily
        #: derived from the clock at the first pump so fresh runs and
        #: restored runs (which start mid-clock) mark identically.
        self.next_mark: Optional[int] = None
        self._warned = False

    def pump(self, engine) -> None:
        now = engine._now
        if self.next_mark is None:
            self.next_mark = (now // self.every + 1) * self.every
        if now < self.next_mark:
            return
        # Before run() records the request there is no workload to
        # resume; skip the mark rather than write a useless bundle.
        if self.vm._run_request is not None:
            self._write(now, engine._dispatch_seq)
        self.next_mark = (now // self.every + 1) * self.every

    def _write(self, now: int, dispatch_seq: int) -> None:
        target = self.directory / checkpoint_filename(now, dispatch_seq)
        try:
            path = checkpoint_vm(self.vm, target)
        except CheckpointError as e:
            # Periodic checkpointing is best-effort: a failed write must
            # not take down the run it is trying to protect.
            if not self._warned:
                self._warned = True
                print(f"pisces: checkpoint failed, continuing without: {e}",
                      file=sys.stderr)
            return
        self.vm.counts.checkpoints_written[()].value += 1
        self.vm.stats.checkpoint_bytes += path.stat().st_size
        self._prune()

    def _prune(self) -> None:
        bundles = sorted(self.directory.glob("*.pckpt"))
        for old in bundles[:-self.keep]:
            try:
                old.unlink()
            except OSError:
                pass
