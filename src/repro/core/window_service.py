"""The window service of the PISCES 2 VM (section 8).

:class:`WindowService` is a base class of :class:`~repro.core.vm.PiscesVM`:
remote window reads and writes on the batched, cached data plane,
file-store windows and the file controller's striped disks.  Its methods
read the VM's state through ``self``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import WindowConflict, WindowError
from ..mmos.process import co_block, co_preempt
from .controllers import FileController
from .grid import ITEMSIZE, as_grid
from .messages import allocate_message, release_message
from .sizes import COST_SEND, window_transfer_cost
from .task import TaskContext
from .taskid import TaskId
from .windows import (ArrayStore, MSG_WINDOW_TXN, MSG_WINDOW_TXN_REPLY,
                      Window, WindowTxn, WindowTxnReply)


class WindowService:
    """Serve window reads and writes (a base class of ``PiscesVM``)."""

    def _owner_store(self, tid: TaskId) -> ArrayStore:
        ctrl = self.controllers.get(tid)
        if isinstance(ctrl, FileController):
            return ctrl.arrays
        task = self.tasks.get(tid)
        if task is None:
            raise WindowError(f"window owner {tid} does not exist")
        if not task.alive:
            raise WindowError(f"window owner {tid} has terminated")
        return task.arrays

    def _file_io_wait(self, w: Window, write: bool):
        """For windows owned by the file controller: occupy the disks
        and block the requester until the (striped) transfer lands.

        A KernelOp generator (the disk waits are suspension points;
        see :class:`~repro.core.task.TaskContext`).  Section 8's
        overlapping-access contract is enforced here: a transfer that
        conflicts with one still in flight (any overlap where either
        side writes) waits for it to land first; disjoint transfers --
        and overlapping reads -- proceed in parallel across the disk
        stripes.
        """
        fc = self.file_controller
        if fc is None or w.owner != fc.tid:
            return
        while True:
            now = self.engine.now()
            until = fc.conflicting_transfer(w, write, now)
            if until is None:
                break
            self.counts.window_overlap_waits[()].value += 1
            yield co_block("window-overlap-wait", deadline=until, cost=0)
        base = fc.arrays.get(w.array)
        # File offset of the window's first element in the byte stream.
        offset = 0
        stride = base.size * ITEMSIZE
        for (lo, _), dim in zip(w.bounds, base.shape):
            stride //= dim
            offset += lo * stride
        now = self.engine.now()
        done = fc.disks.transfer(now, offset, w.nbytes, write)
        fc.note_transfer(w, write, done)
        if done > now:
            yield co_block("disk-io", deadline=done, cost=0)

    # A window access charges one window_transfer_cost, the disk wait
    # and one preempt, whatever the data plane moves: a cache hit and a
    # miss cost the same virtual time.  The reader cache
    # (_requester_cache) and the transaction (_window_txn) are host-level
    # data movement only, so an oracle may replace either without
    # changing a run's virtual history.

    def _requester_id(self, ctx, store: ArrayStore) -> TaskId:
        return getattr(ctx, "self_id", None) or store.owner

    def _requester_cache(self, ctx):
        task = getattr(ctx, "task", None)
        return None if task is None else task.window_cache

    def _window_txn(self, store: ArrayStore, txn: WindowTxn,
                    requester: TaskId) -> WindowTxnReply:
        """Carry one WindowTxn to the owner on its typed transaction
        queue and serve it (a one-sided shared-memory access: the
        engine's one-at-a-time admission makes it atomic, so request,
        service and reply land at the same virtual instant).  Request
        and reply claim real heap extents, so window traffic shows up
        in the message-heap high-water mark like any other traffic."""
        heap = self.machine.shared
        now = self.engine.now()
        q = store.txns
        if q.metrics is None:
            q.metrics = self.metrics
            q.metric_labels = {"kind": "wtxn"}
        req = allocate_message(heap, MSG_WINDOW_TXN, (txn,),
                               sender=requester, receiver=store.owner,
                               send_time=now, arrival_time=now)
        q.enqueue(req)
        try:
            m = q.first_matching((MSG_WINDOW_TXN,), not_after=now)
            q.remove(m)
            reply = store.serve_txn(m.args[0], now)
            rep = allocate_message(heap, MSG_WINDOW_TXN_REPLY, (reply,),
                                   sender=store.owner, receiver=requester,
                                   send_time=now, arrival_time=now)
            release_message(heap, rep)
        finally:
            release_message(heap, req)
        self.stats.window_txns += 1
        return reply

    def window_read_gen(self, ctx: TaskContext, w: Window, *,
                        rows=None, cols=None):
        """Remote read of the data visible in a window (a KernelOp
        generator; value: the data).

        ``rows=`` / ``cols=`` shrink the window for this one access.
        Charges the requester the transfer cost and moves the block
        through the shared-memory message heap; reads of file-controller
        windows additionally wait for the simulated disks (requests to
        distinct stripes overlap; conflicting overlapping requests
        serialize).  A repeated read of an unchanged region validates
        against the owner's generation counter and hits the reader-side
        cache -- no payload moves.
        """
        if rows is not None or cols is not None:
            w = w.shrink(rows=rows, cols=cols)
        store = self._owner_store(w.owner)
        det = self.race_detector
        if det is not None:
            det.on_window_access(w, False)
        nbytes = int(w.nbytes)
        self.engine.charge(window_transfer_cost(nbytes))
        yield from self._file_io_wait(w, write=False)
        cache = self._requester_cache(ctx)
        entry = cache.lookup(w) if cache is not None else None
        txn = WindowTxn(op="read", window=w,
                        cached_generation=None if entry is None
                        else entry[0])
        reply = self._window_txn(store, txn, self._requester_id(ctx, store))
        hit = reply.status == "valid"
        if hit:
            data = entry[1].copy()
        else:
            data = reply.data
            if cache is not None and reply.cacheable:
                cache.store(w, reply.generation, data.copy())
        self.stats.window_bytes_read += nbytes
        counts = self.counts
        counts.window_ops["read"].value += 1
        counts.window_bytes_moved["read"].value += 0 if hit else nbytes
        if cache is not None:
            (counts.window_cache_hits if hit
             else counts.window_cache_misses)[()].value += 1
        m = self.metrics
        if m.enabled:
            m.histogram("window_transfer_bytes", op="read").observe(nbytes)
        yield co_preempt(0)
        return data

    def window_write_gen(self, ctx: TaskContext, w: Window,
                         data, *, rows=None, cols=None,
                         if_unchanged: bool = False):
        """Remote write through a window into the owner's array (a
        KernelOp generator).

        ``rows=`` / ``cols=`` shrink the window for this one access.
        ``if_unchanged=True`` makes the write conditional: it is refused
        with :class:`WindowConflict` if the region was written through
        the data plane after this task last read it (requires the
        reader cache, which tracks observed generations).
        """
        if rows is not None or cols is not None:
            w = w.shrink(rows=rows, cols=cols)
        store = self._owner_store(w.owner)
        det = self.race_detector
        if det is not None:
            det.on_window_access(w, True)
        nbytes = int(w.nbytes)
        self.engine.charge(window_transfer_cost(nbytes))
        yield from self._file_io_wait(w, write=True)
        cache = self._requester_cache(ctx)
        require = None
        if if_unchanged:
            if cache is None:
                raise WindowConflict(
                    w, "conditional writes need the reader cache and a "
                       "task context")
            require = cache.observed_generation(w)
            if require is None:
                raise WindowConflict(
                    w, "no cached observation to validate against "
                       "(window_read the region first)")
        txn = WindowTxn(op="write", window=w, data=as_grid(data, w.dtype),
                        require_unchanged_since=require)
        reply = self._window_txn(store, txn, self._requester_id(ctx, store))
        if reply.status == "conflict":
            self.counts.window_conflicts[()].value += 1
            yield co_preempt(0)
            raise WindowConflict(w, reply.detail)
        if cache is not None:
            cache.invalidate_overlapping(w)
        self.stats.window_bytes_written += nbytes
        counts = self.counts
        counts.window_ops["write"].value += 1
        counts.window_bytes_moved["write"].value += nbytes
        m = self.metrics
        if m.enabled:
            m.histogram("window_transfer_bytes", op="write").observe(nbytes)
        yield co_preempt(0)

    def configure_file_disks(self, n_disks: int,
                             stripe_unit: Optional[int] = None) -> None:
        """Give the file controller a striped disk array (the PISCES 3
        parallel-I/O direction; call before the run starts)."""
        from .fileio import DEFAULT_STRIPE_UNIT, DiskArray
        if self.file_controller is None:
            raise WindowError("no file controller in this configuration")
        self.file_controller.disks = DiskArray(
            n_disks, stripe_unit or DEFAULT_STRIPE_UNIT)
        self.file_controller.disks.metrics = self.metrics

    def file_window_gen(self, ctx: TaskContext, name: str, *,
                        region=None, rows=None, cols=None):
        """Window request on a file-store array (a KernelOp generator;
        value: the window)."""
        fc = self.file_controller
        if fc is None:
            raise WindowError("no file controller in this configuration")
        self.engine.charge(COST_SEND)
        yield co_preempt(0)
        return fc.window_for(name, region=region, rows=rows, cols=cols)

    def export_file(self, name: str, array,
                    cacheable: bool = True) -> None:
        """Put an array into the simulated file system (pre-run setup):
        a Grid, or any f8/i8 array-like (a numpy array is served in
        place, see :func:`repro.core.grid.as_grid`)."""
        if self.file_controller is None:
            raise WindowError("no file controller in this configuration")
        self.file_controller.export_file(name, array, cacheable=cacheable)
