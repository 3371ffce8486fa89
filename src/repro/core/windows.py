"""Windows: parallel data partitioning with generalized pointers (section 8).

"A window in PISCES 2 is a type of generalized pointer that points to a
rectangular subregion of an array that is 'owned' by another task. ...
The window value contains the taskid of the owner, the address of the
array, and a descriptor for the subarray.  Another task may read or
write the subarray visible in the window, by sending a message to the
owner.  Another task may also 'shrink' the window to point to a smaller
subarray."

Windows are immutable values (storable in variables, passable in
messages); shrinking returns a new window.  The read/write traffic is
the point of the A2 ablation: partitioning tasks forward *windows* (32
bytes each), and the array bytes move exactly once, owner to processor.

The data plane behind the pointers lives here too:

* :class:`WindowTxn` / :class:`WindowTxnReply` -- the request/reply pair
  a window read or write puts on the owner's transaction queue.  The
  fast path moves the whole rectangular block in one transaction
  instead of one message per row.
* per-array **generation counters** on :class:`ArrayStore` -- every
  write through the data plane bumps the backing array's generation and
  records its bounds, so a reader can ask "has anything overlapping my
  cached block changed?" without re-shipping the block.
* :class:`WindowCache` -- the reader-side cache of validated blocks.

All of this is host-level machinery: the *virtual-time* cost of a
window operation does not depend on what the data plane moves, so a
cache hit costs what a miss costs (see ``PiscesVM.window_read_gen`` and
``docs/architecture.md``).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple, Union

from ..errors import WindowError
from .grid import ITEMSIZE, Grid, as_grid
from .taskid import TaskId

#: A bound per dimension: (start, stop), 0-based, stop exclusive,
#: absolute coordinates in the owner's base array.
Bounds = Tuple[int, int]

#: Writes remembered per array for overlap-based cache validation; a
#: reader whose cached generation predates the recorded history gets a
#: conservative miss instead of a wrong hit.
WRITE_HISTORY = 64

#: Cached blocks kept per reading task (oldest evicted first).
CACHE_ENTRIES = 32

#: Data-plane message types (the leading @ keeps them out of user
#: namespaces): a batched WindowTxn request and its reply.
MSG_WINDOW_TXN = "@WTXN"
MSG_WINDOW_TXN_REPLY = "@WTXN_R"


def _normalize_region(region, shape: Tuple[int, ...]) -> Tuple[Bounds, ...]:
    """Accept slices / (start, stop) pairs / ints; return absolute bounds."""
    if not isinstance(region, tuple):
        region = (region,)
    if len(region) != len(shape):
        raise WindowError(
            f"region has {len(region)} dims, array has {len(shape)}")
    out = []
    for r, n in zip(region, shape):
        if isinstance(r, slice):
            if r.step not in (None, 1):
                raise WindowError("windows are rectangular: step must be 1")
            start = 0 if r.start is None else r.start
            stop = n if r.stop is None else r.stop
        elif isinstance(r, tuple) and len(r) == 2:
            start, stop = r
        elif isinstance(r, int):
            start, stop = r, r + 1
        else:
            raise WindowError(f"bad region component {r!r}")
        if start < 0 or stop > n or start >= stop:
            raise WindowError(
                f"region component ({start},{stop}) outside array dim 0..{n}")
        out.append((start, stop))
    return tuple(out)


#: A keyword region selector: a slice, a (start, stop) pair, or an int.
Selector = Union[slice, Tuple[int, int], int]


def region_from_selectors(rows: Optional[Selector], cols: Optional[Selector],
                          ndim: int):
    """Build a region tuple from the keyword ``rows=`` / ``cols=``
    selectors of the unified window call signature.

    ``rows`` selects along axis 0 and ``cols`` along axis 1; an omitted
    selector keeps the full extent.  Only 1-D and 2-D windows have a
    row/column reading -- higher-rank regions must be spelled with
    ``region=``.
    """
    if cols is not None and ndim < 2:
        raise WindowError("cols= selector on a 1-D window")
    if ndim > 2:
        raise WindowError(
            f"rows=/cols= selectors apply to 1-D/2-D windows; "
            f"pass region= for a {ndim}-D array")
    sel = [slice(None) if rows is None else rows]
    if ndim == 2:
        sel.append(slice(None) if cols is None else cols)
    return tuple(sel)


def _combine_region(region, rows: Optional[Selector],
                    cols: Optional[Selector], ndim: int):
    """Resolve the (region, rows=, cols=) trio one call site accepts."""
    if region is not None:
        if rows is not None or cols is not None:
            raise WindowError("pass either region or rows=/cols=, not both")
        return region
    if rows is None and cols is None:
        return None
    return region_from_selectors(rows, cols, ndim)


def bounds_overlap(a: Tuple[Bounds, ...], b: Tuple[Bounds, ...]) -> bool:
    """True when two same-rank bounds tuples share any cell."""
    return all(max(sa, oa) < min(sb, ob)
               for (sa, sb), (oa, ob) in zip(a, b))


@dataclass(frozen=True)
class Window:
    """An immutable window value.

    ``owner`` is the owning task (or file controller) taskid; ``array``
    names an array exported by the owner; ``bounds`` is the visible
    rectangular subregion in absolute base-array coordinates.
    """

    owner: TaskId
    array: str
    bounds: Tuple[Bounds, ...]
    dtype: str
    base_shape: Tuple[int, ...]

    # --------------------------------------------------------- geometry --

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(b - a for a, b in self.bounds)

    @property
    def size(self) -> int:
        n = 1
        for a, b in self.bounds:
            n *= b - a
        return n

    @property
    def nbytes(self) -> int:
        return self.size * ITEMSIZE

    def slices(self) -> Tuple[slice, ...]:
        """The slices selecting this window in the base array (a Grid
        or a numpy array)."""
        return tuple(slice(a, b) for a, b in self.bounds)

    # ----------------------------------------------------------- shrink --

    def shrink(self, region=None, *, rows: Optional[Selector] = None,
               cols: Optional[Selector] = None) -> "Window":
        """A new window on a subregion, given in *window-relative*
        coordinates; must be contained in this window.

        The subregion is either a full ``region`` tuple or the keyword
        ``rows=`` / ``cols=`` selectors (slice, (start, stop) pair, or
        int along axis 0 / axis 1)."""
        region = _combine_region(region, rows, cols, len(self.bounds))
        if region is None:
            raise WindowError("shrink needs a region or rows=/cols=")
        rel = _normalize_region(region, self.shape)
        new_bounds = tuple(
            (base_a + a, base_a + b)
            for (base_a, _), (a, b) in zip(self.bounds, rel))
        for (na, nb), (oa, ob) in zip(new_bounds, self.bounds):
            if na < oa or nb > ob:
                raise WindowError("shrink outside the window")  # unreachable
        return Window(owner=self.owner, array=self.array, bounds=new_bounds,
                      dtype=self.dtype, base_shape=self.base_shape)

    def split(self, parts: int, axis: int = 0) -> Tuple["Window", ...]:
        """Convenience: shrink into ``parts`` near-equal windows along
        ``axis`` -- the top-level partitioning pattern of section 8."""
        if parts < 1:
            raise WindowError("need at least one part")
        lo, hi = self.bounds[axis]
        n = hi - lo
        if parts > n:
            raise WindowError(f"cannot split extent {n} into {parts} parts")
        cuts = [lo + (n * i) // parts for i in range(parts + 1)]
        out = []
        for i in range(parts):
            b = list(self.bounds)
            b[axis] = (cuts[i], cuts[i + 1])
            out.append(Window(owner=self.owner, array=self.array,
                              bounds=tuple(b), dtype=self.dtype,
                              base_shape=self.base_shape))
        return tuple(out)

    def contains(self, other: "Window") -> bool:
        if (self.owner, self.array) != (other.owner, other.array):
            return False
        return all(oa >= sa and ob <= sb
                   for (sa, sb), (oa, ob) in zip(self.bounds, other.bounds))

    def overlaps(self, other: "Window") -> bool:
        if (self.owner, self.array) != (other.owner, other.array):
            return False
        return bounds_overlap(self.bounds, other.bounds)

    def describe(self) -> str:
        b = "x".join(f"[{a}:{z})" for a, z in self.bounds)
        return f"WINDOW {self.array}{b} owner={self.owner} {self.dtype}"


def make_window(owner: TaskId, array_name: str, base: Grid,
                region=None, *, rows: Optional[Selector] = None,
                cols: Optional[Selector] = None) -> Window:
    """Create a window on (a region of) an owned array."""
    region = _combine_region(region, rows, cols, base.ndim)
    if region is None:
        region = tuple(slice(0, n) for n in base.shape)
    bounds = _normalize_region(region, base.shape)
    return Window(owner=owner, array=array_name, bounds=bounds,
                  dtype=str(base.dtype), base_shape=tuple(base.shape))


# ------------------------------------------------------------ data plane --

@dataclass(frozen=True)
class WindowTxn:
    """One window data-plane request, carried on the owner's typed
    transaction queue.

    ``op`` is ``"read"`` or ``"write"``.  A read carrying the reader's
    ``cached_generation`` asks the owner to *validate* instead of ship:
    if nothing overlapping the window was written since that generation,
    the reply is ``"valid"`` and no payload moves.  A write carrying
    ``require_unchanged_since`` is conditional: it is refused with
    ``"conflict"`` if an overlapping write landed after that generation.
    """

    op: str
    window: Window
    data: Optional[Grid] = None
    cached_generation: Optional[int] = None
    require_unchanged_since: Optional[int] = None


@dataclass(frozen=True)
class WindowTxnReply:
    """The owner's answer: ``status`` is ``"data"`` (payload attached),
    ``"valid"`` (reader's cached block is current), ``"ok"`` (write
    applied) or ``"conflict"`` (conditional write refused)."""

    status: str
    data: Optional[Grid] = None
    generation: int = 0
    cacheable: bool = True
    detail: str = ""


class WindowCache:
    """Reader-side cache of window blocks with generation validation.

    Each entry remembers the owner generation at which the block was
    shipped; a later read of the same window sends only that generation,
    and the owner answers "valid" when no overlapping write happened
    since.  Entries are evicted least-recently-used past
    :data:`CACHE_ENTRIES`.
    """

    def __init__(self, max_entries: int = CACHE_ENTRIES):
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, Tuple[int, Grid]]" = \
            OrderedDict()

    @staticmethod
    def _key(w: Window) -> tuple:
        return (w.owner, w.array, w.bounds, w.dtype)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, w: Window) -> Optional[Tuple[int, Grid]]:
        """(generation, block) cached for exactly this window, or None."""
        e = self._entries.get(self._key(w))
        if e is not None:
            self._entries.move_to_end(self._key(w))
        return e

    def observed_generation(self, w: Window) -> Optional[int]:
        """Generation at which this task last read a block covering
        ``w`` (exact window, or any cached window containing it)."""
        e = self._entries.get(self._key(w))
        if e is not None:
            return e[0]
        for (owner, array, bounds, dtype), (gen, _) in self._entries.items():
            if (owner, array, dtype) != (w.owner, w.array, w.dtype):
                continue
            if all(oa >= ca and ob <= cb
                   for (ca, cb), (oa, ob) in zip(bounds, w.bounds)):
                return gen
        return None

    def store(self, w: Window, generation: int, data: Grid) -> None:
        k = self._key(w)
        self._entries[k] = (generation, data)
        self._entries.move_to_end(k)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate_overlapping(self, w: Window) -> int:
        """Drop every cached block overlapping ``w``; returns count."""
        doomed = [k for k in self._entries
                  if k[0] == w.owner and k[1] == w.array
                  and bounds_overlap(k[2], w.bounds)]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()


class ArrayStore:
    """Arrays exported by one owner (a task, or the file controller).

    The owner's run-time library serves window reads/writes out of this
    store; the VM charges transfer costs and accounts transient message
    bytes (see ``PiscesVM.window_read_gen``/``window_write_gen``).
    Every write through the data plane bumps the backing array's
    generation counter and records its bounds in a bounded history,
    which is what makes reader-side caching safely invalidatable on any
    overlapping write.
    """

    def __init__(self, owner: TaskId):
        self.owner = owner
        self._arrays: dict[str, Grid] = {}
        self._cacheable: dict[str, bool] = {}
        #: (op, array, bounds, ticks) access log, for the overlap tests.
        self.access_log: list[tuple[str, str, Tuple[Bounds, ...], int]] = []
        #: Optional MetricsRegistry; wired by the owner's VM at creation.
        self.metrics = None
        #: Current generation per array (0 = never written through).
        self._generation: Dict[str, int] = {}
        #: Recent writes per array: (generation, bounds), oldest first.
        self._writes: Dict[str, Deque[Tuple[int, Tuple[Bounds, ...]]]] = {}
        #: The typed in-queue window transactions ride on.  Requests are
        #: served at enqueue time (a one-sided shared-memory access; the
        #: engine's one-at-a-time admission makes each transfer atomic),
        #: but carrying them on a real queue keeps heap accounting and
        #: queue metrics uniform with ordinary message traffic.
        from .messages import InQueue
        self.txns = InQueue(owner)

    def export(self, name: str, array, cacheable: bool = True) -> Grid:
        """Make ``array`` window-addressable and return the Grid that
        serves it: a Grid as is, a C-contiguous f8/i8 buffer (a numpy
        array) wrapped in place, anything else copied.  ``cacheable=False``
        opts the array out of reader-side caching -- required when the
        owner will mutate it directly instead of through window writes
        (see also :meth:`touch`)."""
        if name in self._arrays:
            raise WindowError(f"array {name!r} already exported by {self.owner}")
        grid = self._arrays[name] = as_grid(array)
        self._cacheable[name] = cacheable
        return grid

    def get(self, name: str) -> Grid:
        try:
            return self._arrays[name]
        except KeyError:
            raise WindowError(
                f"owner {self.owner} exports no array {name!r}") from None

    def names(self) -> list[str]:
        return list(self._arrays)

    # -------------------------------------------------------- generations --

    def generation(self, name: str) -> int:
        return self._generation.get(name, 0)

    def cacheable(self, name: str) -> bool:
        return self._cacheable.get(name, True)

    def touch(self, name: str) -> int:
        """Owner-side notification of a direct (non-window) mutation:
        bumps the generation with whole-array bounds so every cached
        block of this array revalidates as stale.  Returns the new
        generation."""
        base = self.get(name)
        bounds = tuple((0, n) for n in base.shape)
        return self._note_write(name, bounds)

    def _note_write(self, name: str,
                    bounds: Tuple[Bounds, ...]) -> int:
        g = self._generation.get(name, 0) + 1
        self._generation[name] = g
        dq = self._writes.get(name)
        if dq is None:
            dq = self._writes[name] = deque(maxlen=WRITE_HISTORY)
        dq.append((g, bounds))
        return g

    def snapshot(self) -> dict:
        """Digestable data-plane state for checkpoint validation: array
        content digests, per-array generations and the recent-write
        history (generation, bounds) that reader caches validate
        against.  All of it is bit-reproducible at a given schedule
        position."""
        arrays = {name: a.digest()
                  for name, a in sorted(self._arrays.items())}
        writes = {name: [[int(g), [[int(x) for x in b] for b in bounds]]
                         for g, bounds in dq]
                  for name, dq in sorted(self._writes.items())}
        return {"arrays": arrays,
                "generations": dict(sorted(self._generation.items())),
                "writes": writes}

    def changed_since(self, name: str, bounds: Tuple[Bounds, ...],
                      generation: int) -> bool:
        """Has any write overlapping ``bounds`` landed after
        ``generation``?  Conservatively True when the bounded write
        history no longer reaches back that far."""
        current = self._generation.get(name, 0)
        if current <= generation:
            return False
        dq = self._writes.get(name)
        if not dq:
            return True        # generation moved but history lost
        if generation < dq[0][0] - 1:
            return True        # history truncated: conservative miss
        return any(g > generation and bounds_overlap(b, bounds)
                   for g, b in dq)

    # ------------------------------------------------------------- access --

    def _observe(self, op: str, w: Window) -> None:
        m = self.metrics
        if m is not None and m.enabled:
            m.counter("array_store_ops", op=op, array=w.array).inc()
            m.histogram("array_store_bytes", op=op).observe(w.nbytes)

    def read(self, w: Window, ticks: int) -> Grid:
        base = self.get(w.array)
        self.access_log.append(("read", w.array, w.bounds, ticks))
        self._observe("read", w)
        return base.read(w.bounds)

    def _payload(self, w: Window, data) -> Tuple[Grid, Grid]:
        """(base array, write payload as a Grid of the base's dtype)."""
        base = self.get(w.array)
        data = as_grid(data, base.dtype)
        if data.shape != w.shape:
            raise WindowError(
                f"write shape {data.shape} != window shape {w.shape}")
        return base, data

    def write(self, w: Window, data, ticks: int) -> None:
        base, data = self._payload(w, data)
        self.access_log.append(("write", w.array, w.bounds, ticks))
        self._observe("write", w)
        base.write(w.bounds, data)
        self._note_write(w.array, w.bounds)

    # -------------------------------------------------------- transactions --

    def serve_txn(self, txn: WindowTxn, ticks: int) -> WindowTxnReply:
        """Serve one queued data-plane transaction (owner side)."""
        w = txn.window
        if txn.op == "read":
            cacheable = self.cacheable(w.array)
            gen = self.generation(w.array)
            if (cacheable and txn.cached_generation is not None
                    and not self.changed_since(w.array, w.bounds,
                                               txn.cached_generation)):
                # Reader's block is current: validate, ship nothing.
                self.access_log.append(("read", w.array, w.bounds, ticks))
                self._observe("read", w)
                return WindowTxnReply(status="valid", generation=gen)
            data = self.read(w, ticks)
            return WindowTxnReply(status="data", data=data, generation=gen,
                                  cacheable=cacheable)
        if txn.op == "write":
            if (txn.require_unchanged_since is not None
                    and self.changed_since(w.array, w.bounds,
                                           txn.require_unchanged_since)):
                return WindowTxnReply(
                    status="conflict", generation=self.generation(w.array),
                    detail=f"overlapping write since generation "
                           f"{txn.require_unchanged_since}")
            self.write(w, txn.data, ticks)
            return WindowTxnReply(status="ok",
                                  generation=self.generation(w.array))
        raise WindowError(f"unknown window transaction op {txn.op!r}")
