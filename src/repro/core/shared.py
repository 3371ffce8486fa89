"""SHARED COMMON blocks and LOCK variables (section 7).

A SHARED COMMON block is "an ordinary Fortran COMMON block, but
allocated in shared memory so that all force members see the same
block"; blocks are allocated statically (at task initiation here, since
a task is the unit that declares them).  LOCK variables hold lock
values controlling CRITICAL regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..flex.memory import Allocation, HeapAllocator
from ..errors import RuntimeLibraryError
from .grid import Grid
from .sizes import LOCK_BYTES

#: Declaration form: name -> (dtype, shape).  A shape of () declares a
#: scalar (a 0-d Grid, assigned via ``block.x[()] = v``); dtype is
#: ``f8``, ``i8`` or ``O`` (Fortran CHARACTER/TASKID/WINDOW).
CommonSpec = Dict[str, Tuple[str, Union[Tuple[int, ...], int]]]


class SharedCommonBlock:
    """A named COMMON block resident in (simulated) shared memory.

    Variables are :class:`~repro.core.grid.Grid` arrays; force members
    all hold references to the same object, so plain element assignment
    is the shared-variable communication of the paper.  Attribute access
    returns the array (``np.asarray(blk.u)`` views it, no copy):

    ``blk.u[i] = 4.0``; scalars are 0-d Grids: ``blk.n[()] = 10``.
    """

    def __init__(self, name: str, spec: CommonSpec, heap: HeapAllocator,
                 monitor=None):
        self._name = name
        self._vars: Dict[str, Grid] = {}
        nbytes = 0
        for var, (dtype, shape) in spec.items():
            if monitor is None:
                arr = Grid.zeros(shape, dtype)
            else:
                # Race detection on: a TrackedArray reports (label,
                # extents, is_write) for every indexed access.
                from .tracked import TrackedArray
                arr = TrackedArray.zeros(shape, dtype)
                arr.monitor = monitor
                arr.label = (name, var)
            self._vars[var] = arr
            nbytes += int(arr.nbytes)
        self._nbytes = nbytes
        self._alloc: Optional[Allocation] = heap.alloc(nbytes, tag="shared_common")
        self._heap = heap

    @property
    def block_name(self) -> str:
        return self._name

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def variables(self) -> List[str]:
        return list(self._vars)

    def __getattr__(self, item: str) -> Grid:
        try:
            return self.__dict__["_vars"][item]
        except KeyError:
            raise AttributeError(
                f"SHARED COMMON /{self.__dict__.get('_name', '?')}/ has no "
                f"variable {item!r}") from None

    def __getitem__(self, item: str) -> Grid:
        return self._vars[item]

    def release(self) -> None:
        if self._alloc is not None:
            self._heap.free(self._alloc)
            self._alloc = None

    #: Alias for the explicit-deallocation API (FREE COMMON): releasing
    #: the simulated shared-memory storage is the whole operation -- the
    #: Grids stay readable for post-mortem analysis.
    free = release

    @property
    def freed(self) -> bool:
        return self._alloc is None

    def digest(self) -> Dict[str, int]:
        """Per-variable adler32 content digests (checkpoint validation:
        two VMs at the same schedule position must agree bit-for-bit on
        every SHARED COMMON byte)."""
        return {var: arr.digest() for var, arr in sorted(self._vars.items())}


@dataclass
class LockState:
    """A LOCK variable: unlocked/locked plus a FIFO of waiting members."""

    name: str
    locked: bool = False
    owner_pid: Optional[int] = None
    waiters: List[object] = field(default_factory=list)  # KernelProcess FIFO
    alloc: Optional[Allocation] = None
    #: Contention statistics for the analysis module.
    acquisitions: int = 0
    contended_acquisitions: int = 0
    #: Virtual time the current holder acquired the lock (the
    #: observability layer derives lock-hold ticks from it).
    acquired_at: int = 0

    @classmethod
    def allocate(cls, name: str, heap: HeapAllocator) -> "LockState":
        return cls(name=name, alloc=heap.alloc(LOCK_BYTES, tag="lock"))

    def release_storage(self, heap: HeapAllocator) -> None:
        if self.alloc is not None:
            heap.free(self.alloc)
            self.alloc = None


class SharedState:
    """Per-task container of SHARED COMMON blocks and LOCK variables."""

    def __init__(self, heap: HeapAllocator, monitor=None):
        self._heap = heap
        #: Access monitor threaded into every declared block when race
        #: detection is on (None otherwise -- plain Grids, no cost).
        self.monitor = monitor
        self.commons: Dict[str, SharedCommonBlock] = {}
        self.locks: Dict[str, LockState] = {}
        #: Blocks explicitly freed before task exit (kept for
        #: post-mortem reads; their storage is already released).
        self.freed_commons: List[SharedCommonBlock] = []

    def declare_common(self, name: str, spec: CommonSpec) -> SharedCommonBlock:
        if name in self.commons:
            raise RuntimeLibraryError(f"SHARED COMMON /{name}/ already declared")
        blk = SharedCommonBlock(name, spec, self._heap, monitor=self.monitor)
        self.commons[name] = blk
        return blk

    def free_common(self, name: str) -> SharedCommonBlock:
        """Explicitly deallocate a block before task exit (FREE COMMON).

        The name becomes declarable again; the old block object is kept
        (storage released) so final values stay readable.
        """
        try:
            blk = self.commons.pop(name)
        except KeyError:
            raise RuntimeLibraryError(f"no SHARED COMMON /{name}/") from None
        blk.free()
        self.freed_commons.append(blk)
        return blk

    def common(self, name: str) -> SharedCommonBlock:
        try:
            return self.commons[name]
        except KeyError:
            raise RuntimeLibraryError(f"no SHARED COMMON /{name}/") from None

    def declare_lock(self, name: str) -> LockState:
        if name in self.locks:
            raise RuntimeLibraryError(f"LOCK {name} already declared")
        lk = LockState.allocate(name, self._heap)
        self.locks[name] = lk
        return lk

    def lock(self, name: str) -> LockState:
        if name not in self.locks:
            # Locks may be declared lazily on first use.
            return self.declare_lock(name)
        return self.locks[name]

    def snapshot(self, owner_ordinal=None) -> dict:
        """Digestable state of every block and lock this task owns.

        ``owner_ordinal`` maps a lock's ``owner_pid`` (process-global,
        unstable across hosts) to its run-stable spawn ordinal; waiters
        are counted, not named -- their identities are pinned by the
        process snapshots.
        """
        commons = {name: blk.digest()
                   for name, blk in sorted(self.commons.items())}
        locks = {}
        for name, lk in sorted(self.locks.items()):
            owner = lk.owner_pid
            if owner is not None and owner_ordinal is not None:
                owner = owner_ordinal(owner)
            locks[name] = [bool(lk.locked), owner, len(lk.waiters),
                           int(lk.acquisitions)]
        return {"commons": commons, "locks": locks,
                "freed": sorted(b.block_name for b in self.freed_commons)}

    def release_all(self) -> None:
        """Free the shared-memory storage at task termination.

        The block/lock objects are kept (with storage released) so
        post-mortem analysis can still read final values and lock
        contention statistics.
        """
        for blk in self.commons.values():
            blk.release()
        for lk in self.locks.values():
            lk.release_storage(self._heap)
