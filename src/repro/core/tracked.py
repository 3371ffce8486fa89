"""The race detector's SHARED COMMON access monitor (section 7 blocks).

Only a block declared with race detection on holds a
:class:`TrackedArray`, so this module loads with the first such block,
not with the run-time library.
"""

from __future__ import annotations

from .grid import Grid


class TrackedArray(Grid):
    """A SHARED COMMON variable with per-access race monitoring.

    Only constructed when race detection is on (blocks declared with no
    monitor hold plain Grids -- detection off costs nothing).  Every
    indexed read or write reports the rectangle it touches to the
    monitor as ``(label, extents, is_write)``; iterating reports one
    read of the whole array.  A slice is a copy, so writing into one
    touches no shared memory and reports nothing.

    Known blind spots: the flat store (``.flat``), ``np.asarray``
    views, ``copy()``/``tolist()`` and the rectangle methods
    ``read``/``write`` bypass indexing, so kernels that must be watched
    index the array (``g[i]``, ``g[i, 1:-1] = row``) rather than its
    flat store.
    """

    __slots__ = ("monitor", "label")

    def __init__(self, shape, dtype, flat, monitor=None, label=None):
        super().__init__(shape, dtype, flat)
        self.monitor = monitor
        self.label = label

    def __getitem__(self, key):
        self.monitor(self.label, self._select(key)[0], False)
        return Grid.__getitem__(self, key)

    def __setitem__(self, key, value) -> None:
        self.monitor(self.label, self._select(key)[0], True)
        Grid.__setitem__(self, key, value)

    def __iter__(self):
        self.monitor(self.label, tuple((0, n) for n in self.shape), False)
        return Grid.__iter__(self)
