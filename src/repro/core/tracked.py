"""The race detector's SHARED COMMON write monitor (section 7 blocks).

Only a block declared with race detection on holds a
:class:`TrackedArray`, so this module -- and the ndarray subclass it
defines -- loads with the first such block, not with the run-time
library.
"""

from __future__ import annotations

import numpy as np


def _index_bounds(key, shape, region, dims, exact):
    """Extents touched by indexing a (possibly viewed) tracked array.

    ``region`` holds one half-open ``(lo, hi)`` interval per dimension
    of the *root* array; ``dims`` maps each own dimension to its root
    dimension (``-1`` for a ``newaxis`` dimension); ``exact[rd]`` is
    False once a root dimension went through a non-unit-step slice or
    advanced index, after which it can never be narrowed again.  The
    result is conservative: it covers at least every touched element.

    Returns ``(bounds, view_dims, view_exact)`` where ``bounds`` doubles
    as the access extents and the resulting view's region.
    """
    if not isinstance(key, tuple):
        key = (key,)
    if any(k is Ellipsis for k in key):
        explicit = sum(1 for k in key if k is not Ellipsis and k is not None)
        expanded = []
        for k in key:
            if k is Ellipsis:
                expanded.extend([slice(None)] * (len(shape) - explicit))
            else:
                expanded.append(k)
        key = expanded

    bounds = list(region)
    new_exact = list(exact)
    kept = []        # root dim (or -1) per surviving view dimension
    own = 0
    for k in key:
        if k is None:            # np.newaxis: adds a dim, consumes none
            kept.append(-1)
            continue
        if own >= len(dims):
            break
        rd = dims[own]
        n = shape[own]
        own += 1
        if rd < 0:               # indexing into an inserted axis
            if not isinstance(k, (int, np.integer)):
                kept.append(-1)
            continue
        lo, hi = bounds[rd]
        if not exact[rd]:        # inexact: full interval, never narrow
            if not isinstance(k, (int, np.integer)):
                kept.append(rd)
            continue
        if isinstance(k, (int, np.integer)):
            i = int(k)
            if i < 0:
                i += n
            if 0 <= i < n:
                bounds[rd] = (lo + i, lo + i + 1)
            # dim collapses: interval stays pinned, not kept
        elif isinstance(k, slice):
            r = range(*k.indices(n))
            if len(r) == 0:
                bounds[rd] = (lo, lo)
            else:
                bounds[rd] = (lo + min(r), lo + max(r) + 1)
                if r.step != 1:
                    new_exact[rd] = False   # covering interval only
            kept.append(rd)
        else:
            # Advanced index (array/list/mask): covering interval is the
            # whole dim; the result is a copy, so the view attrs computed
            # here are discarded by the caller anyway.
            new_exact[rd] = False
            kept.append(rd)
    kept.extend(dims[own:])
    return tuple(bounds), tuple(kept), tuple(new_exact)


class TrackedArray(np.ndarray):
    """A SHARED COMMON variable with per-access race monitoring.

    Only constructed when race detection is on (blocks declared with no
    monitor hold plain ndarrays -- detection off costs nothing).  Every
    ``__getitem__``/``__setitem__`` reports its conservative element
    extents to the monitor; basic-indexing *views* stay tracked with
    their absolute position in the root array, so ``row = blk.u[i]``
    followed by ``row[j] = v`` reports the right extents.

    Known blind spots (documented, conservative in the "no false
    negative within supported usage" sense): in-place ufuncs on the
    whole array (``blk.u += 1``) and ``np.copyto`` bypass
    ``__setitem__``; advanced indexing returns untracked copies (which
    is semantically right -- writing a copy does not touch shared
    memory).
    """

    def __array_finalize__(self, obj):
        # Never inherit monitoring: ufunc temporaries, copies and
        # reductions must not report phantom accesses.  Tracking is
        # re-attached explicitly (block construction, __getitem__).
        self._pisces_monitor = None
        self._pisces_label = None
        self._pisces_region = None
        self._pisces_dims = None
        self._pisces_exact = None

    def __getitem__(self, key):
        result = super().__getitem__(key)
        mon = self._pisces_monitor
        if mon is None:
            return result
        bounds, vdims, vexact = _index_bounds(
            key, self.shape, self._pisces_region, self._pisces_dims,
            self._pisces_exact)
        mon(self._pisces_label, bounds, False)
        if (type(result) is TrackedArray
                and result.ndim == len(vdims)
                and result.base is not None):
            result._pisces_monitor = mon
            result._pisces_label = self._pisces_label
            result._pisces_region = bounds
            result._pisces_dims = vdims
            result._pisces_exact = vexact
        return result

    def __setitem__(self, key, value):
        mon = self._pisces_monitor
        if mon is not None:
            bounds, _, _ = _index_bounds(
                key, self.shape, self._pisces_region, self._pisces_dims,
                self._pisces_exact)
            mon(self._pisces_label, bounds, True)
        super().__setitem__(key, value)
