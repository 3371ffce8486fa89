"""Grid: the run-time library's array (sections 7 and 8).

A SHARED COMMON variable, an exported array and the block a window
read returns are all one type: a row-major stdlib ``array.array``
(``'d'`` for ``f8``, ``'q'`` for ``i8``) plus a shape of 0, 1 or 2
dims.  Section 8 windows are "generalized pointers to rectangular
subregions of remote arrays", so the data plane needs only two bulk
operations -- copy a rectangle out, assign a rectangle in -- and both
are slices of the flat store, one per row.  Kernels index
:attr:`Grid.flat` directly, Fortran-77 style.

No numpy is imported here.  ``np.asarray(grid)`` is a zero-copy,
writable view through :attr:`Grid.__array_interface__`, and
:func:`as_grid` wraps any C-contiguous 8-byte buffer (a numpy array,
an ``array.array``) without copying, so an owner that exports its own
numpy array keeps mutating the exported memory.  Fortran CHARACTER,
TASKID and WINDOW variables hold Python objects: their store is a list.
"""

from __future__ import annotations

import operator
import sys
import zlib
from array import array
from math import prod
from typing import Any, Iterator, List, Optional, Tuple

#: Accepted dtype spellings (numpy's among them) -> dtype name.
_NAMES = {"f8": "float64", "float64": "float64", "d": "float64",
          "i8": "int64", "int64": "int64", "q": "int64",
          "O": "object", "object": "object"}
#: dtype name -> array typecode (None: a list of Python objects).
_TYPECODES = {"float64": "d", "int64": "q", "object": None}
#: Every dtype is eight bytes an element (object: one pointer, as numpy).
ITEMSIZE = 8
_ORDER = "<" if sys.byteorder == "little" else ">"
#: 8-byte buffer formats wrapped without a copy.
_BUFFER_FORMATS = {"d": "float64", "q": "int64", "l": "int64"}

Bounds = Tuple[Tuple[int, int], ...]


def dtype_name(dtype: Any) -> str:
    """The canonical name (``float64``/``int64``/``object``) of a dtype
    spelling, or of anything whose ``str`` is one (a numpy dtype)."""
    try:
        return _NAMES[str(dtype)]
    except KeyError:
        raise TypeError(f"unsupported Grid dtype {dtype!r} "
                        f"(f8, i8 or O)") from None


def _runs(shape: Tuple[int, ...], bounds: Bounds) -> List[Tuple[int, int]]:
    """The flat [start, stop) ranges of a rectangle, in row-major order."""
    if not shape:
        return [(0, 1)]
    if len(shape) == 1:
        return [bounds[0]]
    (r0, r1), (c0, c1) = bounds
    cols = shape[1]
    if c0 == 0 and c1 == cols:
        return [(r0 * cols, r1 * cols)]
    return [(r * cols + c0, r * cols + c1) for r in range(r0, r1)]


def _copy(flat, runs, typecode):
    """A fresh store holding the concatenated ``runs`` of ``flat``."""
    out = [] if typecode is None else array(typecode)
    for a, b in runs:
        part = flat[a:b]
        if type(part) is memoryview:        # a wrapped foreign buffer
            out.frombytes(part.cast("B"))
        else:
            out += part
    return out


def _convert(values, name: str):
    """A store of dtype ``name`` holding ``values`` (casting like numpy:
    floats truncate toward zero into int64)."""
    tc = _TYPECODES[name]
    if tc is None:
        return list(values)
    if tc == "q":
        return array(tc, [v if type(v) is int else int(v) for v in values])
    return array(tc, [float(v) for v in values])


class Grid:
    """A 0-, 1- or 2-D row-major array over a flat store.

    Element access takes ints (``g[i, j]``, ``g[i]``, ``g[()]``) and
    returns a Python number.  A key with slices (step 1) or ``...``
    copies that rectangle out as a new Grid; assigning to one copies a
    scalar, a Grid or any array-like of the rectangle's shape in.
    """

    __slots__ = ("flat", "shape", "dtype")

    def __init__(self, shape: Tuple[int, ...], dtype: str, flat) -> None:
        #: The row-major store: an ``array.array``, a list (object
        #: dtype) or a memoryview over a wrapped foreign buffer.
        self.flat = flat
        self.shape = shape
        #: ``"float64"``, ``"int64"`` or ``"object"``.
        self.dtype = dtype

    @classmethod
    def zeros(cls, shape, dtype: Any = "f8") -> "Grid":
        shape = (shape,) if isinstance(shape, int) else tuple(
            int(n) for n in shape)
        if len(shape) > 2:
            raise ValueError(f"a Grid has at most 2 dims, not {len(shape)}")
        name = dtype_name(dtype)
        tc = _TYPECODES[name]
        size = prod(shape)
        flat = [0] * size if tc is None else array(tc, bytes(ITEMSIZE * size))
        return cls(shape, name, flat)

    # --------------------------------------------------------- geometry --

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * ITEMSIZE

    # ------------------------------------------------------------ index --

    def _at(self, key) -> Optional[int]:
        """The flat offset an all-int key (``g[i]``, ``g[i, j]``) selects
        on a 1-D or 2-D Grid; None for any other key."""
        shape = self.shape
        if type(key) is int and len(shape) == 1:
            i, n = key, shape[0]
            if i < 0:
                i += n
            if 0 <= i < n:
                return i
        elif type(key) is tuple and len(key) == 2 == len(shape) \
                and type(key[0]) is int and type(key[1]) is int:
            (i, j), (rows, cols) = key, shape
            if i < 0:
                i += rows
            if j < 0:
                j += cols
            if 0 <= i < rows and 0 <= j < cols:
                return i * cols + j
        else:
            return None
        raise IndexError(f"index {key} out of range for shape {shape}")

    def _select(self, key) -> Tuple[Bounds, Tuple[bool, ...]]:
        """(bounds, kept) for ``key``: the rectangle it touches and, per
        dim, whether the dim survives (a slice) or collapses (an int)."""
        shape = self.shape
        if key is Ellipsis:
            return tuple((0, n) for n in shape), (True,) * len(shape)
        if type(key) is not tuple:
            key = (key,)
        if len(key) > len(shape):
            raise IndexError(f"too many indices for a {len(shape)}-d Grid")
        key = key + (slice(None),) * (len(shape) - len(key))
        bounds = []
        kept = []
        for k, n in zip(key, shape):
            if type(k) is slice:
                lo, hi, step = k.indices(n)
                if step != 1:
                    raise IndexError("Grid slices are rectangles: step 1")
                bounds.append((lo, max(lo, hi)))
                kept.append(True)
            else:
                i = operator.index(k)
                if i < 0:
                    i += n
                if not 0 <= i < n:
                    raise IndexError(f"index {k} out of range 0..{n - 1}")
                bounds.append((i, i + 1))
                kept.append(False)
        return tuple(bounds), tuple(kept)

    def __getitem__(self, key):
        k = self._at(key)
        if k is not None:
            return self.flat[k]
        if type(key) is int and len(self.shape) == 2:     # a row
            rows, cols = self.shape
            i = key + rows if key < 0 else key
            if 0 <= i < rows:
                return Grid((cols,), self.dtype,
                            _copy(self.flat, ((i * cols, i * cols + cols),),
                                  _TYPECODES[self.dtype]))
        bounds, kept = self._select(key)
        if not any(kept) and key is not Ellipsis:
            return self.flat[_runs(self.shape, bounds)[0][0]]
        return self.read(bounds, tuple(b - a for (a, b), k
                                       in zip(bounds, kept) if k))

    def __setitem__(self, key, value) -> None:
        k = self._at(key)
        if k is not None:
            self._set(k, value)
            return
        bounds, kept = self._select(key)
        if not any(kept) and _is_scalar(value, self.dtype):
            self._set(_runs(self.shape, bounds)[0][0], value)
            return
        self.write(bounds, value, tuple(b - a for (a, b), k
                                        in zip(bounds, kept) if k))

    def _set(self, k: int, value) -> None:
        try:
            self.flat[k] = value
        except TypeError:
            self.flat[k] = _convert((value,), self.dtype)[0]

    def __iter__(self) -> Iterator:
        if not self.shape:
            raise TypeError("iteration over a 0-d Grid")
        if len(self.shape) == 1:
            return iter(self.flat)
        rows, cols = self.shape
        return (self.read(((i, i + 1), (0, cols)), (cols,))
                for i in range(rows))

    # ------------------------------------------------------ rectangles --

    def read(self, bounds: Bounds, shape: Optional[Tuple[int, ...]] = None
             ) -> "Grid":
        """Copy the rectangle ``bounds`` (one (start, stop) per dim) out
        as a new Grid, of the rectangle's shape unless ``shape`` says
        otherwise (same size)."""
        if shape is None:
            shape = tuple(b - a for a, b in bounds)
        return Grid(shape, self.dtype,
                    _copy(self.flat, _runs(self.shape, bounds),
                          _TYPECODES[self.dtype]))

    def write(self, bounds: Bounds, data,
              shape: Optional[Tuple[int, ...]] = None) -> None:
        """Assign ``data`` -- a scalar, or a Grid / array-like of the
        rectangle's shape (or of ``shape``, the rectangle with its
        collapsed dims dropped) -- into the rectangle ``bounds``."""
        full = tuple(b - a for a, b in bounds)
        runs = _runs(self.shape, bounds)
        tc = _TYPECODES[self.dtype]
        if _is_scalar(data, self.dtype):
            (v,) = _convert((data,), self.dtype)
            dst = self.flat if tc is None else memoryview(self.flat)
            fill = [v] if tc is None else array(tc, [v])
            for a, b in runs:
                dst[a:b] = fill * (b - a)
            return
        src = as_grid(data, self.dtype)
        if src.shape != full and src.shape != shape:
            raise ValueError(f"cannot assign shape {src.shape} to a "
                             f"{full} rectangle")
        sflat = src.flat
        dst = self.flat if tc is None else memoryview(self.flat)
        at = 0
        for a, b in runs:
            dst[a:b] = sflat[at:at + b - a]
            at += b - a

    def copy(self) -> "Grid":
        return Grid(self.shape, self.dtype,
                    _copy(self.flat, [(0, self.size)],
                          _TYPECODES[self.dtype]))

    def tolist(self):
        flat = self.flat
        if not self.shape:
            return flat[0]
        if len(self.shape) == 1:
            return list(flat)
        cols = self.shape[1]
        return [list(flat[r * cols:(r + 1) * cols])
                for r in range(self.shape[0])]

    # ---------------------------------------------------------- buffers --

    @property
    def data(self) -> memoryview:
        """The flat store as a buffer (``zlib.adler32(grid.data)``)."""
        if self.dtype == "object":
            raise TypeError("an object Grid has no byte buffer")
        return memoryview(self.flat)

    def digest(self) -> int:
        """adler32 of the contents (checkpoint validation): over the
        flat buffer, with no copy; over the repr for an object Grid."""
        return zlib.adler32(self.tobytes() if self.dtype == "object"
                            else self.data)

    def tobytes(self) -> bytes:
        if self.dtype == "object":
            return repr(self.flat).encode("utf-8", "backslashreplace")
        return bytes(self.data.cast("B"))

    @property
    def __array_interface__(self) -> dict:
        if self.dtype == "object":
            raise AttributeError("an object Grid exports no array interface")
        return {"version": 3, "shape": self.shape,
                "typestr": _ORDER + ("f8" if self.dtype == "float64"
                                     else "i8"),
                "data": self.flat}

    def __repr__(self) -> str:
        return f"Grid({self.tolist()!r}, dtype={self.dtype!r})"


def _is_scalar(value, dtype: str) -> bool:
    """A single element: a number, a string, an object, or a 0-d numpy
    value -- anything but a Grid, a sequence or a buffer.  An object
    Grid's element may be any value but a Grid or a list (a TaskId is a
    tuple)."""
    if dtype == "object":
        return not isinstance(value, (Grid, list))
    if isinstance(value, (int, float, str)) or value is None:
        return True
    if isinstance(value, (Grid, list, tuple, array, memoryview)):
        return False
    return getattr(value, "ndim", 0) == 0


def _has_buffer(value) -> bool:
    if isinstance(value, (int, float, str)):
        return False
    try:
        memoryview(value)
    except TypeError:
        return False
    return True


def _nested(value) -> Tuple[Tuple[int, ...], list]:
    """(shape, flat values) of a scalar or rectangular nested sequence."""
    if not isinstance(value, (list, tuple)):
        return (), [value]
    if not value or not isinstance(value[0], (list, tuple)):
        return (len(value),), list(value)
    cols = len(value[0])
    flat: list = []
    for row in value:
        if not isinstance(row, (list, tuple)) or len(row) != cols:
            raise ValueError("a Grid needs a rectangular nested sequence")
        if row and isinstance(row[0], (list, tuple)):
            raise ValueError("a Grid has at most 2 dims")
        flat.extend(row)
    return (len(value), cols), flat


def as_grid(value, dtype: Any = None) -> Grid:
    """``value`` as a Grid of ``dtype`` (default: the value's own).

    A Grid of that dtype is returned as is; a C-contiguous ``f8``/``i8``
    buffer (a numpy array, an ``array.array``) is wrapped without a
    copy, so writes through the Grid land in the caller's memory; any
    other buffer, nested sequence or scalar is copied (and cast).
    """
    want = None if dtype is None else dtype_name(dtype)
    if isinstance(value, Grid):
        if want is None or want == value.dtype:
            return value
        return Grid(value.shape, want, _convert(value.flat, want))
    if type(value) is array and value.typecode in ("d", "q"):
        name = _BUFFER_FORMATS[value.typecode]      # already a flat store
        if want is None or want == name:
            return Grid((len(value),), name, value)
    if _has_buffer(value):
        mv = memoryview(value)
        if mv.ndim > 2:
            raise ValueError(f"a Grid has at most 2 dims, not {mv.ndim}")
        fmt = mv.format.lstrip("@=" + _ORDER)
        name = _BUFFER_FORMATS.get(fmt) if mv.itemsize == ITEMSIZE else None
        if name is not None and (want is None or want == name) \
                and mv.c_contiguous and mv.ndim:
            return Grid(tuple(mv.shape), name,
                        mv.cast("B").cast(_TYPECODES[name]))
        if want is None:
            want = "float64" if fmt in ("d", "f", "e") else "int64"
        value = mv.tolist()
    shape, flat = _nested(value)
    if want is None:
        want = "int64" if all(isinstance(v, int) for v in flat) \
            else "float64"
    return Grid(shape, want, _convert(flat, want))
