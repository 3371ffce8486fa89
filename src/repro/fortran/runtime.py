"""Run-time support for preprocessed Pisces Fortran programs.

The preprocessor (section 10) "converts Pisces Fortran programs into
standard Fortran 77, with embedded calls on the Pisces run-time
library"; here the host language is Python and this module is the shim
the generated code calls: Fortran-semantics arrays (1-based, column
type), DO ranges, intrinsics, and re-exports of the run-time library's
destination/placement constants.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from ..core.accept import ALL_RECEIVED
from ..core.grid import Grid, as_grid
from ..core.taskid import (
    ANY, Broadcast, Cluster, OTHER, PARENT, SAME, SELF, SENDER, TContr,
    USER, TaskId,
)

_DTYPES = {
    "INTEGER": "i8",
    "REAL": "f8",
    "DOUBLEPRECISION": "f8",
    "LOGICAL": "i8",
    "CHARACTER": "O",
    "TASKID": "O",
    "WINDOW": "O",
}


def dtype_for(ftype: str) -> str:
    return _DTYPES.get(ftype, "f8")


def zero_for(ftype: str) -> Any:
    if ftype == "INTEGER":
        return 0
    if ftype in ("REAL", "DOUBLEPRECISION"):
        return 0.0
    if ftype == "LOGICAL":
        return False
    if ftype == "CHARACTER":
        return ""
    return None


class FArray:
    """A Fortran array: 1-based indexing over a row-major
    :class:`~repro.core.grid.Grid` (a list of objects for CHARACTER,
    TASKID and WINDOW arrays, each element starting as None).

    ``shared`` arrays wrap storage owned by a SHARED COMMON block and
    are kept by reference when a namespace is copied at FORCESPLIT;
    task-local arrays are copied per force member (each member is a
    replicated copy of the task).
    """

    __slots__ = ("data", "shared")

    def __init__(self, ftype_or_dtype: str, dims, shared: bool = False):
        dtype = _DTYPES.get(ftype_or_dtype, ftype_or_dtype)
        self.data = Grid.zeros(dims, dtype)
        if dtype == "O":
            self.data.flat[:] = [None] * self.data.size
        self.shared = shared

    @classmethod
    def wrap(cls, array) -> "FArray":
        fa = cls.__new__(cls)
        fa.data = as_grid(array)
        fa.shared = True
        return fa

    def __getitem__(self, idx):
        if type(idx) is tuple:
            return self.data[tuple(int(i) - 1 for i in idx)]
        return self.data[int(idx) - 1]

    def __setitem__(self, idx, value) -> None:
        if type(idx) is tuple:
            self.data[tuple(int(i) - 1 for i in idx)] = value
        else:
            self.data[int(idx) - 1] = value

    def copy(self) -> "FArray":
        if self.shared:
            return self
        fa = FArray.__new__(FArray)
        fa.data = self.data.copy()
        fa.shared = False
        return fa

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FArray(shape={self.data.shape}, shared={self.shared})"


class Namespace:
    """The local-variable bag of one Fortran program unit execution."""

    def copy(self) -> "Namespace":
        """Per-force-member copy: local arrays duplicated; shared arrays
        and SHARED COMMON scalars (0-d Grids) kept by reference."""
        ns = Namespace()
        for k, v in self.__dict__.items():
            ns.__dict__[k] = v.copy() if isinstance(v, FArray) else v
        return ns


def frange(first, last, step=None) -> range:
    """The index set of ``DO v = first, last [, step]`` (inclusive)."""
    f, l = int(first), int(last)
    s = 1 if step is None else int(step)
    if s == 0:
        raise ValueError("DO step of zero")
    if s > 0:
        return range(f, l + 1, s)
    return range(f, l - 1, s)


def div(a, b):
    """Fortran division: integer operands truncate toward zero."""
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def truth(v) -> bool:
    return bool(v)


def fmt(*items) -> str:
    """PRINT *-style list-directed output."""
    return " ".join(str(i) for i in items)


# ---------------------------------------------------------- window shims --

def wshrink(w, *bounds):
    """WSHRINK helper: 1-based inclusive lo/hi pairs -> Window.shrink."""
    if len(bounds) % 2 != 0:
        raise ValueError("WSHRINK needs lo/hi pairs")
    region = tuple((int(lo) - 1, int(hi))
                   for lo, hi in zip(bounds[::2], bounds[1::2]))
    return w.shrink(region)


def wread(ctx, farray: FArray, w):
    """WREAD helper: window contents into a declared Fortran array (a
    KernelOp generator: the generated code writes ``yield from
    _rt.wread(ctx, A, W)``)."""
    data = yield from ctx.window_read(w)
    if data.size != farray.data.size:
        raise ValueError(
            f"WREAD: window has {data.size} elements, array has "
            f"{farray.data.size}")
    farray.data[...] = Grid(farray.data.shape, data.dtype, data.flat)


# ------------------------------------------------------------- intrinsics --

def f_max(*args):
    return max(args)


def f_min(*args):
    return min(args)


def f_mod(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return int(math.fmod(a, b))
    return math.fmod(a, b)


def f_int(x):
    return int(x)


def f_real(x):
    return float(x)


def f_nint(x):
    return int(round(x))


INTRINSICS: Dict[str, Any] = {
    "ABS": abs,
    "MAX": f_max,
    "MIN": f_min,
    "MOD": f_mod,
    "SQRT": math.sqrt,
    "SIN": math.sin,
    "COS": math.cos,
    "TAN": math.tan,
    "EXP": math.exp,
    "LOG": math.log,
    "ATAN": math.atan,
    "INT": f_int,
    "REAL": f_real,
    "FLOAT": f_real,
    "DBLE": f_real,
    "NINT": f_nint,
    "IABS": abs,
    "LEN": len,
}


def intrinsic(name: str):
    return INTRINSICS[name]
