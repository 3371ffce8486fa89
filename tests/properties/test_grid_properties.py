"""Property-based tests: the stdlib Grid against numpy, its oracle.

Every Grid operation the run-time library uses -- rectangle copy-out and
assign-in over the bounds a window can have (``Window.shrink`` /
``Window.split``), element get/set including 0-d, ``copy``, the buffer
checkpoints digest and the bytes a message argument packs -- must agree
with the same operation on a numpy array of the same contents.
"""

import zlib

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core.grid import Grid, as_grid
from repro.core.sizes import message_bytes, packed_size
from repro.core.taskid import TaskId
from repro.core.windows import make_window

OWNER = TaskId(1, 1, 1)

shapes = st.lists(st.integers(min_value=1, max_value=12), min_size=0,
                  max_size=2).map(tuple)
dtypes = st.sampled_from(["f8", "i8"])


def values(dtype, n):
    if dtype == "f8":
        elem = st.floats(allow_nan=False, allow_infinity=False, width=64)
    else:
        elem = st.integers(min_value=-2**63, max_value=2**63 - 1)
    return st.lists(elem, min_size=n, max_size=n)


@st.composite
def grid_and_array(draw, shape=shapes):
    shape = draw(shape)
    dtype = draw(dtypes)
    n = 1
    for d in shape:
        n *= d
    flat = draw(values(dtype, n))
    a = np.array(flat, dtype=dtype).reshape(shape)
    g = Grid.zeros(shape, dtype)
    g[...] = a
    return g, a


@st.composite
def rectangle(draw, shape):
    """Bounds a window on an array of ``shape`` can have: a shrink of
    the full window, or one part of a split along an axis."""
    w = make_window(OWNER, "A", np.zeros(shape))
    if draw(st.booleans()):
        axis = draw(st.integers(min_value=0, max_value=len(shape) - 1))
        parts = draw(st.integers(min_value=1, max_value=shape[axis]))
        w = draw(st.sampled_from(w.split(parts, axis=axis)))
    sub = []
    for a, b in w.bounds:
        lo = draw(st.integers(min_value=0, max_value=b - a - 1))
        hi = draw(st.integers(min_value=lo + 1, max_value=b - a))
        sub.append((lo, hi))
    return w.shrink(tuple(sub))


nonempty = st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                    max_size=2).map(tuple)


@given(grid_and_array(nonempty), st.data())
@settings(max_examples=200, deadline=None)
def test_rectangle_read_matches_numpy_slicing(ga, data):
    g, a = ga
    w = data.draw(rectangle(a.shape))
    block = g.read(w.bounds)
    assert block.shape == w.shape
    assert np.array_equal(np.asarray(block), a[w.slices()])
    assert np.array_equal(np.asarray(g[w.slices()]), a[w.slices()])


def code(g):
    return "f8" if g.dtype == "float64" else "i8"


@given(grid_and_array(nonempty), st.data())
@settings(max_examples=200, deadline=None)
def test_rectangle_write_matches_numpy_assignment(ga, data):
    g, a = ga
    w = data.draw(rectangle(a.shape))
    payload = np.array(data.draw(values(code(g), w.size)),
                       dtype=a.dtype).reshape(w.shape)
    g.write(w.bounds, payload)
    a[w.slices()] = payload
    assert np.array_equal(np.asarray(g), a)


@given(grid_and_array(), st.data())
@settings(max_examples=200, deadline=None)
def test_element_get_set_and_copy(ga, data):
    g, a = ga
    idx = tuple(data.draw(st.integers(min_value=-n, max_value=n - 1))
                for n in a.shape)
    assert g[idx] == a[idx].item()
    assert type(g[idx]) is (float if g.dtype == "float64" else int)
    before = a.copy()
    c = g.copy()
    v = data.draw(values(code(g), 1))[0]
    g[idx] = v
    a[idx] = v
    assert np.array_equal(np.asarray(g), a)
    assert np.array_equal(np.asarray(c), before)     # the copy is its own


@given(grid_and_array(st.just(())))
@settings(max_examples=100, deadline=None)
def test_zero_d_get_set(ga):
    g, a = ga
    assert g[()] == a[()].item()
    assume(abs(g[()]) < 2**62)      # int64 overflow: numpy wraps, Grid raises
    g[()] += 1
    a[()] += 1
    assert g[()] == a[()].item()
    assert g.shape == () and g.size == 1 and g.nbytes == 8


@given(grid_and_array())
@settings(max_examples=200, deadline=None)
def test_buffer_and_digest_equal_numpy_bytes(ga):
    g, a = ga
    raw = np.ascontiguousarray(a).data
    assert g.tobytes() == bytes(raw)
    assert zlib.adler32(g.data) == zlib.adler32(raw)
    assert g.digest() == zlib.adler32(raw)
    view = np.asarray(g)
    assert view.dtype == a.dtype and view.shape == a.shape
    view[(0,) * a.ndim] = 0                    # a writable view, no copy
    assert g[(0,) * a.ndim] == 0


@given(grid_and_array())
@settings(max_examples=200, deadline=None)
def test_message_argument_packs_like_the_ndarray(ga):
    g, a = ga
    assert packed_size(g) == a.nbytes == g.nbytes
    assert message_bytes(("X", g)) == message_bytes(("X", a))


@given(grid_and_array(nonempty))
@settings(max_examples=100, deadline=None)
def test_as_grid_wraps_numpy_in_place(ga):
    _, a = ga
    assume(a.size > 0)
    g = as_grid(a)
    g[(0,) * a.ndim] = 7
    assert a[(0,) * a.ndim] == 7             # same memory, no copy
    assert np.array_equal(np.asarray(g), a)
