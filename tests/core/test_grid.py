"""The stdlib Grid: unit behaviour and numpy interop at the task API."""

import numpy as np
import pytest

from repro.core.grid import Grid, as_grid
from repro.core.taskid import PARENT, SAME
from repro.core.tracked import TrackedArray


class TestGrid:
    def test_zeros_shapes_and_dtypes(self):
        assert Grid.zeros((3, 4)).shape == (3, 4)
        assert Grid.zeros(5, "i8").dtype == "int64"
        assert Grid.zeros((), "f8")[()] == 0.0
        assert Grid.zeros((2,), "O").tolist() == [0, 0]
        with pytest.raises(ValueError):
            Grid.zeros((2, 2, 2))
        with pytest.raises(TypeError):
            Grid.zeros(3, "f4")

    def test_slices_copy_out_and_assign_in(self):
        g = Grid.zeros((3, 4))
        g[1, 1:3] = [5.0, 6.0]
        row = g[1]
        assert row.tolist() == [0.0, 5.0, 6.0, 0.0]
        row[0] = 9.0                         # a copy: g is unchanged
        assert g[1, 0] == 0.0
        g[...] = 2.0
        assert g[:, 3].tolist() == [2.0, 2.0, 2.0]
        with pytest.raises(IndexError):
            g[::2]
        with pytest.raises(IndexError):
            g[3, 0]
        with pytest.raises(ValueError):
            g[0:2, :] = np.ones((3, 4))

    def test_int_store_truncates_floats_like_numpy(self):
        g = Grid.zeros(2, "i8")
        g[0] = 2.9
        g[1] = -2.9
        assert g.tolist() == [2, -2] == np.array([2.9, -2.9]).astype(
            np.int64).tolist()

    def test_as_grid_of_sequences_and_foreign_buffers(self):
        assert as_grid([[1, 2], [3, 4]]).dtype == "int64"
        assert as_grid([1, 2.5]).dtype == "float64"
        f32 = as_grid(np.arange(3, dtype=np.float32))     # copied, cast
        assert f32.dtype == "float64" and f32.tolist() == [0.0, 1.0, 2.0]
        strided = np.arange(8.0)[::2]
        assert as_grid(strided).tolist() == [0.0, 2.0, 4.0, 6.0]
        with pytest.raises(ValueError):
            as_grid(np.zeros((2, 2, 2)))

    def test_object_grid_holds_any_value(self):
        g = Grid.zeros((), "O")
        g[()] = ("a", 1)                     # a TaskId is a tuple too
        assert g[()] == ("a", 1)
        assert isinstance(g.digest(), int)

    def test_tracked_array_reports_each_indexed_access(self):
        seen = []
        t = TrackedArray.zeros((4, 4), "f8")
        t.monitor = lambda label, bounds, write: seen.append((bounds, write))
        t.label = ("B", "u")
        t[1, 2] = 3.0
        t[2]
        t[0:2, 1:3] = 0.0
        list(t)
        assert seen == [(((1, 2), (2, 3)), True),
                        (((2, 3), (0, 4)), False),
                        (((0, 2), (1, 3)), True),
                        (((0, 4), (0, 4)), False)]
        assert type(t[2]) is Grid            # copies are not tracked


class TestNumpyInterop:
    def test_window_read_is_viewed_by_numpy_without_a_copy(self, make_vm,
                                                           registry):
        @registry.tasktype("OWNER")
        def owner(ctx):
            w = ctx.export_array("A", np.arange(12.0).reshape(3, 4))
            block = ctx.window_read(w.shrink(rows=(1, 3)))
            view = np.asarray(block)
            view[0, 0] = -1.0                # writes the block itself
            return block[0, 0], view.shape, view.tolist()

        first, shape, values = make_vm(registry=registry).run("OWNER").value
        assert first == -1.0 and shape == (2, 4)
        assert values[1] == [8.0, 9.0, 10.0, 11.0]

    def test_exported_ndarray_round_trips_and_is_served_in_place(
            self, make_vm, registry):
        @registry.tasktype("PEER")
        def peer(ctx):
            w = ctx.accept("WIN").args[0]
            got = np.asarray(ctx.window_read(w)).copy()
            ctx.window_write(w.shrink(rows=(0, 1)), np.full((1, 3), 7.0))
            ctx.send(PARENT, "GOT", got.tolist())

        @registry.tasktype("OWNER")
        def owner(ctx):
            a = np.arange(6.0).reshape(2, 3)
            w = ctx.export_array("A", a)
            ctx.initiate("PEER", on=SAME)
            ctx.accept("X", delay=2000, timeout_ok=True)
            ctx.broadcast("WIN", w, cluster=1)
            got = ctx.accept("GOT").args[0]
            return got, a.tolist()           # the peer's write landed in a

        got, after = make_vm(registry=registry).run("OWNER").value
        assert got == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert after == [[7.0, 7.0, 7.0], [3.0, 4.0, 5.0]]
