"""Unit tests: window geometry, shrink/split, and the array store."""

import numpy as np
import pytest

from repro.core.taskid import TaskId
from repro.core.windows import ArrayStore, Window, make_window
from repro.errors import WindowError

OWNER = TaskId(1, 1, 1)


def full(shape=(10, 8)):
    return make_window(OWNER, "A", np.zeros(shape))


class TestMakeWindow:
    def test_default_region_is_whole_array(self):
        w = full()
        assert w.bounds == ((0, 10), (0, 8))
        assert w.shape == (10, 8)
        assert w.size == 80
        assert w.nbytes == 80 * 8

    def test_region_forms(self):
        a = np.zeros((10, 8))
        w1 = make_window(OWNER, "A", a, (slice(2, 5), slice(0, 8)))
        w2 = make_window(OWNER, "A", a, ((2, 5), (0, 8)))
        assert w1.bounds == w2.bounds == ((2, 5), (0, 8))
        w3 = make_window(OWNER, "A", a, (3, slice(None)))
        assert w3.bounds == ((3, 4), (0, 8))

    def test_region_out_of_bounds_rejected(self):
        a = np.zeros((4,))
        with pytest.raises(WindowError):
            make_window(OWNER, "A", a, (slice(0, 5),))
        with pytest.raises(WindowError):
            make_window(OWNER, "A", a, (slice(3, 3),))

    def test_strided_region_rejected(self):
        a = np.zeros((8,))
        with pytest.raises(WindowError):
            make_window(OWNER, "A", a, (slice(0, 8, 2),))

    def test_dim_mismatch_rejected(self):
        a = np.zeros((4, 4))
        with pytest.raises(WindowError):
            make_window(OWNER, "A", a, (slice(0, 2),))


class TestShrink:
    def test_shrink_uses_window_relative_coordinates(self):
        w = full().shrink((slice(2, 6), slice(1, 4)))
        w2 = w.shrink((slice(1, 2), slice(0, 3)))
        assert w2.bounds == ((3, 4), (1, 4))

    def test_shrink_cannot_grow(self):
        w = full().shrink((slice(2, 6), slice(0, 8)))
        with pytest.raises(WindowError):
            w.shrink((slice(0, 5), slice(0, 8)))   # 5 > 4 rows

    def test_contains_and_overlaps(self):
        w = full()
        inner = w.shrink((slice(1, 3), slice(1, 3)))
        assert w.contains(inner) and not inner.contains(w)
        other = w.shrink((slice(2, 5), slice(2, 5)))
        assert inner.overlaps(other)
        disjoint = w.shrink((slice(5, 7), slice(5, 7)))
        assert not inner.overlaps(disjoint)

    def test_windows_are_immutable_values(self):
        w = full()
        with pytest.raises(Exception):
            w.array = "B"   # frozen dataclass


class TestSplit:
    def test_split_partitions_axis(self):
        parts = full().split(3, axis=0)
        assert [p.bounds[0] for p in parts] == [(0, 3), (3, 6), (6, 10)]
        for p in parts:
            assert p.bounds[1] == (0, 8)

    def test_split_errors(self):
        with pytest.raises(WindowError):
            full().split(0)
        with pytest.raises(WindowError):
            full((2, 2)).split(5, axis=0)

    def test_describe(self):
        assert "WINDOW A" in full().describe()


class TestArrayStore:
    def test_export_get_and_duplicate(self):
        st = ArrayStore(OWNER)
        a = np.arange(6.0)
        st.export("A", a)
        # served in place: the Grid is a view of the exported buffer
        assert np.shares_memory(np.asarray(st.get("A")), a)
        with pytest.raises(WindowError):
            st.export("A", a)
        with pytest.raises(WindowError):
            st.get("B")

    def test_read_returns_copy(self):
        st = ArrayStore(OWNER)
        a = np.arange(6.0)
        st.export("A", a)
        w = make_window(OWNER, "A", a, (slice(2, 4),))
        data = st.read(w, ticks=5)
        assert list(data) == [2.0, 3.0]
        data[0] = 99
        assert a[2] == 2.0

    def test_write_through_window(self):
        st = ArrayStore(OWNER)
        a = np.zeros((4, 4))
        st.export("A", a)
        w = make_window(OWNER, "A", a, (slice(1, 3), slice(1, 3)))
        st.write(w, np.ones((2, 2)), ticks=7)
        assert a[1:3, 1:3].sum() == 4 and a.sum() == 4

    def test_write_shape_mismatch_rejected(self):
        st = ArrayStore(OWNER)
        a = np.zeros((4,))
        st.export("A", a)
        w = make_window(OWNER, "A", a, (slice(0, 2),))
        with pytest.raises(WindowError):
            st.write(w, np.zeros(3), ticks=0)

    def test_access_log_records_operations(self):
        st = ArrayStore(OWNER)
        a = np.zeros((4,))
        st.export("A", a)
        w = make_window(OWNER, "A", a)
        st.read(w, ticks=1)
        st.write(w, np.ones(4), ticks=2)
        ops = [(op, t) for op, _, _, t in st.access_log]
        assert ops == [("read", 1), ("write", 2)]
