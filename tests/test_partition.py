"""Tests for 1-D block partitioning (repro.dist.partition)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dist.partition import BlockPartition
from repro.errors import PartitionError


class TestBounds:
    def test_even_split(self):
        p = BlockPartition(12, 4)
        assert [p.bounds(i) for i in range(p.parts)] == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_remainder_goes_to_first_parts(self):
        p = BlockPartition(10, 3)
        assert [p.bounds(i) for i in range(p.parts)] == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_items(self):
        p = BlockPartition(2, 4)
        assert [p.size(i) for i in range(4)] == [1, 1, 0, 0]

    def test_out_of_range_part(self):
        with pytest.raises(PartitionError):
            BlockPartition(10, 2).bounds(2)

    @pytest.mark.parametrize("n,parts", [(-1, 2), (4, 0)])
    def test_invalid_construction(self, n, parts):
        with pytest.raises(PartitionError):
            BlockPartition(n, parts)


class TestOwner:
    def test_owner_consistent_with_bounds(self):
        p = BlockPartition(11, 3)
        for i in range(11):
            owner = p.owner(i)
            lo, hi = p.bounds(owner)
            assert lo <= i < hi

    def test_owner_out_of_range(self):
        with pytest.raises(PartitionError):
            BlockPartition(5, 2).owner(5)


class TestTake:
    def test_take_rows(self):
        arr = np.arange(20).reshape(10, 2)
        p = BlockPartition(10, 3)
        np.testing.assert_array_equal(p.take(arr, 0, axis=0), arr[:4])
        np.testing.assert_array_equal(p.take(arr, 2, axis=0), arr[7:])

    def test_take_cols(self):
        arr = np.arange(12).reshape(3, 4)
        p = BlockPartition(4, 2)
        np.testing.assert_array_equal(p.take(arr, 1, axis=1), arr[:, 2:])

    def test_take_shape_mismatch(self):
        with pytest.raises(PartitionError):
            BlockPartition(5, 2).take(np.zeros((4, 4)), 0, axis=0)

    def test_take_is_view(self):
        arr = np.zeros((8, 2))
        block = BlockPartition(8, 2).take(arr, 0, axis=0)
        block[0, 0] = 7.0
        assert arr[0, 0] == 7.0


class TestProperties:
    @given(n=st.integers(0, 500), parts=st.integers(1, 50))
    def test_blocks_cover_and_are_disjoint(self, n, parts):
        p = BlockPartition(n, parts)
        seen = []
        for i in range(parts):
            lo, hi = p.bounds(i)
            assert 0 <= lo <= hi <= n
            seen.extend(range(lo, hi))
        assert seen == list(range(n))

    @given(n=st.integers(1, 500), parts=st.integers(1, 50))
    def test_balanced_within_one(self, n, parts):
        p = BlockPartition(n, parts)
        sizes = [p.size(i) for i in range(parts)]
        assert max(sizes) - min(sizes) <= 1

    @given(n=st.integers(1, 100), parts=st.integers(1, 10))
    def test_concatenating_blocks_restores_array(self, n, parts):
        arr = np.arange(n, dtype=float)
        p = BlockPartition(n, parts)
        rebuilt = np.concatenate([p.take(arr, i) for i in range(parts)])
        np.testing.assert_array_equal(rebuilt, arr)
