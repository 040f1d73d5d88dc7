"""Property tests for repro.analysis.arrays.

``sorted_unique`` replaced ``np.unique`` on the selection/partition hot
paths for speed; these tests pin that the replacement is *exactly*
``np.unique`` on every input shape that matters (empty, single,
duplicate-heavy, already sorted, reversed).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.arrays import isin_sorted, sorted_unique


class TestSortedUnique:
    def test_empty(self):
        result = sorted_unique(np.array([], dtype=np.uint64))
        assert result.size == 0
        assert result.dtype == np.uint64

    def test_single(self):
        np.testing.assert_array_equal(
            sorted_unique(np.array([7], dtype=np.uint64)), [7]
        )

    def test_all_duplicates(self):
        np.testing.assert_array_equal(
            sorted_unique(np.full(100, 42, dtype=np.uint64)), [42]
        )

    def test_reverse_sorted(self):
        values = np.arange(50, dtype=np.uint64)[::-1]
        np.testing.assert_array_equal(sorted_unique(values), np.arange(50))

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200)
    )
    def test_matches_np_unique(self, raw):
        values = np.array(raw, dtype=np.uint64)
        np.testing.assert_array_equal(sorted_unique(values), np.unique(values))

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=100))
    def test_matches_np_unique_signed(self, raw):
        values = np.array(raw, dtype=np.int64)
        result = sorted_unique(values)
        np.testing.assert_array_equal(result, np.unique(values))
        assert result.dtype == values.dtype

    def test_does_not_mutate_input(self):
        values = np.array([3, 1, 2, 1], dtype=np.uint64)
        sorted_unique(values)
        np.testing.assert_array_equal(values, [3, 1, 2, 1])


class TestIsinSorted:
    def test_empty_table_is_all_false(self):
        values = np.array([1, 2, 3], dtype=np.uint64)
        result = isin_sorted(values, np.array([], dtype=np.uint64))
        np.testing.assert_array_equal(result, [False, False, False])

    def test_empty_values(self):
        result = isin_sorted(
            np.array([], dtype=np.uint64), np.array([1, 2], dtype=np.uint64)
        )
        assert result.size == 0
        assert result.dtype == bool

    def test_beyond_table_end(self):
        # searchsorted lands past the last slot for values above the
        # table's maximum; the clamp must not turn that into a hit.
        table = np.array([10, 20, 30], dtype=np.uint64)
        values = np.array([30, 31, 2**63], dtype=np.uint64)
        np.testing.assert_array_equal(
            isin_sorted(values, table), [True, False, False]
        )

    def test_duplicate_table_entries(self):
        table = np.array([5, 5, 5, 9], dtype=np.uint64)
        values = np.array([4, 5, 9, 10], dtype=np.uint64)
        np.testing.assert_array_equal(
            isin_sorted(values, table), np.isin(values, table)
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200),
    )
    def test_matches_np_isin_on_sorted_tables(self, raw_values, raw_table):
        values = np.array(raw_values, dtype=np.uint64)
        table = np.sort(np.array(raw_table, dtype=np.uint64))
        np.testing.assert_array_equal(
            isin_sorted(values, table), np.isin(values, table)
        )
