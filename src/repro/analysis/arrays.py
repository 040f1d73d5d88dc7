"""Small array utilities shared by the pipeline and the tools.

:func:`sorted_unique`: numpy 2.x routes ``np.unique`` for integer
arrays through a hash table (``_unique_hash``) that profiles an order
of magnitude slower than a plain sort on the large address pools that
Algorithm 1, partitioning and DRAMA's pool sampling produce — and
those callers only ever need the classic sorted-unique contract.
Sorting and masking repeats returns exactly what ``np.unique`` returns,
just much faster.

:func:`isin_sorted`: membership against a table the caller already
holds sorted. ``np.isin`` re-sorts its test array on every call, which
the partition/clustering loops pay thousands of times against member
sets that are sorted by construction; a binary search over the sorted
table returns the same mask without the sort.
"""

from __future__ import annotations

import numpy as np

__all__ = ["isin_sorted", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted unique values of a 1-D array; equals ``np.unique(values)``.

    The equivalence (and therefore that swapping the implementations cannot
    change any simulation output) is pinned by a property test in
    ``tests/analysis/test_bits.py``.
    """
    values = np.asarray(values)
    if values.size <= 1:
        return values.copy()
    ordered = np.sort(values)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Element-wise membership of ``values`` in an already-sorted ``table``.

    Equals ``np.isin(values, table)`` whenever ``table`` is sorted
    ascending (duplicates allowed) — pinned by a property test in
    ``tests/analysis/test_arrays.py`` — but skips ``np.isin``'s internal
    sort of the table, which dominates on the partition loop's
    thousands of shrinking membership queries.
    """
    values = np.asarray(values)
    table = np.asarray(table)
    if table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    indices = np.searchsorted(table, values)
    np.minimum(indices, table.size - 1, out=indices)
    return table[indices] == values
