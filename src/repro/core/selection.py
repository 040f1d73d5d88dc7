"""Step 2, phase 1 — physical-address selection (paper Algorithm 1).

Given the candidate bank bits ``B`` from Step 1, select the smallest set of
allocated addresses whose ``B``-bit patterns cover every combination:

1. ``range_mask`` spans ``[b_min, b_max]``; find an allocated page ``p``
   with all range bits set whose whole covered range ``[p - range_mask,
   p + PAGE_SIZE)`` is allocated (retrying over pages on misses — the
   ``page_miss`` path of the paper).
2. ``miss_mask`` marks the in-range bits *not* in ``B``; ORing it into each
   candidate collapses addresses that differ only in irrelevant bits, "so
   that we only focus on the reasonable number of addresses that actually
   matter the address functions".
3. Walk the range in ``1 << b_min`` strides, force the miss bits, keep the
   addresses whose page is allocated.

Implementation note: the paper states the page-selection condition as
``(p & range_mask) == range_mask``, which cannot hold verbatim when
``b_min`` is below the page shift (page-aligned addresses have zero
sub-page bits — e.g. channel bit 6 on machines No.1/No.7/No.8). We apply
the condition to the page-visible part of the mask, which is what any
working implementation must do; sub-page strides are handled inside the
found range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.errors import SelectionError
from repro.analysis.arrays import sorted_unique
from repro.machine.allocator import PAGE_SHIFT, PAGE_SIZE, PhysPages

__all__ = ["SelectionResult", "select_addresses"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of Algorithm 1.

    Attributes:
        pool: unique selected physical addresses (``phys_pool``), sorted.
        raw_count: pool size before deduplicating miss-mask aliases — the
            count the paper quotes (~16,000 on No.6/No.9).
        range_start: ``P_start``.
        range_end: ``P_end``.
        range_mask: the ``[b_min, b_max]`` span mask.
        miss_mask: in-range bits irrelevant to bank functions (forced to 1).
    """

    pool: np.ndarray
    raw_count: int
    range_start: int
    range_end: int
    range_mask: int
    miss_mask: int

    def __len__(self) -> int:
        return int(self.pool.size)


def _smallest_superset(mask: int, floor: int) -> int:
    """The smallest ``x >= floor`` with ``x & mask == mask``.

    Past the highest bit of ``mask`` missing from ``floor``, set that bit,
    keep the bits above it and take the bits below it from ``mask``.
    """
    missing = mask & ~floor
    if not missing:
        return floor
    bit = 1 << (missing.bit_length() - 1)
    return (floor & ~(2 * bit - 1)) | bit | mask


def select_addresses(pages: PhysPages, bank_bits: tuple[int, ...]) -> SelectionResult:
    """Run Algorithm 1 over the allocated pages.

    Raises:
        SelectionError: when no allocated page range covers the bank bits.
    """
    if not bank_bits:
        raise SelectionError("no candidate bank bits to select over")
    b_min, b_max = min(bank_bits), max(bank_bits)
    if b_min < 0:
        raise SelectionError("bank bits must be non-negative")
    range_mask = (1 << (b_max + 1)) - (1 << b_min)
    miss_mask = 0
    for position in range(b_min, b_max + 1):
        if position not in bank_bits:
            miss_mask += 1 << position

    # Page-visible part of the range condition (see module docstring).
    condition_mask = range_mask & ~(PAGE_SIZE - 1)

    # Search in frame space: the condition mask is page-aligned, so a page
    # address satisfies it iff its frame satisfies the shifted mask ``m``.
    # The paper's scan takes the first allocated frame ``f`` (ascending)
    # with ``f & m == m`` whose frames ``[f - m, f]`` are all allocated; in
    # run ``[s, e)`` that is the smallest superset of ``m`` at or above
    # ``s + m``, when it lies below ``e``. Only runs longer than ``m`` can
    # hold one, and the first run that does holds the answer.
    condition_frames = condition_mask >> PAGE_SHIFT
    range_start = range_end = -1
    long_runs = np.flatnonzero(pages.ends - pages.starts > np.uint64(condition_frames))
    for run in long_runs.tolist():
        frame = _smallest_superset(condition_frames, int(pages.starts[run]) + condition_frames)
        if frame >= int(pages.ends[run]):
            continue
        candidate = frame << PAGE_SHIFT
        p_start = candidate - condition_mask
        p_end = candidate + PAGE_SIZE
        if pages.has_range(p_start, p_end):
            range_start, range_end = p_start, p_end
            break
    if range_start < 0:
        raise SelectionError(
            f"no allocated page range covers bank bits {sorted(bank_bits)} "
            f"(need {condition_mask + PAGE_SIZE:#x} contiguous bytes)"
        )

    stride = 1 << b_min
    walk = np.arange(range_start, range_end, stride, dtype=np.uint64)
    primed = walk | np.uint64(miss_mask)
    in_memory = primed < np.uint64(pages.total_bytes)
    primed = primed[in_memory]
    allocated = primed[pages.has_pages(primed)]
    raw_count = int(allocated.size)
    pool = sorted_unique(allocated)
    if pool.size == 0:
        raise SelectionError("selection produced an empty address pool")
    return SelectionResult(
        pool=pool,
        raw_count=raw_count,
        range_start=range_start,
        range_end=range_end,
        range_mask=range_mask,
        miss_mask=miss_mask,
    )
