"""Simulated OS physical-page allocation.

Reverse-engineering tools work on whatever physical pages the OS hands
them. The paper's Algorithm 1 explicitly copes with *missing* pages
(``page_miss`` / retry): a userspace buffer is virtually contiguous but its
physical pages can be scattered. We model three allocation behaviours:

* ``contiguous``  — one physically contiguous block (what a 1 GiB hugepage
  or a boot-time reservation gives you); the easy case.
* ``fragmented``  — buddy-allocator style: high-order blocks mixed with
  scattered 4 KiB pages and holes; exercises Algorithm 1's retry path.
* ``sparse``      — uniformly random pages covering a fraction of memory;
  what DRAMA's unprivileged allocation looks like on a loaded machine.

A :class:`PhysPages` result stores the allocation as sorted, disjoint runs
of consecutive frames, so a contiguous block costs O(1) whatever its size
and a membership query is one binary search over the run starts, O(log
runs), because Algorithm 1 probes millions of candidate addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.errors import AllocationError

__all__ = ["PAGE_SIZE", "PAGE_SHIFT", "PhysPages", "PageAllocator"]

PAGE_SIZE = 4096
PAGE_SHIFT = 12


@dataclass(frozen=True, eq=False)
class PhysPages:
    """A set of allocated physical pages, as maximal runs of frames.

    A frame is ``addr >> PAGE_SHIFT``; run ``i`` holds the frames
    ``[starts[i], ends[i])``. The constructor accepts runs in any order,
    overlapping or touching, and merges them, so that no two stored runs
    are adjacent: a range query across a seam between two runs would
    otherwise answer wrongly. Frame arrays come in through
    :meth:`from_frames`.

    Queries convert every scalar to ``np.uint64`` before it meets the
    uint64 run arrays: NumPy 2 promotes a Python int against uint64 to
    float64, which would copy the whole array on every call.

    Attributes:
        starts: first frame of each run, ascending (uint64).
        ends: one past the last frame of each run (uint64).
        total_bytes: size of the machine's physical memory (for bounds).
    """

    starts: np.ndarray
    ends: np.ndarray
    total_bytes: int
    #: Number of frames in the runs before each run (int64).
    _first_index: np.ndarray = field(init=False, repr=False)
    _frame_count: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.uint64)
        ends = np.asarray(self.ends, dtype=np.uint64)
        if starts.shape != ends.shape:
            raise AllocationError("runs need as many starts as ends")
        nonempty = ends > starts
        starts, ends = starts[nonempty], ends[nonempty]
        if starts.size > 1:
            order = np.argsort(starts)
            starts, reach = starts[order], np.maximum.accumulate(ends[order])
            # A run opens a new maximal run only past the reach of every
            # earlier one: touching runs (start == reach) merge.
            opens = np.flatnonzero(starts[1:] > reach[:-1]) + 1
            starts = starts[np.concatenate(([0], opens))]
            ends = reach[np.concatenate((opens, [reach.size])) - 1]
        lengths = (ends - starts).astype(np.int64)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "_first_index", np.cumsum(lengths) - lengths)
        object.__setattr__(self, "_frame_count", int(lengths.sum()))

    @classmethod
    def from_frames(cls, frames: np.ndarray, total_bytes: int) -> "PhysPages":
        """The page set holding ``frames``, in any order, repeats allowed."""
        frames = np.asarray(frames, dtype=np.uint64)
        return cls(starts=frames, ends=frames + np.uint64(1), total_bytes=total_bytes)

    __hash__ = None  # the run arrays are mutable

    def __eq__(self, other: object) -> bool:
        """The same runs of the same memory (compared by value)."""
        if not isinstance(other, PhysPages):
            return NotImplemented
        return (
            self.total_bytes == other.total_bytes
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.ends, other.ends)
        )

    def __len__(self) -> int:
        return self._frame_count

    @property
    def byte_count(self) -> int:
        """Total bytes covered by the allocated pages."""
        return len(self) * PAGE_SIZE

    @property
    def page_numbers(self) -> np.ndarray:
        """Every allocated frame, ascending; built on demand in O(frames)."""
        return self._frames_at(np.arange(len(self), dtype=np.int64))

    def _frames_at(self, indices: np.ndarray) -> np.ndarray:
        """The frames at positions ``indices`` of the ascending frame list."""
        runs = np.searchsorted(self._first_index, indices, side="right") - 1
        return self.starts[runs] + (indices - self._first_index[runs]).astype(np.uint64)

    def _run_of(self, frame: int) -> int:
        """Index of the last run starting at or below ``frame``, or -1."""
        return int(np.searchsorted(self.starts, np.uint64(frame), side="right")) - 1

    def has_page(self, phys_addr: int) -> bool:
        """True when the page containing ``phys_addr`` is allocated."""
        if not 0 <= phys_addr < self.total_bytes:
            return False
        frame = phys_addr >> PAGE_SHIFT
        run = self._run_of(frame)
        return run >= 0 and frame < int(self.ends[run])

    def has_pages(self, phys_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_page` (binary search on the run starts)."""
        frames = np.asarray(phys_addrs, dtype=np.uint64) >> np.uint64(PAGE_SHIFT)
        if self.starts.size == 0:
            return np.zeros(frames.shape, dtype=bool)
        runs = np.searchsorted(self.starts, frames, side="right") - 1
        return (runs >= 0) & (frames < self.ends[runs])

    def has_range(self, start: int, end: int) -> bool:
        """True when every page of [start, end) is allocated — Algorithm 1's
        ``!page_miss(phys_pages, P_start, P_end)`` check. An empty range, or
        one reaching outside physical memory, answers False."""
        if not 0 <= start < end <= self.total_bytes:
            return False
        run = self._run_of(start >> PAGE_SHIFT)
        return run >= 0 and (end - 1) >> PAGE_SHIFT < int(self.ends[run])

    def addresses(self) -> np.ndarray:
        """Base physical address of every allocated page."""
        return self.page_numbers << np.uint64(PAGE_SHIFT)

    def sample_addresses(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Random addresses inside allocated pages (cache-line aligned), the
        raw material of DRAMA-style random pools.

        The page draw is ``rng.integers(0, len(self), count)``, the stream
        ``rng.choice`` over the frame array would draw.
        """
        if count <= 0:
            raise AllocationError("sample count must be positive")
        frames = self._frames_at(rng.integers(0, len(self), size=count))
        line_offsets = rng.integers(0, PAGE_SIZE // 64, size=count, dtype=np.uint64)
        return (frames << np.uint64(PAGE_SHIFT)) | (line_offsets << np.uint64(6))


@dataclass(frozen=True)
class PageAllocator:
    """Simulated OS allocator over ``total_bytes`` of physical memory.

    Attributes:
        total_bytes: physical memory size.
        reserved_low_bytes: memory below this is kernel/firmware reserved
            and never handed to userspace (models the real low-memory
            holes).
    """

    total_bytes: int
    reserved_low_bytes: int = 1 << 24  # 16 MiB

    def __post_init__(self) -> None:
        if self.total_bytes <= 0 or self.total_bytes % PAGE_SIZE:
            raise AllocationError("total_bytes must be a positive page multiple")
        if not 0 <= self.reserved_low_bytes < self.total_bytes:
            raise AllocationError("reserved_low_bytes out of range")

    @property
    def _frame_range(self) -> tuple[int, int]:
        return self.reserved_low_bytes >> PAGE_SHIFT, self.total_bytes >> PAGE_SHIFT

    def _check_request(self, request_bytes: int) -> int:
        if request_bytes <= 0:
            raise AllocationError("allocation size must be positive")
        frames = (request_bytes + PAGE_SIZE - 1) >> PAGE_SHIFT
        low, high = self._frame_range
        if frames > high - low:
            raise AllocationError(
                f"cannot allocate {request_bytes} bytes from "
                f"{(high - low) * PAGE_SIZE} available"
            )
        return frames

    def allocate_contiguous(
        self, request_bytes: int, rng: np.random.Generator
    ) -> PhysPages:
        """One physically contiguous block at a random aligned position."""
        frames = self._check_request(request_bytes)
        low, high = self._frame_range
        start = int(rng.integers(low, high - frames + 1))
        return PhysPages(starts=[start], ends=[start + frames], total_bytes=self.total_bytes)

    def allocate_fragmented(
        self,
        request_bytes: int,
        rng: np.random.Generator,
        max_order: int = 10,
        hole_fraction: float = 0.03,
    ) -> PhysPages:
        """Buddy-style allocation: random high-order blocks plus holes.

        ``max_order`` caps block size at ``2**max_order`` pages (order 10 =
        4 MiB, the Linux buddy maximum). ``hole_fraction`` of the pages
        inside chosen blocks are withheld, modelling pages the OS kept.
        Blocks may overlap; the result is their union.
        """
        frames_needed = self._check_request(request_bytes)
        low, high = self._frame_range
        block_starts: list[int] = []
        block_offsets: list[int] = []  # where each block begins in ``flags``
        # Each block's keep mask, then one False so no run crosses a block edge.
        flags: list[np.ndarray] = []
        block_edge = np.zeros(1, dtype=bool)
        position = 0
        collected = 0
        attempts = 0
        while collected < frames_needed:
            attempts += 1
            if attempts > 10_000:
                raise AllocationError("fragmented allocation did not converge")
            order = int(rng.integers(max_order // 2, max_order + 1))
            size = 1 << order
            start = int(rng.integers(low, max(low + 1, high - size)))
            start &= ~(size - 1)  # buddy blocks are order-aligned
            if start < low:
                continue
            frames = min(start + size, high) - start
            if hole_fraction > 0:
                keep = rng.random(frames) >= hole_fraction
            else:
                keep = np.ones(frames, dtype=bool)
            block_starts.append(start)
            block_offsets.append(position)
            position += frames + 1
            flags.extend((keep, block_edge))
            collected += int(np.count_nonzero(keep))
        # Kept runs of every block in one pass: each flip of the flags opens
        # or closes a run, and a position maps to its frame through its block.
        flips = np.flatnonzero(np.diff(np.concatenate(flags), prepend=False))
        run_first, run_stop = flips[0::2], flips[1::2]
        offsets = np.asarray(block_offsets, dtype=np.int64)
        block = np.searchsorted(offsets, run_first, side="right") - 1
        shift = np.asarray(block_starts, dtype=np.int64)[block] - offsets[block]
        return PhysPages(
            starts=run_first + shift, ends=run_stop + shift, total_bytes=self.total_bytes
        )

    def allocate_sparse(
        self, request_bytes: int, rng: np.random.Generator
    ) -> PhysPages:
        """Uniformly random pages, no contiguity guarantee at all."""
        frames_needed = self._check_request(request_bytes)
        low, high = self._frame_range
        # Draws what rng.choice over np.arange(low, high) would draw.
        offsets = rng.choice(high - low, size=min(frames_needed, high - low), replace=False)
        return PhysPages.from_frames(offsets + low, total_bytes=self.total_bytes)

    def allocate_hugepages(
        self, request_bytes: int, rng: np.random.Generator, huge_bytes: int = 1 << 21
    ) -> PhysPages:
        """2 MiB-hugepage-backed allocation: contiguous huge_bytes blocks at
        random aligned positions (how rowhammer attacks usually allocate)."""
        frames_needed = self._check_request(request_bytes)
        frames_per_huge = huge_bytes >> PAGE_SHIFT
        low, high = self._frame_range
        used_starts: set[int] = set()
        attempts = 0
        while len(used_starts) * frames_per_huge < frames_needed:
            attempts += 1
            if attempts > 10_000:
                raise AllocationError("hugepage allocation did not converge")
            start = int(rng.integers(low, high - frames_per_huge + 1))
            start &= ~(frames_per_huge - 1)
            if start < low or start in used_starts:
                continue
            used_starts.add(start)
        block_starts = np.fromiter(used_starts, dtype=np.uint64, count=len(used_starts))
        return PhysPages(
            starts=block_starts,
            ends=block_starts + np.uint64(frames_per_huge),
            total_bytes=self.total_bytes,
        )
