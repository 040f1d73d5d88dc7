"""Unit and property tests for the simulated page allocator.

The page set stores frame runs. The frame-array page set and allocators it
replaced are kept below as references, and the run form must answer every
query, and draw every random number, exactly as they do.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.errors import AllocationError
from repro.machine.allocator import PAGE_SHIFT, PAGE_SIZE, PageAllocator, PhysPages

MIB = 2**20
GIB = 2**30


@pytest.fixture
def allocator():
    return PageAllocator(total_bytes=1 * GIB)


# ------------------------------------------------------------- references


@dataclass(frozen=True)
class FramePages:
    """Reference page set: one sorted unique uint64 per allocated frame."""

    page_numbers: np.ndarray
    total_bytes: int

    def __len__(self) -> int:
        return int(self.page_numbers.size)

    def has_page(self, phys_addr: int) -> bool:
        frame = phys_addr >> PAGE_SHIFT
        index = int(np.searchsorted(self.page_numbers, frame))
        return index < self.page_numbers.size and int(self.page_numbers[index]) == frame

    def has_pages(self, phys_addrs: np.ndarray) -> np.ndarray:
        frames = np.asarray(phys_addrs, dtype=np.uint64) >> np.uint64(PAGE_SHIFT)
        if self.page_numbers.size == 0:
            return np.zeros(frames.shape, dtype=bool)
        indices = np.minimum(np.searchsorted(self.page_numbers, frames), self.page_numbers.size - 1)
        return self.page_numbers[indices] == frames

    def has_range(self, start: int, end: int) -> bool:
        first = start >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT
        index = int(np.searchsorted(self.page_numbers, first))
        count = last - first + 1
        if index + count > self.page_numbers.size:
            return False
        window = self.page_numbers[index : index + count]
        return bool(window.size == count and window[0] == first and window[-1] == last)

    def sample_addresses(self, count: int, rng: np.random.Generator) -> np.ndarray:
        frames = rng.choice(self.page_numbers, size=count, replace=True)
        line_offsets = rng.integers(0, PAGE_SIZE // 64, size=count, dtype=np.uint64)
        return (frames << np.uint64(PAGE_SHIFT)) | (line_offsets << np.uint64(6))


def reference_contiguous(allocator, request_bytes, rng):
    frames = allocator._check_request(request_bytes)
    low, high = allocator._frame_range
    start = int(rng.integers(low, high - frames + 1))
    return np.arange(start, start + frames, dtype=np.uint64)


def reference_fragmented(allocator, request_bytes, rng, max_order=10, hole_fraction=0.03):
    frames_needed = allocator._check_request(request_bytes)
    low, high = allocator._frame_range
    chunks = []
    collected = 0
    while collected < frames_needed:
        order = int(rng.integers(max_order // 2, max_order + 1))
        size = 1 << order
        start = int(rng.integers(low, max(low + 1, high - size)))
        start &= ~(size - 1)
        if start < low:
            continue
        block = np.arange(start, min(start + size, high), dtype=np.uint64)
        if hole_fraction > 0:
            block = block[rng.random(block.size) >= hole_fraction]
        chunks.append(block)
        collected += block.size
    return np.unique(np.concatenate(chunks))


def reference_sparse(allocator, request_bytes, rng):
    frames_needed = allocator._check_request(request_bytes)
    low, high = allocator._frame_range
    pages = rng.choice(
        np.arange(low, high, dtype=np.uint64), size=min(frames_needed, high - low), replace=False
    )
    return np.sort(pages)


def reference_hugepages(allocator, request_bytes, rng, huge_bytes=1 << 21):
    frames_needed = allocator._check_request(request_bytes)
    frames_per_huge = huge_bytes >> PAGE_SHIFT
    low, high = allocator._frame_range
    chunks = []
    used_starts = set()
    collected = 0
    while collected < frames_needed:
        start = int(rng.integers(low, high - frames_per_huge + 1))
        start &= ~(frames_per_huge - 1)
        if start < low or start in used_starts:
            continue
        used_starts.add(start)
        chunks.append(np.arange(start, start + frames_per_huge, dtype=np.uint64))
        collected += frames_per_huge
    return np.unique(np.concatenate(chunks))


class TestPhysPages:
    def test_dedup_and_sort(self):
        pages = PhysPages.from_frames(np.array([5, 3, 5], dtype=np.uint64), total_bytes=GIB)
        np.testing.assert_array_equal(pages.page_numbers, [3, 5])
        assert len(pages) == 2
        assert pages.byte_count == 2 * PAGE_SIZE

    def test_has_page(self):
        pages = PhysPages.from_frames(np.array([3], dtype=np.uint64), total_bytes=GIB)
        assert pages.has_page(3 * PAGE_SIZE)
        assert pages.has_page(3 * PAGE_SIZE + 100)
        assert not pages.has_page(4 * PAGE_SIZE)

    def test_has_pages_vectorized(self):
        pages = PhysPages.from_frames(np.array([3, 7], dtype=np.uint64), total_bytes=GIB)
        addrs = np.array([3 * PAGE_SIZE, 5 * PAGE_SIZE, 7 * PAGE_SIZE + 64], dtype=np.uint64)
        np.testing.assert_array_equal(pages.has_pages(addrs), [True, False, True])

    def test_has_range_contiguous(self):
        pages = PhysPages.from_frames(np.arange(10, 20, dtype=np.uint64), total_bytes=GIB)
        assert pages.has_range(10 * PAGE_SIZE, 20 * PAGE_SIZE)
        assert pages.has_range(12 * PAGE_SIZE, 13 * PAGE_SIZE)
        assert not pages.has_range(9 * PAGE_SIZE, 11 * PAGE_SIZE)
        assert not pages.has_range(19 * PAGE_SIZE, 21 * PAGE_SIZE)

    def test_has_range_with_hole(self):
        frames = np.array([10, 11, 13, 14], dtype=np.uint64)  # 12 missing
        pages = PhysPages.from_frames(frames, total_bytes=GIB)
        assert not pages.has_range(10 * PAGE_SIZE, 15 * PAGE_SIZE)
        assert pages.has_range(13 * PAGE_SIZE, 15 * PAGE_SIZE)

    def test_sample_addresses_inside_pages(self):
        pages = PhysPages.from_frames(np.arange(100, 164, dtype=np.uint64), total_bytes=GIB)
        rng = np.random.default_rng(0)
        addrs = pages.sample_addresses(500, rng)
        assert pages.has_pages(addrs).all()
        assert (addrs % 64 == 0).all(), "samples must be cache-line aligned"

    def test_sample_count_validation(self):
        pages = PhysPages.from_frames(np.array([1], dtype=np.uint64), total_bytes=GIB)
        with pytest.raises(AllocationError):
            pages.sample_addresses(0, np.random.default_rng(0))

    def test_touching_and_overlapping_runs_merge(self):
        pages = PhysPages(starts=[20, 10, 12, 30], ends=[30, 15, 14, 31], total_bytes=GIB)
        np.testing.assert_array_equal(pages.starts, [10, 20])
        np.testing.assert_array_equal(pages.ends, [15, 31])
        assert pages.has_range(25 * PAGE_SIZE, 31 * PAGE_SIZE), "no seam at frame 30"
        assert len(pages) == 16

    def test_out_of_memory_addresses_answer_false(self):
        frames = GIB // PAGE_SIZE
        pages = PhysPages(starts=[0], ends=[frames], total_bytes=GIB)
        for address in (-1, -PAGE_SIZE, GIB, GIB + PAGE_SIZE, 2**64, 2**80):
            assert not pages.has_page(address), address
        assert not pages.has_range(-PAGE_SIZE, PAGE_SIZE)
        assert not pages.has_range(GIB - PAGE_SIZE, GIB + PAGE_SIZE)
        assert not pages.has_range(0, 2**80)
        assert pages.has_range(0, GIB)
        assert not pages.has_pages(np.array([GIB, 2**63], dtype=np.uint64)).any()

    def test_equal_runs_compare_equal_in_any_order(self):
        pages = PhysPages(starts=[40, 10, 20], ends=[41, 15, 30], total_bytes=GIB)
        same = PhysPages(starts=[20, 40, 10, 12], ends=[30, 41, 13, 15], total_bytes=GIB)
        assert pages == same
        assert not pages != same
        assert pages == PhysPages.from_frames(pages.page_numbers, total_bytes=GIB)

    def test_different_runs_or_memory_compare_unequal(self):
        pages = PhysPages(starts=[10, 20], ends=[15, 30], total_bytes=GIB)
        assert pages != PhysPages(starts=[10, 20], ends=[15, 31], total_bytes=GIB)
        assert pages != PhysPages(starts=[10], ends=[15], total_bytes=GIB)
        assert pages != PhysPages(starts=[10, 20], ends=[15, 30], total_bytes=2 * GIB)

    def test_other_types_compare_unequal(self):
        pages = PhysPages(starts=[10, 20], ends=[15, 30], total_bytes=GIB)
        assert pages != "pages"
        assert not pages == None  # noqa: E711 - the operand under test
        assert pages.__eq__(pages.page_numbers) is NotImplemented

    def test_page_sets_are_unhashable(self):
        pages = PhysPages(starts=[10, 20], ends=[15, 30], total_bytes=GIB)
        with pytest.raises(TypeError, match="unhashable type: 'PhysPages'"):
            hash(pages)


_FRAME_LIMIT = 2048
_TOTAL = _FRAME_LIMIT * PAGE_SIZE

frame_sets = st.one_of(
    st.lists(st.integers(0, _FRAME_LIMIT - 1), max_size=80),
    st.lists(
        st.tuples(st.integers(0, _FRAME_LIMIT - 1), st.integers(1, 64)), max_size=12
    ).map(
        lambda runs: [frame for start, length in runs
                      for frame in range(start, min(start + length, _FRAME_LIMIT))]
    ),
)


@given(frame_sets, st.lists(st.integers(-2 * PAGE_SIZE, _TOTAL + 2 * PAGE_SIZE), max_size=40),
       st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_runs_answer_like_frame_array(frames, probes, seed):
    reference = FramePages(np.unique(np.array(frames, dtype=np.uint64)), _TOTAL)
    pages = PhysPages.from_frames(np.array(frames, dtype=np.uint64), _TOTAL)
    assert len(pages) == len(reference)
    np.testing.assert_array_equal(pages.page_numbers, reference.page_numbers)
    assert pages.page_numbers.dtype == np.uint64
    assert (pages.starts[1:] > pages.ends[:-1]).all(), "runs are maximal"
    edges = [int(frame) * PAGE_SIZE + offset for frame in reference.page_numbers[:20]
             for offset in (-PAGE_SIZE, 0, PAGE_SIZE - 1, PAGE_SIZE)]
    for address in probes + edges:
        assert pages.has_page(address) == reference.has_page(address), address
    addresses = np.array([a for a in probes + edges if a >= 0], dtype=np.uint64)
    np.testing.assert_array_equal(pages.has_pages(addresses), reference.has_pages(addresses))
    for start in probes + edges:
        for end in probes + edges:
            if end > start:
                assert pages.has_range(start, end) == reference.has_range(start, end), (start, end)
    if len(reference):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            pages.sample_addresses(97, ours), reference.sample_addresses(97, theirs)
        )
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "strategy, request_bytes, options",
    [
        ("contiguous", 1, {}),
        ("contiguous", 16 * MIB, {}),
        ("contiguous", int(0.85 * GIB), {}),
        ("fragmented", 4 * MIB, {}),
        ("fragmented", 96 * MIB, {}),
        ("fragmented", 32 * MIB, {"hole_fraction": 0.0}),
        ("fragmented", 32 * MIB, {"hole_fraction": 0.5, "max_order": 6}),
        ("sparse", 4 * MIB, {}),
        ("sparse", 96 * MIB, {}),
        ("hugepages", 2 * MIB, {}),
        ("hugepages", 256 * MIB, {}),
    ],
)
def test_allocators_match_reference(allocator, strategy, request_bytes, options, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    pages = getattr(allocator, f"allocate_{strategy}")(request_bytes, ours, **options)
    expected = globals()[f"reference_{strategy}"](allocator, request_bytes, theirs, **options)
    np.testing.assert_array_equal(pages.page_numbers, expected)
    assert ours.integers(2**62) == theirs.integers(2**62), "next draw differs"


class TestContiguous:
    def test_exact_frames(self, allocator):
        pages = allocator.allocate_contiguous(16 * MIB, np.random.default_rng(1))
        assert len(pages) == 16 * MIB // PAGE_SIZE
        frames = pages.page_numbers
        assert (np.diff(frames) == 1).all()

    def test_range_is_fully_allocated(self, allocator):
        pages = allocator.allocate_contiguous(MIB, np.random.default_rng(2))
        start = int(pages.page_numbers[0]) * PAGE_SIZE
        assert pages.has_range(start, start + MIB)

    def test_avoids_reserved_low_memory(self, allocator):
        for seed in range(5):
            pages = allocator.allocate_contiguous(MIB, np.random.default_rng(seed))
            assert int(pages.page_numbers[0]) * PAGE_SIZE >= allocator.reserved_low_bytes

    def test_rejects_oversized(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate_contiguous(2 * GIB, np.random.default_rng(0))

    def test_rejects_zero(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate_contiguous(0, np.random.default_rng(0))


class TestFragmented:
    def test_requested_amount_collected(self, allocator):
        request = 32 * MIB
        pages = allocator.allocate_fragmented(request, np.random.default_rng(3))
        assert pages.byte_count >= request

    def test_has_holes(self, allocator):
        pages = allocator.allocate_fragmented(
            64 * MIB, np.random.default_rng(4), hole_fraction=0.05
        )
        frames = pages.page_numbers
        assert (np.diff(frames) > 1).any(), "fragmented allocation should have gaps"

    def test_zero_hole_fraction_gives_whole_blocks(self, allocator):
        pages = allocator.allocate_fragmented(
            8 * MIB, np.random.default_rng(5), hole_fraction=0.0
        )
        assert pages.byte_count >= 8 * MIB


class TestSparse:
    def test_scattered(self, allocator):
        pages = allocator.allocate_sparse(4 * MIB, np.random.default_rng(6))
        frames = pages.page_numbers
        assert (np.diff(frames) > 1).mean() > 0.9

    def test_unique(self, allocator):
        pages = allocator.allocate_sparse(4 * MIB, np.random.default_rng(7))
        assert len(np.unique(pages.page_numbers)) == len(pages)


class TestHugepages:
    def test_aligned_blocks(self, allocator):
        huge_frames = (2 * MIB) // PAGE_SIZE
        pages = allocator.allocate_hugepages(8 * MIB, np.random.default_rng(8))
        starts = pages.page_numbers[:: huge_frames]
        assert (starts % huge_frames == 0).all()

    def test_each_block_contiguous(self, allocator):
        pages = allocator.allocate_hugepages(4 * MIB, np.random.default_rng(9))
        frames = pages.page_numbers
        huge_frames = (2 * MIB) // PAGE_SIZE
        for i in range(0, len(frames), huge_frames):
            block = frames[i : i + huge_frames]
            assert (np.diff(block) == 1).all()


class TestValidation:
    def test_bad_total(self):
        with pytest.raises(AllocationError):
            PageAllocator(total_bytes=1000)

    def test_bad_reserved(self):
        with pytest.raises(AllocationError):
            PageAllocator(total_bytes=GIB, reserved_low_bytes=2 * GIB)


@given(st.integers(min_value=1, max_value=GIB - (1 << 24)), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_contiguous_is_one_run(request_bytes, seed):
    allocator = PageAllocator(total_bytes=GIB)
    pages = allocator.allocate_contiguous(request_bytes, np.random.default_rng(seed))
    assert pages.starts.size == pages.ends.size == 1
    assert len(pages) == -(-request_bytes // PAGE_SIZE)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_contiguous_property(mib, seed):
    allocator = PageAllocator(total_bytes=GIB)
    pages = allocator.allocate_contiguous(mib * MIB, np.random.default_rng(seed))
    frames = pages.page_numbers
    assert len(frames) == mib * MIB // PAGE_SIZE
    assert (np.diff(frames) == 1).all()
    assert int(frames[-1]) < GIB // PAGE_SIZE
