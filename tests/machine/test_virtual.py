"""Tests for the virtual-memory layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.errors import AllocationError
from repro.machine.allocator import PAGE_SIZE, PhysPages
from repro.machine.machine import SimulatedMachine
from repro.machine.virtual import PAGEMAP_ENTRY_NS, VirtualBuffer
from repro.dram.presets import preset

GIB = 2**30


@pytest.fixture
def buffer_and_pages():
    machine = SimulatedMachine.from_preset(preset("No.1"), seed=0)
    pages = machine.allocate(1 << 24, "fragmented")
    buffer = VirtualBuffer.from_phys_pages(pages, np.random.default_rng(0))
    return machine, pages, buffer


class TestConstruction:
    def test_from_phys_pages_covers_all(self, buffer_and_pages):
        _, pages, buffer = buffer_and_pages
        assert buffer.size_bytes == pages.byte_count
        assert set(int(f) for f in buffer.frames) == set(
            int(f) for f in pages.page_numbers
        )

    def test_shuffled_relative_to_physical(self, buffer_and_pages):
        _, pages, buffer = buffer_and_pages
        assert not np.array_equal(buffer.frames, pages.page_numbers)

    def test_unaligned_base_rejected(self):
        with pytest.raises(AllocationError):
            VirtualBuffer(va_base=100, frames=np.array([1], dtype=np.uint64),
                          total_bytes=GIB)

    def test_empty_rejected(self):
        with pytest.raises(AllocationError):
            VirtualBuffer(va_base=0, frames=np.array([], dtype=np.uint64),
                          total_bytes=GIB)


class TestTranslation:
    def test_offset_preserved(self, buffer_and_pages):
        _, _, buffer = buffer_and_pages
        virtual = buffer.va_base + 5 * PAGE_SIZE + 123
        physical = buffer.translate(virtual)
        assert physical & (PAGE_SIZE - 1) == 123
        assert physical >> 12 == int(buffer.frames[5])

    def test_out_of_range(self, buffer_and_pages):
        _, _, buffer = buffer_and_pages
        with pytest.raises(AllocationError):
            buffer.translate(buffer.va_end)
        with pytest.raises(AllocationError):
            buffer.translate(buffer.va_base - 1)

    def test_batch_matches_scalar(self, buffer_and_pages):
        _, _, buffer = buffer_and_pages
        rng = np.random.default_rng(1)
        virtuals = buffer.va_base + rng.integers(0, buffer.size_bytes, 200)
        batch = buffer.translate_batch(virtuals.astype(np.uint64))
        for i in (0, 57, 199):
            assert int(batch[i]) == buffer.translate(int(virtuals[i]))

    def test_reverse_translate_roundtrip(self, buffer_and_pages):
        _, _, buffer = buffer_and_pages
        virtual = buffer.va_base + 7 * PAGE_SIZE + 42
        physical = buffer.translate(virtual)
        assert buffer.reverse_translate(physical) == virtual

    def test_reverse_translate_unmapped(self, buffer_and_pages):
        _, pages, buffer = buffer_and_pages
        unmapped_frame = int(pages.page_numbers[-1]) + 10_000
        assert buffer.reverse_translate(unmapped_frame << 12) is None

    @pytest.mark.parametrize("physical", [-PAGE_SIZE, 2**80])
    def test_reverse_translate_outside_memory_is_none(self, buffer_and_pages, physical):
        _, _, buffer = buffer_and_pages
        assert buffer.reverse_translate(physical) is None

    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=30, deadline=None)
    def test_translate_is_injective(self, offset):
        frames = np.arange(100, 356, dtype=np.uint64)
        buffer = VirtualBuffer(va_base=0x10000000, frames=frames, total_bytes=GIB)
        offset %= buffer.size_bytes
        physical = buffer.translate(buffer.va_base + offset)
        assert buffer.reverse_translate(physical) == buffer.va_base + offset


class TestPagemap:
    def test_scan_charges_clock(self, buffer_and_pages):
        machine, _, buffer = buffer_and_pages
        before = machine.clock.elapsed_ns
        frames = buffer.read_pagemap(machine)
        assert frames.size == buffer.frames.size
        assert machine.clock.elapsed_ns - before == pytest.approx(
            buffer.frames.size * PAGEMAP_ENTRY_NS
        )

    def test_phys_pages_view_usable_by_pipeline(self, buffer_and_pages):
        _, pages, buffer = buffer_and_pages
        view = buffer.phys_pages()
        assert isinstance(view, PhysPages)
        np.testing.assert_array_equal(view.page_numbers, pages.page_numbers)
