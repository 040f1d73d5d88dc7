"""Tests for Algorithm 1 (physical-address selection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bits import mask_of_bits
from repro.core.selection import select_addresses
from repro.dram.errors import SelectionError
from repro.dram.presets import preset
from repro.machine.allocator import PAGE_SHIFT, PAGE_SIZE, PhysPages
from repro.machine.machine import SimulatedMachine
from repro.memctrl.timing import NoiseParams

# Coarse bank-bit sets per machine, derived from Table II (bits feeding any
# bank function).
BANK_BITS = {
    "No.1": (6, 14, 15, 16, 17, 18, 19),
    "No.2": (7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21),
    "No.4": (13, 14, 15, 16, 17, 18),
    "No.6": (7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22),
    "No.8": (6, 13, 14, 15, 16, 17, 18, 19),
}

# Unique pool sizes: 2^(#bank bits); paper quotes ~16,000 for No.6/No.9.
EXPECTED_POOL = {
    "No.1": 128,
    "No.2": 8192,
    "No.4": 64,
    "No.6": 16384,
    "No.8": 256,
}


def pages_for(name, fraction=0.85, strategy="contiguous", seed=0):
    machine = SimulatedMachine.from_preset(
        preset(name), seed=seed, noise=NoiseParams.noiseless()
    )
    return machine.allocate(int(machine.total_bytes * fraction), strategy)


@pytest.mark.parametrize("name", sorted(BANK_BITS))
def test_pool_sizes(name):
    selection = select_addresses(pages_for(name), BANK_BITS[name])
    assert len(selection) == EXPECTED_POOL[name]


def test_no6_raw_count_matches_paper():
    """Paper Section IV-B: No.6 selects the highest number of addresses,
    'almost 16,000' — our unique pool is exactly 2^14 = 16384."""
    selection = select_addresses(pages_for("No.6"), BANK_BITS["No.6"])
    assert len(selection) == 16384
    assert selection.raw_count >= len(selection)


def test_pool_covers_all_bank_bit_patterns():
    """The selected pool must realise every combination of the bank bits —
    the property Algorithm 1 exists to guarantee."""
    bank_bits = BANK_BITS["No.1"]
    selection = select_addresses(pages_for("No.1"), bank_bits)
    patterns = set()
    for address in selection.pool:
        pattern = 0
        for index, position in enumerate(bank_bits):
            pattern |= ((int(address) >> position) & 1) << index
        patterns.add(pattern)
    assert len(patterns) == 2 ** len(bank_bits)


def test_pool_constant_outside_bank_bits():
    """Selected addresses differ only in bank bits."""
    bank_bits = BANK_BITS["No.8"]
    selection = select_addresses(pages_for("No.8"), bank_bits)
    variable = mask_of_bits(bank_bits)
    reference = int(selection.pool[0]) & ~variable
    for address in selection.pool[::7]:
        assert int(address) & ~variable == reference


def test_miss_mask_bits_forced_high():
    selection = select_addresses(pages_for("No.1"), BANK_BITS["No.1"])
    assert selection.miss_mask == mask_of_bits(range(7, 14))
    for address in selection.pool[::13]:
        assert int(address) & selection.miss_mask == selection.miss_mask


def test_all_pool_addresses_allocated():
    pages = pages_for("No.2")
    selection = select_addresses(pages, BANK_BITS["No.2"])
    assert pages.has_pages(selection.pool).all()


def test_fragmented_allocation_still_selects():
    """Algorithm 1's retry-over-pages path: fragmented memory has holes but
    a large allocation still contains a covering range."""
    pages = pages_for("No.4", fraction=0.7, strategy="fragmented")
    selection = select_addresses(pages, BANK_BITS["No.4"])
    assert len(selection) > 0
    assert pages.has_pages(selection.pool).all()


def test_too_small_buffer_raises():
    machine = SimulatedMachine.from_preset(
        preset("No.6"), noise=NoiseParams.noiseless()
    )
    pages = machine.allocate(1 << 21, "contiguous")  # 2 MiB < needed 8 MiB
    with pytest.raises(SelectionError, match="covers bank bits"):
        select_addresses(pages, BANK_BITS["No.6"])


def test_empty_bank_bits_raises():
    with pytest.raises(SelectionError, match="no candidate"):
        select_addresses(pages_for("No.1"), ())


def test_range_geometry():
    selection = select_addresses(pages_for("No.1"), BANK_BITS["No.1"])
    assert selection.range_end - selection.range_start == (
        (selection.range_mask & ~0xFFF) + 4096
    )
    assert selection.range_mask == (1 << 20) - (1 << 6)


def frame_scan_range(pages, bank_bits):
    """Reference page search: scan every allocated frame ``f`` in order for
    the first with ``f & m == m`` whose frames ``[f - m, f]`` are all
    allocated; return ``(range_start, range_end)``, or None."""
    b_min, b_max = min(bank_bits), max(bank_bits)
    condition_mask = ((1 << (b_max + 1)) - (1 << b_min)) & ~(PAGE_SIZE - 1)
    span = condition_mask >> PAGE_SHIFT
    frames = pages.page_numbers
    for frame in frames[(frames & np.uint64(span)) == np.uint64(span)].tolist():
        # frames are sorted and unique: [f - m, f] is allocated iff the frame
        # m places after f - m is f itself.
        first = int(np.searchsorted(frames, np.uint64(max(frame - span, 0))))
        last = first + span
        if last < frames.size and frames[first] == frame - span and frames[last] == frame:
            candidate = frame << PAGE_SHIFT
            return candidate - condition_mask, candidate + PAGE_SIZE
    return None


def selected_range(pages, bank_bits):
    try:
        selection = select_addresses(pages, bank_bits)
    except SelectionError:
        return None
    return selection.range_start, selection.range_end


@pytest.mark.parametrize("strategy", ["fragmented", "hugepages", "sparse"])
@pytest.mark.parametrize(
    "bank_bits", [BANK_BITS["No.4"], BANK_BITS["No.1"], (6, 12, 13), (7, 13, 14, 15), (12, 17)]
)
def test_page_search_matches_frame_scan(strategy, bank_bits):
    for seed in range(3):
        pages = pages_for("No.4", fraction=0.5, strategy=strategy, seed=seed)
        expected = frame_scan_range(pages, bank_bits)
        assert selected_range(pages, bank_bits) == expected
        if strategy != "sparse":
            assert expected is not None


@given(
    st.lists(st.tuples(st.integers(0, 4095), st.integers(1, 300)), min_size=1, max_size=10),
    st.sets(st.integers(6, 22), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_page_search_matches_frame_scan_on_random_runs(runs, bank_bits):
    total = 4096 * PAGE_SIZE
    frames = [frame for start, length in runs for frame in range(start, min(start + length, 4096))]
    pages = PhysPages.from_frames(np.array(frames, dtype=np.uint64), total)
    bank_bits = tuple(sorted(bank_bits))
    assert selected_range(pages, bank_bits) == frame_scan_range(pages, bank_bits)
