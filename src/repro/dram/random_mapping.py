"""Random Intel-plausible address mappings, for fuzzing the tools.

The paper evaluates on nine hand-picked machines; a reproduction can do
better and *fuzz*: generate random mappings with the structural properties
every observed Intel layout shares, hide each behind a simulated machine,
and check that DRAMDig recovers it. The generator produces:

* columns at the bottom (13 bits for the standard 8 KiB rank page),
* rows at the top,
* bank functions of three Intel-observed shapes —
  (a) a bare channel bit (Sandy Bridge style),
  (b) two-bit rank/bank XORs pairing a mid bit with a shared row bit,
  (c) optionally one wide channel hash mixing shared column bits with
  shared row bits (Ivy Bridge+ dual-channel style),
* and the whole thing validated as a bijection.

Every mapping this module can emit is a legal
:class:`~repro.dram.mapping.AddressMapping`; the nine paper presets are
all within the generator's distribution.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bits import mask_of_bits
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import AddressMapping
from repro.dram.spec import DdrGeneration

__all__ = ["MIN_GIB", "random_geometry", "random_mapping", "naive_mapping"]

GIB = 2**30
# The smallest memory random_geometry draws.
MIN_GIB = 4


def random_geometry(rng: np.random.Generator) -> DramGeometry:
    """A random consumer-machine geometry (4-32 GiB, 1-2 channels)."""
    generation = rng.choice([DdrGeneration.DDR3, DdrGeneration.DDR4])
    channels = int(rng.choice([1, 2]))
    ranks = int(rng.choice([1, 2]))
    banks = 8 if generation is DdrGeneration.DDR3 else int(rng.choice([8, 16]))
    # Keep total banks <= 64 and memory plausible for the bank count.
    total_banks = channels * ranks * banks
    min_gib = max(MIN_GIB, total_banks // 4)
    gib = int(rng.choice([g for g in (MIN_GIB, 8, 16, 32) if g >= min_gib]))
    return DramGeometry(
        generation=generation,
        total_bytes=gib * GIB,
        channels=channels,
        dimms_per_channel=1,
        ranks_per_dimm=ranks,
        banks_per_rank=banks,
    )


def random_mapping(
    rng: np.random.Generator, geometry: DramGeometry | None = None
) -> AddressMapping:
    """A random valid mapping with Intel-shaped bank functions.

    The construction mirrors the observed layouts: the lowest bank-hash
    position starts just above the columns' midpoint, two-bit functions
    pair consecutive mid bits with consecutive low row bits, and a
    dual-channel machine gets either a bare channel bit or a wide hash.
    """
    if geometry is None:
        geometry = random_geometry(rng)
    address_bits = geometry.address_bits
    num_columns = geometry.num_column_bits
    num_functions = geometry.num_bank_bits
    num_rows = geometry.num_row_bits

    row_low = address_bits - num_rows  # rows always occupy the top
    functions: list[int] = []

    # Channel function for dual-channel machines (consumes one function).
    pair_functions = num_functions
    wide_hash = False
    channel_mask = 0
    if geometry.channels == 2:
        pair_functions -= 1
        wide_hash = bool(rng.random() < 0.5)
        if not wide_hash:
            channel_mask = 1 << int(rng.choice([6, 7]))

    # Two-bit functions: mid bit b paired with shared row bit. The mid bits
    # sit directly under the row range; each function i pairs
    # (row_low - pair_functions + i) with (row_low + i).
    base = row_low - pair_functions
    shared_rows = []
    for index in range(pair_functions):
        low = base + index
        high = row_low + index
        functions.append(mask_of_bits([low, high]))
        shared_rows.append(high)

    if geometry.channels == 2:
        if wide_hash:
            # Wide hash: a few shared column bits + two shared row bits,
            # Ivy-Bridge style. Its lowest bit is never a column.
            low_bits = sorted(
                int(b) for b in rng.choice(range(7, 12), size=3, replace=False)
            )
            hash_bits = low_bits + [13] + shared_rows[:2]
            functions.append(mask_of_bits(hash_bits))
        else:
            functions.append(channel_mask)

    # Columns: the lowest positions not used by pure-bank or channel roles.
    pure_bank = {base + i for i in range(pair_functions)}
    blocked = set()
    if channel_mask:
        blocked.add(channel_mask.bit_length() - 1)
    if wide_hash:
        # The wide hash's lowest bit is a pure bank wire (observation 2).
        wide_bits = sorted(
            b
            for b in range(address_bits)
            if functions[-1] >> b & 1
        )
        blocked.add(wide_bits[0])
    columns = []
    for position in range(address_bits):
        if len(columns) == num_columns:
            break
        if position >= row_low:
            break
        if position in pure_bank or position in blocked:
            continue
        columns.append(position)
    if len(columns) < num_columns:
        # Rare layouts squeeze the columns; fall back to a simple layout.
        return _simple_mapping(geometry)

    rows = tuple(range(row_low, address_bits))
    try:
        return AddressMapping(
            geometry=geometry,
            bank_functions=tuple(functions),
            row_bits=rows,
            column_bits=tuple(columns),
        )
    except Exception:
        return _simple_mapping(geometry)


def _simple_mapping(geometry: DramGeometry) -> AddressMapping:
    """Deterministic fallback: columns low, banks mid (paired with rows),
    rows high — always valid."""
    address_bits = geometry.address_bits
    num_columns = geometry.num_column_bits
    num_functions = geometry.num_bank_bits
    row_low = address_bits - geometry.num_row_bits
    functions = [
        mask_of_bits([row_low - num_functions + i, row_low + i])
        for i in range(num_functions)
    ]
    columns = tuple(range(0, num_columns))
    rows = tuple(range(row_low, address_bits))
    return AddressMapping(
        geometry=geometry,
        bank_functions=tuple(functions),
        row_bits=rows,
        column_bits=columns,
    )


def naive_mapping(geometry: DramGeometry) -> AddressMapping:
    """A hash-free strawman: columns low, *plain* bank bits mid, rows high.

    Each bank function is a single physical bit — what a controller
    without XOR hashing would wire. Valid and bijective, but strided
    workloads serialise onto one bank; the trace tools quantify the damage
    and thereby the reason Intel hashes (see ``repro.memctrl.trace``).
    """
    num_columns = geometry.num_column_bits
    num_functions = geometry.num_bank_bits
    functions = [1 << (num_columns + index) for index in range(num_functions)]
    columns = tuple(range(0, num_columns))
    rows = tuple(range(num_columns + num_functions, geometry.address_bits))
    return AddressMapping(
        geometry=geometry,
        bank_functions=tuple(functions),
        row_bits=rows,
        column_bits=columns,
    )
