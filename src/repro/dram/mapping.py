"""The physical-address -> DRAM-address mapping.

An :class:`AddressMapping` is what the whole paper is about: the function
the memory controller implements in wiring and the tools reverse-engineer.
It consists of

* ``bank_functions`` — XOR masks; bank bit *i* is the parity of the physical
  address ANDed with mask *i* (paper Section III-A, empirical observation 1),
* ``row_bits``       — the physical-address bit positions forming the row
  index (lowest position = row bit 0),
* ``column_bits``    — likewise for the column index.

The class provides scalar and vectorized decoding, validation (the mapping
must be a bijection onto (bank, row, column) space), and GF(2)-equivalence
comparison used to verify reverse-engineered results against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.analysis import bits as bitutil
from repro.analysis import gf2
from repro.dram.errors import MappingError
from repro.dram.geometry import DramGeometry

__all__ = ["DramAddress", "AddressMapping"]


class DramAddress(NamedTuple):
    """The paper's 3-tuple DRAM address (channel/DIMM/rank folded into bank)."""

    bank: int
    row: int
    column: int


@dataclass(frozen=True)
class AddressMapping:
    """A complete DRAM address mapping for one machine.

    Attributes:
        geometry: the machine's DRAM organisation.
        bank_functions: XOR masks, one per bank bit (ordered; function *i*
            produces bank-index bit *i*).
        row_bits: physical-address bit positions of the row index, ascending.
        column_bits: physical-address bit positions of the column index,
            ascending.
    """

    geometry: DramGeometry
    bank_functions: tuple[int, ...]
    row_bits: tuple[int, ...]
    column_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bank_functions", tuple(self.bank_functions))
        object.__setattr__(self, "row_bits", tuple(sorted(self.row_bits)))
        object.__setattr__(self, "column_bits", tuple(sorted(self.column_bits)))
        self._validate()

    # ------------------------------------------------------------ validation

    def _validate(self) -> None:
        geometry = self.geometry
        if len(self.bank_functions) != geometry.num_bank_bits:
            raise MappingError(
                f"need {geometry.num_bank_bits} bank functions for "
                f"{geometry.total_banks} banks, got {len(self.bank_functions)}"
            )
        if len(self.row_bits) != geometry.num_row_bits:
            raise MappingError(
                f"need {geometry.num_row_bits} row bits, got {len(self.row_bits)}"
            )
        if len(self.column_bits) != geometry.num_column_bits:
            raise MappingError(
                f"need {geometry.num_column_bits} column bits, "
                f"got {len(self.column_bits)}"
            )
        top = geometry.address_bits
        all_positions = set(self.row_bits) | set(self.column_bits)
        for mask in self.bank_functions:
            if mask <= 0:
                raise MappingError("bank functions must be non-empty masks")
            all_positions.update(bitutil.bits_of_mask(mask))
        if set(self.row_bits) & set(self.column_bits):
            raise MappingError("row bits and column bits overlap")
        out_of_range = [p for p in all_positions if p >= top]
        if out_of_range:
            raise MappingError(
                f"bit positions {sorted(out_of_range)} exceed the "
                f"{top}-bit physical address space"
            )
        if all_positions != set(range(top)):
            missing = sorted(set(range(top)) - all_positions)
            raise MappingError(f"address bits {missing} map to nothing")
        if not gf2.is_independent(self.bank_functions):
            raise MappingError("bank functions are linearly dependent over GF(2)")
        # Bijectivity: the combined GF(2) output matrix (row-bit selectors,
        # column-bit selectors, bank functions) must have full rank.
        outputs = (
            [bitutil.bit(p) for p in self.row_bits]
            + [bitutil.bit(p) for p in self.column_bits]
            + list(self.bank_functions)
        )
        if gf2.rank(outputs) != top:
            raise MappingError(
                "mapping is not a bijection: combined output matrix is rank-"
                f"deficient ({gf2.rank(outputs)} < {top})"
            )

    # -------------------------------------------------------------- decoding

    def bank_of(self, phys_addr: int) -> int:
        """Bank index of a physical address (XOR-hash output)."""
        self._check_address(phys_addr)
        index = 0
        for position, mask in enumerate(self.bank_functions):
            index |= bitutil.parity(phys_addr & mask) << position
        return index

    def row_of(self, phys_addr: int) -> int:
        """Row index of a physical address."""
        self._check_address(phys_addr)
        return bitutil.extract_bits(phys_addr, self.row_bits)

    def column_of(self, phys_addr: int) -> int:
        """Column (byte-within-row) index of a physical address."""
        self._check_address(phys_addr)
        return bitutil.extract_bits(phys_addr, self.column_bits)

    def dram_address(self, phys_addr: int) -> DramAddress:
        """Full (bank, row, column) decode."""
        return DramAddress(
            bank=self.bank_of(phys_addr),
            row=self.row_of(phys_addr),
            column=self.column_of(phys_addr),
        )

    def encode(self, address: DramAddress) -> int:
        """Inverse decode: the unique physical address of a DRAM address.

        Solves the GF(2) system; the mapping is validated bijective so a
        solution always exists and is unique.
        """
        if not 0 <= address.bank < self.geometry.total_banks:
            raise MappingError(f"bank {address.bank} out of range")
        if not 0 <= address.row < self.geometry.rows_per_bank:
            raise MappingError(f"row {address.row} out of range")
        if not 0 <= address.column < self.geometry.row_bytes:
            raise MappingError(f"column {address.column} out of range")
        phys = bitutil.deposit_bits(address.row, self.row_bits)
        phys |= bitutil.deposit_bits(address.column, self.column_bits)
        # Solve for the bits appearing only in bank functions. Gaussian
        # elimination over the free bits (those not already fixed by row or
        # column positions).
        fixed = set(self.row_bits) | set(self.column_bits)
        free_bits = sorted(
            {
                position
                for mask in self.bank_functions
                for position in bitutil.bits_of_mask(mask)
                if position not in fixed
            }
        )
        # Residual parity each function must still produce from free bits.
        targets = []
        free_mask_rows = []
        for position, mask in enumerate(self.bank_functions):
            want = (address.bank >> position) & 1
            have = bitutil.parity(phys & mask)
            targets.append(want ^ have)
            free_mask_rows.append(
                bitutil.extract_bits(mask, free_bits)
            )  # mask restricted to free bits, compacted
        solution = _solve_gf2_system(free_mask_rows, targets, len(free_bits))
        if solution is None:  # pragma: no cover - impossible for valid mapping
            raise MappingError("internal error: bank system unsolvable")
        phys |= bitutil.deposit_bits(solution, free_bits)
        return phys

    # ------------------------------------------------------ vectorized forms
    #
    # The array decoders run on every timing measurement the simulator
    # performs, so they use per-mapping 16-bit-slice lookup tables (built
    # lazily, cached on the instance): one gather per touched address slice
    # evaluates *all* bank functions (or row/column selectors) at once,
    # instead of one popcount pass per function. ``tests/dram/test_mapping.py``
    # pins them against per-function popcount / per-bit shift references.

    @cached_property
    def _bank_tables(self) -> tuple[tuple[np.uint64, np.ndarray], ...]:
        return bitutil.packed_parity_tables(self.bank_functions)

    @cached_property
    def _row_tables(self) -> tuple[tuple[np.uint64, np.ndarray], ...]:
        return bitutil.extract_tables(self.row_bits)

    @cached_property
    def _column_tables(self) -> tuple[tuple[np.uint64, np.ndarray], ...]:
        return bitutil.extract_tables(self.column_bits)

    def bank_of_array(self, phys_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bank_of` over a uint64 array."""
        addrs = np.asarray(phys_addrs, dtype=np.uint64)
        packed = bitutil.gather_xor(addrs, self._bank_tables)
        if packed is None:
            return np.zeros(addrs.shape, dtype=np.uint32)
        return packed.astype(np.uint32)

    def row_of_array(self, phys_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`row_of` over a uint64 array."""
        addrs = np.asarray(phys_addrs, dtype=np.uint64)
        row = bitutil.gather_xor(addrs, self._row_tables)
        if row is None:
            return np.zeros(addrs.shape, dtype=np.uint64)
        return row

    def column_of_array(self, phys_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`column_of` over a uint64 array."""
        addrs = np.asarray(phys_addrs, dtype=np.uint64)
        column = bitutil.gather_xor(addrs, self._column_tables)
        if column is None:
            return np.zeros(addrs.shape, dtype=np.uint64)
        return column

    # ------------------------------------------------------- compiled form

    @cached_property
    def compiled(self):
        """The mapping compiled to a GF(2) matrix pair, built once.

        Returns a :class:`repro.dram.compiled.CompiledMapping` whose batch
        kernels are bit-identical to the scalar decode/encode here — the
        form every high-throughput consumer (translation service, verify,
        rowhammer campaigns) uses.
        """
        from repro.dram.compiled import CompiledMapping

        return CompiledMapping.from_mapping(self)

    # ------------------------------------------------------------ comparison

    def same_bank(self, addr_a: int, addr_b: int) -> bool:
        """True when two physical addresses land in the same bank."""
        return self.bank_of(addr_a) == self.bank_of(addr_b)

    def is_row_conflict(self, addr_a: int, addr_b: int) -> bool:
        """True for same-bank-different-row (SBDR) pairs — the pairs the
        timing channel flags as slow."""
        return self.same_bank(addr_a, addr_b) and self.row_of(addr_a) != self.row_of(addr_b)

    def equivalent_to(self, other: "AddressMapping") -> bool:
        """Mapping equivalence as the paper's Table II implies it.

        Bank functions are compared as GF(2) spans (any basis of the same
        hash subspace addresses banks identically, only the bank *numbering*
        differs); row and column bit sets are compared exactly.
        """
        return (
            gf2.span_equal(self.bank_functions, other.bank_functions)
            and self.row_bits == other.row_bits
            and self.column_bits == other.column_bits
        )

    def describe(self) -> str:
        """Render the mapping the way Table II prints a machine row."""
        functions = ", ".join(bitutil.format_mask(m) for m in self.bank_functions)
        return (
            f"bank functions: {functions}\n"
            f"row bits:    {_format_bit_ranges(self.row_bits)}\n"
            f"column bits: {_format_bit_ranges(self.column_bits)}"
        )

    def _check_address(self, phys_addr: int) -> None:
        if not 0 <= phys_addr < self.geometry.total_bytes:
            raise MappingError(
                f"physical address {phys_addr:#x} outside "
                f"{self.geometry.total_bytes:#x}-byte memory"
            )


def _solve_gf2_system(rows: list[int], targets: list[int], width: int) -> int | None:
    """Solve ``rows @ x = targets`` over GF(2); returns x as an int or None.

    ``rows`` are equation masks over ``width`` unknowns (bit i of a row =
    coefficient of unknown i).
    """
    # Augment each equation with its target bit at position `width`.
    equations = [row | (target << width) for row, target in zip(rows, targets)]
    basis: list[int] = []
    for equation in equations:
        reduced = equation
        for element in basis:
            low_self = reduced & ((1 << width) - 1)
            low_elem = element & ((1 << width) - 1)
            if low_self and low_elem and (low_self ^ low_elem) < low_self:
                reduced ^= element
        if reduced & ((1 << width) - 1):
            basis.append(reduced)
            basis.sort(key=lambda e: e & ((1 << width) - 1), reverse=True)
        elif reduced >> width:
            return None  # 0 = 1 -> inconsistent
    solution = 0
    # Back-substitute from the largest leading bit downwards.
    for element in sorted(basis, key=lambda e: e & ((1 << width) - 1)):
        coefficients = element & ((1 << width) - 1)
        lead = bitutil.highest_bit(coefficients)
        value = (element >> width) ^ bitutil.parity(coefficients & solution & ~bitutil.bit(lead))
        solution |= value << lead
    # Verify (free variables default to 0; the system may be underdetermined).
    for row, target in zip(rows, targets):
        if bitutil.parity(row & solution) != target:
            return None
    return solution


def _format_bit_ranges(positions: tuple[int, ...]) -> str:
    """Render sorted bit positions as the paper does: ``0~5, 7~13``."""
    if not positions:
        return "(none)"
    ranges: list[str] = []
    start = previous = positions[0]
    for position in positions[1:]:
        if position == previous + 1:
            previous = position
            continue
        ranges.append(f"{start}~{previous}" if previous > start else str(start))
        start = previous = position
    ranges.append(f"{start}~{previous}" if previous > start else str(start))
    return ", ".join(ranges)
