"""Compiled GF(2) translation: the blacksmith ``DRAM_MTX``/``ADDR_MTX`` pair.

An :class:`~repro.dram.mapping.AddressMapping` answers one address at a
time by re-running per-bit parity decode. That is fine while *recovering*
a mapping; it is far too slow for *consuming* one — fleet runs and
rowhammer campaigns need millions of phys↔DRAM translations per second.

:class:`CompiledMapping` compiles a mapping once into a pair of GF(2)
matrices, the shape blacksmith's ``DRAMAddr`` uses in production:

* ``dram_mtx`` — the forward matrix. Row *i* is an XOR mask over physical
  address bits; bit *i* of the *linearized* DRAM index is the parity of
  the physical address ANDed with that mask. The linear index packs the
  three components as ``bank << (C+R) | row << C | column`` where *C* and
  *R* are the column and row widths — every row of the matrix is therefore
  *component-labelled* (see :attr:`CompiledMapping.components`), which is
  what later channel/rank/bank-group decomposition work reuses.
* ``addr_mtx`` — the GF(2) inverse (:func:`repro.analysis.gf2.invert`),
  mapping a linearized DRAM index back to the unique physical address.

Batch translation in either direction is then a handful of 16-bit-slice
table gathers (:func:`repro.analysis.bits.packed_parity_tables`) over a
NumPy array — constant work per address regardless of how many functions
the mapping has. The scalar decode path in ``AddressMapping`` remains the
ground truth; the property tests in ``tests/dram/test_compiled.py`` pin
bit-for-bit agreement.

Forward-only compilation (:meth:`CompiledMapping.from_belief`) accepts
unvalidated :class:`~repro.dram.belief.BeliefMapping` claims: prediction
(phys → DRAM) always works, while inversion raises the typed
:class:`~repro.dram.errors.SingularMappingError` when the claim is not a
bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis import bits as bitutil
from repro.analysis import gf2
from repro.dram.errors import MappingError, SingularMappingError
from repro.dram.mapping import AddressMapping, DramAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (belief is runtime-light)
    from repro.dram.belief import BeliefMapping

__all__ = ["CompiledMapping", "compile_mapping"]


@dataclass(frozen=True)
class CompiledMapping:
    """A mapping compiled to a forward/inverse GF(2) matrix pair.

    Attributes:
        address_bits: physical-address width the matrices cover.
        dram_mtx: forward matrix rows, low output bit first (columns,
            then rows, then bank functions).
        addr_mtx: inverse matrix rows (``None`` for a forward-only
            compile of a non-invertible belief).
        column_width: output bits holding the column component.
        row_width: output bits holding the row component.
        bank_width: output bits holding the bank component.
    """

    address_bits: int
    dram_mtx: tuple[int, ...]
    addr_mtx: tuple[int, ...] | None
    column_width: int
    row_width: int
    bank_width: int

    # ------------------------------------------------------------ construction

    @classmethod
    def from_mapping(cls, mapping: AddressMapping) -> "CompiledMapping":
        """Compile a validated mapping (forward *and* inverse).

        A validated mapping is a bijection, so a failing inversion here is
        an internal inconsistency, reported as a plain
        :class:`~repro.dram.errors.MappingError`.
        """
        compiled = cls._assemble(
            address_bits=mapping.geometry.address_bits,
            bank_functions=mapping.bank_functions,
            row_bits=mapping.row_bits,
            column_bits=mapping.column_bits,
            invert=True,
        )
        if compiled.addr_mtx is None:  # pragma: no cover - validation forbids it
            raise MappingError(
                "internal error: validated mapping compiled to a singular matrix"
            )
        return compiled

    @classmethod
    def from_belief(
        cls, belief: "BeliefMapping", require_inverse: bool = False
    ) -> "CompiledMapping":
        """Compile an unvalidated belief.

        Forward translation always compiles. The inverse is attempted and
        kept when it exists; with ``require_inverse`` a singular claim
        raises :class:`~repro.dram.errors.SingularMappingError` instead of
        silently producing a forward-only compile.
        """
        compiled = cls._assemble(
            address_bits=belief.address_bits,
            bank_functions=belief.bank_functions,
            row_bits=belief.row_bits,
            column_bits=belief.column_bits,
            invert=True,
        )
        if require_inverse and compiled.addr_mtx is None:
            raise SingularMappingError(
                "belief is not a bijection: the forward GF(2) matrix is "
                "singular, no DRAM-to-physical translation exists"
            )
        return compiled

    @classmethod
    def _assemble(
        cls,
        address_bits: int,
        bank_functions: tuple[int, ...],
        row_bits: tuple[int, ...],
        column_bits: tuple[int, ...],
        invert: bool,
    ) -> "CompiledMapping":
        column_width = len(column_bits)
        row_width = len(row_bits)
        bank_width = len(bank_functions)
        output_bits = column_width + row_width + bank_width
        if output_bits != address_bits:
            # Incomplete claims (a belief missing bits) still compile
            # forward; inversion over a non-square system is meaningless.
            invert = False
        rows: list[int] = []
        rows.extend(bitutil.bit(position) for position in column_bits)
        rows.extend(bitutil.bit(position) for position in row_bits)
        rows.extend(bank_functions)
        limit = 1 << address_bits
        for mask in rows:
            if mask >= limit:
                raise MappingError(
                    f"matrix row {mask:#x} exceeds the {address_bits}-bit "
                    "physical address space"
                )
        addr_mtx = None
        if invert:
            # gf2.invert returns None on a singular/inconsistent system;
            # the callers above decide whether that is an internal error
            # (validated mapping), a typed SingularMappingError
            # (require_inverse) or an acceptable forward-only compile.
            inverse = gf2.invert(rows, address_bits)
            if inverse is not None:
                addr_mtx = tuple(inverse)
        return cls(
            address_bits=address_bits,
            dram_mtx=tuple(rows),
            addr_mtx=addr_mtx,
            column_width=column_width,
            row_width=row_width,
            bank_width=bank_width,
        )

    # ---------------------------------------------------------------- layout

    @property
    def invertible(self) -> bool:
        """True when DRAM→phys translation is available."""
        return self.addr_mtx is not None

    @property
    def column_shift(self) -> int:
        """Bit offset of the column component in a linear index (always 0)."""
        return 0

    @property
    def row_shift(self) -> int:
        """Bit offset of the row component in a linear index."""
        return self.column_width

    @property
    def bank_shift(self) -> int:
        """Bit offset of the bank component in a linear index."""
        return self.column_width + self.row_width

    @property
    def rows(self) -> int:
        """Row count addressable by the row component."""
        return 1 << self.row_width

    @property
    def columns(self) -> int:
        """Column count addressable by the column component."""
        return 1 << self.column_width

    @property
    def banks(self) -> int:
        """Bank count addressable by the bank component."""
        return 1 << self.bank_width

    @property
    def components(self) -> dict[str, tuple[int, int]]:
        """Component labels: ``{name: (first matrix row, width)}``.

        The forward matrix keeps its rows grouped by the DRAM component
        they produce, so decomposition work (Sudoku-style channel/rank/
        bank-group labelling) can slice the compiled form instead of
        re-deriving it.
        """
        return {
            "column": (0, self.column_width),
            "row": (self.column_width, self.row_width),
            "bank": (self.column_width + self.row_width, self.bank_width),
        }

    # ------------------------------------------------------------- batch kernels

    @cached_property
    def _forward_tables(self):
        return bitutil.packed_parity_tables(self.dram_mtx)

    @cached_property
    def _inverse_tables(self):
        if self.addr_mtx is None:
            raise SingularMappingError(
                "forward-only compile: the mapping has no GF(2) inverse"
            )
        return bitutil.packed_parity_tables(self.addr_mtx)

    def linearize(self, phys_addrs: np.ndarray) -> np.ndarray:
        """Batched phys → linearized DRAM index (uint64 in, uint64 out).

        One table gather per touched 16-bit address slice evaluates every
        matrix row at once — the hot kernel behind :meth:`translate`.
        """
        addrs = np.asarray(phys_addrs, dtype=np.uint64)
        packed = bitutil.gather_xor(addrs, self._forward_tables)
        if packed is None:
            return np.zeros(addrs.shape, dtype=np.uint64)
        return packed.astype(np.uint64)

    def translate(
        self, phys_addrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched phys → (bank, row, column) arrays.

        Bit-identical to the scalar ``AddressMapping.dram_address`` on
        every input (property-tested in ``tests/dram/test_compiled.py``).
        """
        linear = self.linearize(phys_addrs)
        column = linear & np.uint64(self.columns - 1)
        row = (linear >> np.uint64(self.row_shift)) & np.uint64(self.rows - 1)
        bank = linear >> np.uint64(self.bank_shift)
        return bank, row, column

    def encode(
        self,
        banks: np.ndarray,
        rows: np.ndarray,
        columns: np.ndarray,
    ) -> np.ndarray:
        """Batched (bank, row, column) → physical address array.

        Raises:
            SingularMappingError: on a forward-only compile.
        """
        linear = (
            (np.asarray(banks, dtype=np.uint64) << np.uint64(self.bank_shift))
            | (np.asarray(rows, dtype=np.uint64) << np.uint64(self.row_shift))
            | np.asarray(columns, dtype=np.uint64)
        )
        packed = bitutil.gather_xor(linear, self._inverse_tables)
        if packed is None:
            return np.zeros(linear.shape, dtype=np.uint64)
        return packed.astype(np.uint64)

    # ------------------------------------------------------------ scalar forms

    def translate_one(self, phys_addr: int) -> DramAddress:
        """Scalar phys → DRAM decode through the compiled matrix."""
        linear = 0
        for position, mask in enumerate(self.dram_mtx):
            linear |= bitutil.parity(phys_addr & mask) << position
        return DramAddress(
            bank=linear >> self.bank_shift,
            row=(linear >> self.row_shift) & (self.rows - 1),
            column=linear & (self.columns - 1),
        )

    def encode_one(self, address: DramAddress) -> int:
        """Scalar DRAM → phys through the compiled inverse.

        Raises:
            SingularMappingError: on a forward-only compile.
        """
        if self.addr_mtx is None:
            raise SingularMappingError(
                "forward-only compile: the mapping has no GF(2) inverse"
            )
        linear = (
            (address.bank << self.bank_shift)
            | (address.row << self.row_shift)
            | address.column
        )
        phys = 0
        for position, mask in enumerate(self.addr_mtx):
            phys |= bitutil.parity(linear & mask) << position
        return phys

    # -------------------------------------------------------- generator queries

    def same_bank_addresses(
        self, bank: int, count: int, column: int = 0
    ) -> np.ndarray:
        """``count`` distinct physical addresses all landing in ``bank``.

        Walks rows first (then columns) so the result spreads across as
        many rows as possible — the shape bank-conflict probing and
        eviction-set construction want.

        Raises:
            SingularMappingError: on a forward-only compile.
            MappingError: when the bank or column is out of range or the
                bank cannot hold ``count`` distinct addresses from column
                ``column`` up.
        """
        self._check_bank(bank)
        if not 0 <= column < self.columns:
            raise MappingError(f"column {column} out of range")
        available = self.rows * (self.columns - column)
        if count < 0 or count > available:
            raise MappingError(
                f"bank {bank} holds only {available} addresses from "
                f"column {column} up, asked for {count}"
            )
        index = np.arange(count, dtype=np.uint64)
        rows = index % np.uint64(self.rows)
        columns = np.uint64(column) + index // np.uint64(self.rows)
        banks = np.full(count, bank, dtype=np.uint64)
        return self.encode(banks, rows, columns)

    def adjacent_row_sets(
        self,
        bank: int,
        count: int,
        column: int = 0,
        stride: int = 3,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` double-sided aggressor sets in ``bank``.

        Returns ``(victims, above, below)`` physical-address arrays where
        ``above``/``below`` sit one row either side of each victim in the
        same bank — the layout a double-sided rowhammer campaign hammers.
        Victim rows step by ``stride`` (default 3 keeps the sets disjoint).

        Raises:
            SingularMappingError: on a forward-only compile.
            MappingError: when the bank cannot hold that many sets.
        """
        self._check_bank(bank)
        if stride < 1:
            raise MappingError(f"stride must be positive, got {stride}")
        if not 0 <= column < self.columns:
            raise MappingError(f"column {column} out of range")
        capacity = max(0, (self.rows - 2 + (stride - 1)) // stride)
        if count < 0 or count > capacity:
            raise MappingError(
                f"bank {bank} fits only {capacity} stride-{stride} "
                f"aggressor sets, asked for {count}"
            )
        victim_rows = np.uint64(1) + np.arange(count, dtype=np.uint64) * np.uint64(
            stride
        )
        banks = np.full(count, bank, dtype=np.uint64)
        columns = np.full(count, column, dtype=np.uint64)
        victims = self.encode(banks, victim_rows, columns)
        above = self.encode(banks, victim_rows - np.uint64(1), columns)
        below = self.encode(banks, victim_rows + np.uint64(1), columns)
        return victims, above, below

    def _check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks:
            raise MappingError(f"bank {bank} out of range (0..{self.banks - 1})")


def compile_mapping(mapping: AddressMapping) -> CompiledMapping:
    """Convenience alias for :meth:`CompiledMapping.from_mapping`."""
    return CompiledMapping.from_mapping(mapping)
