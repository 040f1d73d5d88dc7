"""Unit and property tests for repro.dram.mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bits import mask_of_bits, parity_array
from repro.dram.errors import MappingError
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import AddressMapping, DramAddress
from repro.dram.presets import PRESETS, preset
from repro.dram.spec import DdrGeneration

GIB = 2**30


def no1_mapping() -> AddressMapping:
    """The paper's No.1 (Sandy Bridge) mapping."""
    return preset("No.1").mapping


def bank_of_array_popcount(mapping: AddressMapping, addrs: np.ndarray) -> np.ndarray:
    """Reference bank decode: one popcount parity pass per bank function."""
    addrs = np.asarray(addrs, dtype=np.uint64)
    index = np.zeros(addrs.shape, dtype=np.uint32)
    for position, mask in enumerate(mapping.bank_functions):
        index |= parity_array(addrs, mask).astype(np.uint32) << np.uint32(position)
    return index


def row_of_array_shift(mapping: AddressMapping, addrs: np.ndarray) -> np.ndarray:
    """Reference row decode: one shift-and-mask per row bit."""
    addrs = np.asarray(addrs, dtype=np.uint64)
    row = np.zeros(addrs.shape, dtype=np.uint64)
    for index, position in enumerate(mapping.row_bits):
        row |= ((addrs >> np.uint64(position)) & np.uint64(1)) << np.uint64(index)
    return row


def small_mapping() -> AddressMapping:
    """A tiny 1 MiB machine for exhaustive tests: 1 channel, 2 banks."""
    geometry = DramGeometry(
        generation=DdrGeneration.DDR3,
        total_bytes=2**20,
        channels=1,
        dimms_per_channel=1,
        ranks_per_dimm=1,
        banks_per_rank=2,
        row_bytes=4096,
    )
    return AddressMapping(
        geometry=geometry,
        bank_functions=(mask_of_bits([12, 13]),),
        row_bits=tuple(range(13, 20)),
        column_bits=tuple(range(0, 12)),
    )


class TestValidation:
    def test_presets_all_valid(self):
        for name, machine in PRESETS.items():
            assert machine.mapping.geometry.address_bits >= 32, name

    def test_wrong_function_count(self):
        mapping = no1_mapping()
        with pytest.raises(MappingError, match="bank functions"):
            AddressMapping(
                geometry=mapping.geometry,
                bank_functions=mapping.bank_functions[:-1],
                row_bits=mapping.row_bits,
                column_bits=mapping.column_bits,
            )

    def test_dependent_functions_rejected(self):
        mapping = no1_mapping()
        functions = list(mapping.bank_functions)
        functions[0] = functions[1] ^ functions[2]  # (14,17)^(15,18)
        bad = functions[:3] + [functions[1] ^ functions[2]]
        with pytest.raises(MappingError):
            AddressMapping(
                geometry=mapping.geometry,
                bank_functions=tuple(bad),
                row_bits=mapping.row_bits,
                column_bits=mapping.column_bits,
            )

    def test_row_column_overlap_rejected(self):
        mapping = no1_mapping()
        with pytest.raises(MappingError, match="overlap"):
            AddressMapping(
                geometry=mapping.geometry,
                bank_functions=mapping.bank_functions,
                row_bits=mapping.row_bits,
                column_bits=mapping.column_bits[:-1] + (mapping.row_bits[0],),
            )

    def test_uncovered_bit_rejected(self):
        """Dropping bit 0 from the columns leaves it unmapped."""
        mapping = no1_mapping()
        with pytest.raises(MappingError):
            AddressMapping(
                geometry=mapping.geometry,
                bank_functions=mapping.bank_functions,
                row_bits=mapping.row_bits,
                column_bits=(14,) + mapping.column_bits[1:],
            )

    def test_out_of_range_bit_rejected(self):
        mapping = no1_mapping()
        with pytest.raises(MappingError, match="exceed"):
            AddressMapping(
                geometry=mapping.geometry,
                bank_functions=mapping.bank_functions,
                row_bits=mapping.row_bits[:-1] + (40,),
                column_bits=mapping.column_bits,
            )

    def test_zero_function_rejected(self):
        mapping = no1_mapping()
        with pytest.raises(MappingError):
            AddressMapping(
                geometry=mapping.geometry,
                bank_functions=(0,) + mapping.bank_functions[1:],
                row_bits=mapping.row_bits,
                column_bits=mapping.column_bits,
            )


class TestDecode:
    def test_no1_known_bank(self):
        """Hand-computed example on the Sandy Bridge mapping."""
        mapping = no1_mapping()
        # Address with bits 6 and 14 set: function (6) -> 1, (14,17) -> 1.
        addr = (1 << 6) | (1 << 14)
        assert mapping.bank_of(addr) == 0b0011

    def test_no1_row_and_column(self):
        mapping = no1_mapping()
        addr = (5 << 17) | (1 << 3)  # row 5, column bit 3 (bit 3 is col idx 3)
        assert mapping.row_of(addr) == 5
        assert mapping.column_of(addr) == 8

    def test_column_skips_bit6(self):
        """On No.1 bit 6 is the channel, not a column: column bits are
        0-5 and 7-13, so bit 7 is column index 6."""
        mapping = no1_mapping()
        assert mapping.column_of(1 << 7) == 1 << 6

    def test_out_of_range_address(self):
        mapping = no1_mapping()
        with pytest.raises(MappingError, match="outside"):
            mapping.bank_of(mapping.geometry.total_bytes)

    def test_dram_address_tuple(self):
        mapping = no1_mapping()
        decoded = mapping.dram_address(0)
        assert decoded == DramAddress(bank=0, row=0, column=0)


class TestEncodeDecodeRoundtrip:
    @given(st.data())
    @settings(max_examples=50)
    def test_decode_encode_roundtrip_all_presets(self, data):
        name = data.draw(st.sampled_from(sorted(PRESETS)))
        mapping = PRESETS[name].mapping
        addr = data.draw(
            st.integers(min_value=0, max_value=mapping.geometry.total_bytes - 1)
        )
        assert mapping.encode(mapping.dram_address(addr)) == addr

    @given(st.data())
    @settings(max_examples=50)
    def test_encode_decode_roundtrip(self, data):
        name = data.draw(st.sampled_from(sorted(PRESETS)))
        mapping = PRESETS[name].mapping
        geometry = mapping.geometry
        dram = DramAddress(
            bank=data.draw(st.integers(0, geometry.total_banks - 1)),
            row=data.draw(st.integers(0, geometry.rows_per_bank - 1)),
            column=data.draw(st.integers(0, geometry.row_bytes - 1)),
        )
        assert mapping.dram_address(mapping.encode(dram)) == dram

    def test_small_mapping_bijective_exhaustive(self):
        mapping = small_mapping()
        seen = set()
        for addr in range(0, 2**20, 977):  # coprime stride sample
            seen.add(mapping.dram_address(addr))
        assert len(seen) == len(range(0, 2**20, 977))

    def test_encode_range_checks(self):
        mapping = small_mapping()
        with pytest.raises(MappingError):
            mapping.encode(DramAddress(bank=2, row=0, column=0))
        with pytest.raises(MappingError):
            mapping.encode(DramAddress(bank=0, row=2**7, column=0))
        with pytest.raises(MappingError):
            mapping.encode(DramAddress(bank=0, row=0, column=4096))


class TestVectorizedDecode:
    def test_matches_scalar(self):
        mapping = no1_mapping()
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, mapping.geometry.total_bytes, 512, dtype=np.uint64)
        banks = mapping.bank_of_array(addrs)
        rows = mapping.row_of_array(addrs)
        columns = mapping.column_of_array(addrs)
        for i in (0, 17, 100, 511):
            addr = int(addrs[i])
            assert banks[i] == mapping.bank_of(addr)
            assert rows[i] == mapping.row_of(addr)
            assert columns[i] == mapping.column_of(addr)

    def test_bank_range(self):
        for name, machine in PRESETS.items():
            mapping = machine.mapping
            rng = np.random.default_rng(5)
            addrs = rng.integers(0, mapping.geometry.total_bytes, 256, dtype=np.uint64)
            banks = mapping.bank_of_array(addrs)
            assert banks.max() < mapping.geometry.total_banks, name


class TestLookupTableDecode:
    """The packed-parity-table decoders must agree exactly with the
    popcount/shift reference decoders above on every preset."""

    def test_every_preset_agrees_with_reference(self):
        for name, machine in PRESETS.items():
            mapping = machine.mapping
            rng = np.random.default_rng(13)
            addrs = rng.integers(0, mapping.geometry.total_bytes, 1024, dtype=np.uint64)
            np.testing.assert_array_equal(
                mapping.bank_of_array(addrs),
                bank_of_array_popcount(mapping, addrs),
                err_msg=name,
            )
            np.testing.assert_array_equal(
                mapping.row_of_array(addrs),
                row_of_array_shift(mapping, addrs),
                err_msg=name,
            )
            columns_ref = np.array(
                [mapping.column_of(int(addr)) for addr in addrs[:128]], dtype=np.uint64
            )
            np.testing.assert_array_equal(
                mapping.column_of_array(addrs[:128]), columns_ref, err_msg=name
            )

    def test_bank_dtype_preserved(self):
        mapping = no1_mapping()
        addrs = np.arange(64, dtype=np.uint64)
        assert mapping.bank_of_array(addrs).dtype == np.uint32
        assert mapping.row_of_array(addrs).dtype == np.uint64

    def test_tables_survive_pickling(self):
        import pickle

        mapping = no1_mapping()
        addrs = np.arange(256, dtype=np.uint64) << np.uint64(13)
        expected = mapping.bank_of_array(addrs)  # populate the cache first
        clone = pickle.loads(pickle.dumps(mapping))
        np.testing.assert_array_equal(clone.bank_of_array(addrs), expected)


class TestComparison:
    def test_same_bank(self):
        mapping = small_mapping()
        assert mapping.same_bank(0, 1)
        # Flipping bit 12 alone changes the bank function (12,13).
        assert not mapping.same_bank(0, 1 << 12)

    def test_row_conflict(self):
        mapping = small_mapping()
        # Bits 12 and 13 together: bank parity unchanged, row changed.
        assert mapping.is_row_conflict(0, (1 << 12) | (1 << 13))
        assert not mapping.is_row_conflict(0, 1)  # same row
        assert not mapping.is_row_conflict(0, 1 << 12)  # other bank

    def test_equivalent_to_itself(self):
        mapping = no1_mapping()
        assert mapping.equivalent_to(mapping)

    def test_equivalent_under_basis_change(self):
        mapping = no1_mapping()
        functions = list(mapping.bank_functions)
        functions[1] ^= functions[2]  # new basis of the same span
        other = AddressMapping(
            geometry=mapping.geometry,
            bank_functions=tuple(functions),
            row_bits=mapping.row_bits,
            column_bits=mapping.column_bits,
        )
        assert mapping.equivalent_to(other)
        assert other.equivalent_to(mapping)

    def test_not_equivalent_different_rows(self):
        no1 = preset("No.1").mapping
        no8 = preset("No.8").mapping
        assert not no1.equivalent_to(no8)


class TestDescribe:
    def test_paper_style_ranges(self):
        text = no1_mapping().describe()
        assert "(14, 17)" in text
        assert "17~32" in text
        assert "0~5, 7~13" in text


def adversarial_mapping() -> AddressMapping:
    """Interleaved non-contiguous row/column bits, bank functions
    overlapping both — the layout class most likely to break an encode
    that assumes contiguous components."""
    geometry = preset("No.1").mapping.geometry
    column_bits = tuple(range(0, 26, 2))[:13]
    row_bits = tuple(range(1, 27, 2)) + (26, 28, 30)
    leftover = [
        bit
        for bit in range(geometry.address_bits)
        if bit not in set(column_bits) | set(row_bits)
    ]
    bank_functions = tuple(
        mask_of_bits([bit, column_bits[index + 2], row_bits[index + 3]])
        for index, bit in enumerate(leftover)
    )
    return AddressMapping(
        geometry=geometry,
        bank_functions=bank_functions,
        row_bits=row_bits,
        column_bits=column_bits,
    )


class TestAdversarialEncodeRoundtrip:
    """Satellite audit: encode must solve the GF(2) system correctly for
    non-contiguous, bank-overlapping layouts — not just Intel presets."""

    def test_decode_encode_identity(self):
        mapping = adversarial_mapping()
        pool = np.random.default_rng(11).integers(
            0, 1 << mapping.geometry.address_bits, 500, dtype=np.uint64
        )
        for addr in pool:
            addr = int(addr)
            assert mapping.encode(mapping.dram_address(addr)) == addr

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, data):
        mapping = adversarial_mapping()
        bank = data.draw(
            st.integers(0, mapping.geometry.total_banks - 1), label="bank"
        )
        row = data.draw(st.integers(0, (1 << len(mapping.row_bits)) - 1), "row")
        column = data.draw(
            st.integers(0, (1 << len(mapping.column_bits)) - 1), "column"
        )
        phys = mapping.encode(DramAddress(bank, row, column))
        decoded = mapping.dram_address(phys)
        assert (decoded.bank, decoded.row, decoded.column) == (bank, row, column)

    def test_compiled_agrees_on_adversarial_layout(self):
        mapping = adversarial_mapping()
        compiled = mapping.compiled
        pool = np.random.default_rng(12).integers(
            0, 1 << mapping.geometry.address_bits, 2048, dtype=np.uint64
        )
        banks, rows, columns = compiled.translate(pool)
        assert np.array_equal(compiled.encode(banks, rows, columns), pool)
        for index in range(0, 2048, 64):
            scalar = mapping.dram_address(int(pool[index]))
            assert (scalar.bank, scalar.row, scalar.column) == (
                int(banks[index]),
                int(rows[index]),
                int(columns[index]),
            )


class TestEquivalenceUnderBasisShuffle:
    """Satellite audit: equivalent_to must be span-based for every
    preset, not just a hand-picked pair of functions."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_equivalent_after_basis_shuffle(self, name):
        mapping = PRESETS[name].mapping
        rng = np.random.default_rng(13)
        functions = list(mapping.bank_functions)
        # Random invertible row operations: XOR one function into another.
        for _ in range(16):
            target, source = rng.choice(len(functions), 2, replace=False)
            functions[target] ^= functions[source]
        shuffled = AddressMapping(
            geometry=mapping.geometry,
            bank_functions=tuple(functions),
            row_bits=mapping.row_bits,
            column_bits=mapping.column_bits,
        )
        assert mapping.equivalent_to(shuffled)
        assert shuffled.equivalent_to(mapping)

    def test_shrunk_span_not_equivalent(self):
        mapping = preset("No.1").mapping
        functions = list(mapping.bank_functions)
        functions[0] = functions[1] ^ functions[2]  # now dependent set
        with pytest.raises(MappingError):
            AddressMapping(
                geometry=mapping.geometry,
                bank_functions=tuple(functions),
                row_bits=mapping.row_bits,
                column_bits=mapping.column_bits,
            )
