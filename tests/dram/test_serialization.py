"""Tests for mapping JSON serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.belief import BeliefMapping
from repro.dram.errors import MappingError
from repro.dram.presets import PRESETS, preset
from repro.dram.serialization import (
    belief_from_dict,
    belief_to_dict,
    load_mapping,
    mapping_from_dict,
    mapping_to_dict,
    save_mapping,
)


class TestMappingRoundtrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_all_presets_roundtrip(self, name):
        mapping = PRESETS[name].mapping
        restored = mapping_from_dict(mapping_to_dict(mapping))
        assert restored == mapping

    def test_file_roundtrip(self, tmp_path):
        mapping = preset("No.6").mapping
        path = tmp_path / "no6.json"
        save_mapping(mapping, path)
        assert load_mapping(path) == mapping

    def test_json_is_paper_notation(self):
        data = mapping_to_dict(preset("No.1").mapping)
        assert [14, 17] in data["bank_functions"]
        assert data["geometry"]["generation"] == "DDR3"

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        save_mapping(preset("No.4").mapping, path)
        parsed = json.loads(path.read_text())
        assert parsed["format"] == "dramdig-mapping-v1"

    def test_wrong_format_rejected(self):
        with pytest.raises(MappingError, match="format"):
            mapping_from_dict({"format": "something-else"})

    def test_corrupted_document_fails_validation(self):
        data = mapping_to_dict(preset("No.1").mapping)
        data["row_bits"] = data["row_bits"][:-1]  # drop a row bit
        with pytest.raises(MappingError):
            mapping_from_dict(data)


class TestBeliefRoundtrip:
    def test_roundtrip(self):
        belief = BeliefMapping.from_mapping(preset("No.2").mapping)
        restored = belief_from_dict(belief_to_dict(belief))
        assert restored == belief

    def test_invalid_belief_still_roundtrips(self):
        """Beliefs are unvalidated on purpose — garbage in, same garbage
        out."""
        belief = BeliefMapping(
            address_bits=33,
            bank_functions=(1 << 5,),
            row_bits=(30, 31),
            column_bits=(0,),
        )
        assert belief_from_dict(belief_to_dict(belief)) == belief

    def test_wrong_format_rejected(self):
        with pytest.raises(MappingError):
            belief_from_dict({"format": "dramdig-mapping-v1"})

    @given(st.sampled_from(sorted(PRESETS)))
    @settings(max_examples=9, deadline=None)
    def test_belief_dict_is_json_safe(self, name):
        data = belief_to_dict(BeliefMapping.from_mapping(PRESETS[name].mapping))
        assert belief_from_dict(json.loads(json.dumps(data))) is not None


class TestBackwardCompatibility:
    """Documents written by earlier releases must load."""

    # A verbatim dramdig-mapping-v1 document (machine No.1's layout) as
    # written by save_mapping() in an earlier release: it must keep
    # loading — and must compile.
    _V1_DOCUMENT = """
    {
      "format": "dramdig-mapping-v1",
      "geometry": {
        "generation": "DDR3",
        "total_bytes": 8589934592,
        "channels": 1,
        "dimms_per_channel": 1,
        "ranks_per_dimm": 2,
        "banks_per_rank": 8,
        "row_bytes": 8192,
        "ecc": false
      },
      "bank_functions": [[6], [14, 17], [15, 18], [16, 19]],
      "row_bits": [17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
                   30, 31, 32],
      "column_bits": [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13]
    }
    """

    def test_pre_compiled_mapping_document_loads(self):
        mapping = mapping_from_dict(json.loads(self._V1_DOCUMENT))
        assert mapping.equivalent_to(preset("No.1").mapping)
        compiled = mapping.compiled
        assert compiled.invertible
        assert compiled.translate_one(1 << 6).bank == 1
