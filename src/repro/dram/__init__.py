"""DRAM substrate: spec knowledge, geometry, address mappings, presets."""

from repro.dram.errors import (
    AllocationError,
    CalibrationError,
    FineDetectionError,
    FunctionSearchError,
    GeometryError,
    MappingError,
    PartitionError,
    ReproError,
    SelectionError,
    SingularMappingError,
    ToolStuckError,
    ToolTimeoutError,
)
from repro.dram.amd import amd_family15h_mapping, amd_reference_geometry
from repro.dram.belief import BeliefMapping
from repro.dram.compiled import CompiledMapping, compile_mapping
from repro.dram.ecc import EccOutcome, decode_word, encode_word
from repro.dram.explain import BitRole, explain_bit, explain_mapping
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import AddressMapping, DramAddress
from repro.dram.presets import PRESETS, TABLE2_ORDER, MachinePreset, preset, preset_names
from repro.dram.random_mapping import naive_mapping, random_geometry, random_mapping
from repro.dram.serialization import (
    belief_from_dict,
    belief_to_dict,
    load_mapping,
    mapping_from_dict,
    mapping_to_dict,
    save_mapping,
)
from repro.dram.spec import (
    ChipSpec,
    DdrGeneration,
    DdrTimings,
    chip_spec,
    default_timings,
    rank_page_bytes,
)

__all__ = [
    "AllocationError",
    "CalibrationError",
    "FineDetectionError",
    "FunctionSearchError",
    "GeometryError",
    "MappingError",
    "PartitionError",
    "ReproError",
    "SelectionError",
    "SingularMappingError",
    "ToolStuckError",
    "ToolTimeoutError",
    "CompiledMapping",
    "compile_mapping",
    "amd_family15h_mapping",
    "amd_reference_geometry",
    "BeliefMapping",
    "EccOutcome",
    "decode_word",
    "encode_word",
    "BitRole",
    "explain_bit",
    "explain_mapping",
    "naive_mapping",
    "random_geometry",
    "random_mapping",
    "belief_from_dict",
    "belief_to_dict",
    "load_mapping",
    "mapping_from_dict",
    "mapping_to_dict",
    "save_mapping",
    "DramGeometry",
    "AddressMapping",
    "DramAddress",
    "PRESETS",
    "TABLE2_ORDER",
    "MachinePreset",
    "preset",
    "preset_names",
    "ChipSpec",
    "DdrGeneration",
    "DdrTimings",
    "chip_spec",
    "default_timings",
    "rank_page_bytes",
]
