"""Save and load mappings as JSON.

The end product of a DRAMDig run is the mapping itself; real users persist
it and feed it to their rowhammer tooling later. The format is plain JSON
with bank functions written as bit-position lists (the paper's notation),
so files are diffable and hand-editable:

.. code-block:: json

    {
      "format": "dramdig-mapping-v1",
      "geometry": {"generation": "DDR3", "total_bytes": 8589934592, ...},
      "bank_functions": [[6], [14, 17], [15, 18], [16, 19]],
      "row_bits": [17, 18, ..., 32],
      "column_bits": [0, 1, ..., 5, 7, ..., 13]
    }

``AddressMapping`` round-trips through validation; ``BeliefMapping`` (no
geometry, no validation) uses the sibling v1-belief format.

The compiled GF(2) form is not persisted: it is derived data, and
compiling a loaded mapping (``mapping.compiled``) costs less than loading
and revalidating a stored matrix pair would.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.bits import bits_of_mask, mask_of_bits
from repro.dram.belief import BeliefMapping
from repro.ioutil import atomic_write
from repro.dram.errors import MappingError
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import AddressMapping
from repro.dram.spec import DdrGeneration

__all__ = [
    "mapping_to_dict",
    "mapping_from_dict",
    "save_mapping",
    "load_mapping",
    "belief_to_dict",
    "belief_from_dict",
]

_MAPPING_FORMAT = "dramdig-mapping-v1"
_BELIEF_FORMAT = "dramdig-belief-v1"


def mapping_to_dict(mapping: AddressMapping) -> dict:
    """Serialise a validated mapping."""
    geometry = mapping.geometry
    return {
        "format": _MAPPING_FORMAT,
        "geometry": {
            "generation": str(geometry.generation),
            "total_bytes": geometry.total_bytes,
            "channels": geometry.channels,
            "dimms_per_channel": geometry.dimms_per_channel,
            "ranks_per_dimm": geometry.ranks_per_dimm,
            "banks_per_rank": geometry.banks_per_rank,
            "row_bytes": geometry.row_bytes,
            "ecc": geometry.ecc,
        },
        "bank_functions": [list(bits_of_mask(mask)) for mask in mapping.bank_functions],
        "row_bits": list(mapping.row_bits),
        "column_bits": list(mapping.column_bits),
    }


def mapping_from_dict(data: dict) -> AddressMapping:
    """Deserialise (and re-validate) a mapping.

    Raises:
        MappingError: on an unknown format marker or validation failure.
    """
    if data.get("format") != _MAPPING_FORMAT:
        raise MappingError(
            f"not a {_MAPPING_FORMAT} document (format={data.get('format')!r})"
        )
    geometry_data = data["geometry"]
    geometry = DramGeometry(
        generation=DdrGeneration(geometry_data["generation"]),
        total_bytes=geometry_data["total_bytes"],
        channels=geometry_data["channels"],
        dimms_per_channel=geometry_data["dimms_per_channel"],
        ranks_per_dimm=geometry_data["ranks_per_dimm"],
        banks_per_rank=geometry_data["banks_per_rank"],
        row_bytes=geometry_data.get("row_bytes", 8192),
        ecc=geometry_data.get("ecc", False),
    )
    return AddressMapping(
        geometry=geometry,
        bank_functions=tuple(
            mask_of_bits(bits) for bits in data["bank_functions"]
        ),
        row_bits=tuple(data["row_bits"]),
        column_bits=tuple(data["column_bits"]),
    )


def save_mapping(mapping: AddressMapping, path: str | Path) -> None:
    """Write a mapping to ``path`` as pretty-printed JSON (atomically:
    a crash mid-write leaves no truncated artefact)."""
    atomic_write(path, json.dumps(mapping_to_dict(mapping), indent=2) + "\n")


def load_mapping(path: str | Path) -> AddressMapping:
    """Read and validate a mapping from ``path``."""
    return mapping_from_dict(json.loads(Path(path).read_text()))


def belief_to_dict(belief: BeliefMapping) -> dict:
    """Serialise an unvalidated belief."""
    return {
        "format": _BELIEF_FORMAT,
        "address_bits": belief.address_bits,
        "bank_functions": [list(bits_of_mask(mask)) for mask in belief.bank_functions],
        "row_bits": list(belief.row_bits),
        "column_bits": list(belief.column_bits),
    }


def belief_from_dict(data: dict) -> BeliefMapping:
    """Deserialise a belief (no validation, by design)."""
    if data.get("format") != _BELIEF_FORMAT:
        raise MappingError(
            f"not a {_BELIEF_FORMAT} document (format={data.get('format')!r})"
        )
    return BeliefMapping(
        address_bits=data["address_bits"],
        bank_functions=tuple(mask_of_bits(bits) for bits in data["bank_functions"]),
        row_bits=tuple(data["row_bits"]),
        column_bits=tuple(data["column_bits"]),
    )
