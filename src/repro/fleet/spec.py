"""Simulated fleet composition: families, lookalikes and imposters.

A fleet is a list of :class:`MachineSpec`, each naming the *family* it
belongs to (a seed that deterministically expands to a geometry and a
ground-truth mapping via :mod:`repro.dram.random_mapping`) and a
per-machine seed for the machine's own noise stream. Lookalikes share
their family's mapping exactly — the situation the knowledge store
exploits. A ``mismatch`` machine is the adversarial case: it reports the
*same* :class:`~repro.machine.sysinfo.SystemInfo` facts as its family
(same geometry, same DIMMs) but its controller wires a different
mapping, so a cached family hypothesis looks perfect by similarity and
is only caught by the confirmation probes.

Everything here is a pure function of seeds: the orchestrator's parent
process and its grid workers both call :func:`materialize_mapping` from
the spec payload and get bit-identical ground truth, which is what lets
fleet cells run under the content-fingerprinted checkpoint journal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from repro.dram.mapping import AddressMapping
from repro.dram.random_mapping import MIN_GIB, random_geometry, random_mapping

__all__ = [
    "MachineSpec",
    "adversarial_fleet",
    "family_mapping",
    "lookalike_fleet",
    "materialize_mapping",
]

GIB = 2**30

# Salt mixed into family seeds so fleet seed 0 / family 0 is not the
# same RNG stream as a user's hand-built default_rng(0) machine.
_FAMILY_SALT = 0x5EED_F1EE7


@dataclass(frozen=True)
class MachineSpec:
    """One machine of a simulated fleet.

    Attributes:
        machine_id: stable human-readable id ("m003").
        family_seed: seed expanding to the family's geometry + mapping.
        machine_seed: the machine's own noise/allocation seed.
        kind: ``"lookalike"`` (ground truth == family mapping) or
            ``"mismatch"`` (same SystemInfo, different mapping).
        variant: selects which mismatch deformation to apply (ignored
            for lookalikes).
    """

    machine_id: str
    family_seed: int
    machine_seed: int
    kind: str = "lookalike"
    variant: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("lookalike", "mismatch"):
            raise ValueError(f"unknown machine kind {self.kind!r}")

    def to_payload(self) -> dict:
        """JSON/pickle-safe dict form for grid-cell payloads."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "MachineSpec":
        return cls(**payload)


@lru_cache(maxsize=256)
def family_mapping(family_seed: int) -> AddressMapping:
    """The family's ground-truth mapping (deterministic in the seed)."""
    rng = np.random.default_rng(family_seed)
    geometry = random_geometry(rng)
    return random_mapping(rng, geometry)


def _mismatch_mapping(base: AddressMapping, variant: int) -> AddressMapping:
    """A valid mapping that shares ``base``'s geometry but differs.

    Toggles one *row* bit in one bank function. The functions' projection
    onto the non-row, non-column bits is untouched, so the matrix stays a
    bijection and the functions stay independent; but a lone row bit is
    never inside the old span (its projection is zero, every nonzero
    combination's is not), so the bank span — and hence every same-bank
    prediction — provably changes. Row and column membership are left
    alone on purpose: deforming a column bit can make the column-versus-
    hash-bit classification genuinely ambiguous, and an imposter must be
    *learnable* by the fallback search, just not confirmable from the
    family prior. The machine's SystemInfo is a function of the geometry
    alone, so the imposter is indistinguishable until probed.
    """
    functions = list(base.bank_functions)
    index = variant % len(functions)
    row = base.row_bits[(variant // len(functions)) % len(base.row_bits)]
    functions[index] ^= 1 << row
    return AddressMapping(
        geometry=base.geometry,
        bank_functions=tuple(functions),
        row_bits=base.row_bits,
        column_bits=base.column_bits,
    )


def materialize_mapping(spec: MachineSpec) -> AddressMapping:
    """Ground-truth mapping of one fleet machine (pure function of spec)."""
    base = family_mapping(spec.family_seed)
    if spec.kind == "lookalike":
        return base
    return _mismatch_mapping(base, spec.variant)


def _family_seeds(seed: int, families: int, max_gib: int | None) -> list[int]:
    """Deterministic family seeds, optionally capped by memory size.

    ``max_gib`` exists so tests and the CLI can keep fleets on small
    geometries (a 32 GiB machine costs real wall-clock in the allocator
    and the search) without losing determinism: candidates are scanned
    in a fixed order and filtered, never sampled. A cap below
    :data:`~repro.dram.random_mapping.MIN_GIB` admits no geometry, so
    it is refused rather than scanned forever.
    """
    if families < 1:
        raise ValueError("families must be positive")
    if max_gib is not None and max_gib < MIN_GIB:
        raise ValueError(f"max_gib must be at least {MIN_GIB} (got {max_gib})")
    seeds: list[int] = []
    candidate = 0
    while len(seeds) < families:
        family_seed = _FAMILY_SALT + (seed << 16) + candidate
        candidate += 1
        if max_gib is not None:
            geometry = random_geometry(np.random.default_rng(family_seed))
            if geometry.total_bytes > max_gib * GIB:
                continue
        seeds.append(family_seed)
    return seeds


def _machine_seed(seed: int, index: int) -> int:
    return (seed << 24) + 7919 * index + 13


def lookalike_fleet(
    size: int,
    families: int = 2,
    seed: int = 0,
    max_gib: int | None = None,
) -> list[MachineSpec]:
    """A lookalike-heavy fleet: every machine truly matches its family.

    The first ``families`` machines are the family exemplars (the cold
    starts); the rest cycle round-robin through the families. With the
    exemplars front-loaded, the amortized per-machine cost is strictly
    decreasing once the exemplars are paid — the scaling-curve shape the
    ROADMAP's success metric asks for.
    """
    if size < 1:
        raise ValueError("fleet size must be positive")
    families = min(families, size)
    seeds = _family_seeds(seed, families, max_gib)
    specs = []
    for index in range(size):
        specs.append(
            MachineSpec(
                machine_id=f"m{index:03d}",
                family_seed=seeds[index % families],
                machine_seed=_machine_seed(seed, index),
            )
        )
    return specs


def adversarial_fleet(
    size: int,
    families: int = 2,
    seed: int = 0,
    max_gib: int | None = None,
    mismatch_every: int = 3,
) -> list[MachineSpec]:
    """A hostile fleet: every ``mismatch_every``-th lookalike is an imposter.

    Imposters report their family's SystemInfo but wire a different
    mapping, so similarity ranks the family hypothesis first and only
    the confirmation probes can reject it. Family exemplars stay genuine
    (index < ``families``) so the store does learn real priors to
    defend.
    """
    if mismatch_every < 2:
        raise ValueError("mismatch_every must be at least 2")
    specs = lookalike_fleet(size, families, seed, max_gib)
    adversarial = []
    for index, spec in enumerate(specs):
        if index >= min(families, size) and index % mismatch_every == 0:
            spec = MachineSpec(
                machine_id=spec.machine_id,
                family_seed=spec.family_seed,
                machine_seed=spec.machine_seed,
                kind="mismatch",
                variant=index,
            )
        adversarial.append(spec)
    return adversarial
