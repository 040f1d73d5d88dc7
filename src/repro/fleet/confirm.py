"""Cheap vectorized confirmation of a cached mapping hypothesis.

A full DRAMDig search costs on the order of a million pair measurements;
checking whether a *known candidate* mapping fits a machine costs a few
hundred. The campaign plans two pair populations under the candidate
belief — pairs predicted to row-conflict (same believed bank, different
believed row) and pairs predicted fast (different believed bank) —
measures them all in one vectorized
:meth:`~repro.machine.machine.SimulatedMachine.measure_latency_pairs`
sweep, and asks a calibration-free rank question: are the top-K
latencies exactly the K pairs the belief predicted to conflict?

A correct belief separates the populations almost perfectly (the
row-conflict latency delta dwarfs the noise). A wrong belief — a
poisoned store entry, a stale family prior, an imposter machine that
merely *reports* the family's SystemInfo — mispredicts enough pairs
that the ranked agreement collapses towards 0.5, far below the purity
threshold. The protocol is asymmetric on purpose: rejecting a true
hypothesis costs one redundant full search; accepting a false one
poisons the fleet's output, so the purity bar is set high.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.belief import BeliefMapping
from repro.dram.compiled import CompiledMapping
from repro.machine.allocator import PhysPages
from repro.machine.machine import SimulatedMachine

__all__ = [
    "ConfirmConfig",
    "ConfirmOutcome",
    "plan_confirmation",
    "run_confirmation",
]


@dataclass(frozen=True)
class ConfirmConfig:
    """Confirmation campaign policy.

    Attributes:
        pairs: pairs per predicted class (total probes = 2 x pairs).
        sample: addresses drawn from the allocation to plan pairs from.
        purity: minimum ranked agreement to accept the hypothesis.
        alloc_fraction: fraction of physical memory to allocate for the
            campaign (fragmented pages; row coverage does not matter
            here, bank diversity does).
        seed_salt: mixed into the per-machine campaign RNG stream.
    """

    pairs: int = 96
    sample: int = 4096
    purity: float = 0.92
    alloc_fraction: float = 0.25
    seed_salt: int = 0xC0F1

    def __post_init__(self) -> None:
        if self.pairs < 8:
            raise ValueError("pairs must be at least 8 for a stable verdict")
        if self.sample < 4 * self.pairs:
            raise ValueError("sample must be at least 4x pairs")
        if not 0.5 < self.purity <= 1.0:
            raise ValueError("purity must be in (0.5, 1]")
        if not 0 < self.alloc_fraction <= 1:
            raise ValueError("alloc_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ConfirmOutcome:
    """Verdict of one confirmation campaign.

    Attributes:
        confirmed: the hypothesis survives.
        probes: pair measurements spent.
        agreement: fraction of the top-K latencies that were predicted
            conflicts (1.0 = perfect separation; ~0.5 = belief useless).
        reason: ``"confirmed"``, ``"disagreement"`` or ``"plan-failed"``
            (the belief could not even produce both pair populations).
    """

    confirmed: bool
    probes: int
    agreement: float
    reason: str


def plan_confirmation(
    belief: BeliefMapping,
    addrs: np.ndarray,
    pairs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Plan the campaign: (bases, partners, predicted_conflict).

    Builds ``pairs`` same-believed-bank / different-believed-row pairs
    and ``pairs`` different-believed-bank pairs from the sampled
    addresses, in a deterministic order. Returns None when the belief
    cannot supply both populations (degenerate bank structure — such a
    hypothesis cannot be confirmed and must fall back).
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    banks, rows, _ = CompiledMapping.from_belief(belief).translate(addrs)

    conflict_bases: list[int] = []
    conflict_partners: list[int] = []
    by_bank: dict[int, list[int]] = {}
    for index, bank in enumerate(banks.tolist()):
        bucket = by_bank.setdefault(bank, [])
        bucket.append(index)
    row_list = rows.tolist()
    addr_list = addrs.tolist()
    for bank in sorted(by_bank):
        bucket = by_bank[bank]
        cursor = 0
        while cursor + 1 < len(bucket) and len(conflict_bases) < pairs:
            left = bucket[cursor]
            # Find a partner in a different believed row.
            partner = None
            for probe in range(cursor + 1, len(bucket)):
                if row_list[bucket[probe]] != row_list[left]:
                    partner = bucket[probe]
                    break
            if partner is None:
                break
            conflict_bases.append(addr_list[left])
            conflict_partners.append(addr_list[partner])
            cursor += 2
        if len(conflict_bases) >= pairs:
            break

    fast_bases: list[int] = []
    fast_partners: list[int] = []
    bank_list = banks.tolist()
    cursor = 0
    while cursor + 1 < len(addr_list) and len(fast_bases) < pairs:
        if bank_list[cursor] != bank_list[cursor + 1]:
            fast_bases.append(addr_list[cursor])
            fast_partners.append(addr_list[cursor + 1])
            cursor += 2
        else:
            cursor += 1

    if len(conflict_bases) < pairs or len(fast_bases) < pairs:
        return None
    bases = np.array(conflict_bases + fast_bases, dtype=np.uint64)
    partners = np.array(conflict_partners + fast_partners, dtype=np.uint64)
    predicted = np.zeros(bases.shape, dtype=bool)
    predicted[: len(conflict_bases)] = True
    return bases, partners, predicted


def run_confirmation(
    machine: SimulatedMachine,
    pages: PhysPages,
    belief: BeliefMapping,
    rng: np.random.Generator,
    config: ConfirmConfig | None = None,
) -> ConfirmOutcome:
    """Run one confirmation campaign against a live machine.

    The verdict is calibration-free: with K pairs predicted to conflict,
    the K largest measured latencies must be (almost exactly) those
    pairs. No threshold is fitted, so the campaign spends nothing on
    calibration and cannot be skewed by a drifting probe baseline.
    """
    config = config if config is not None else ConfirmConfig()
    addrs = pages.sample_addresses(config.sample, rng)
    plan = plan_confirmation(belief, addrs, config.pairs)
    if plan is None:
        return ConfirmOutcome(
            confirmed=False, probes=0, agreement=0.0, reason="plan-failed"
        )
    bases, partners, predicted = plan
    latencies = machine.measure_latency_pairs(bases, partners)
    conflict_count = int(predicted.sum())
    ranked = np.argsort(latencies, kind="stable")
    top = ranked[-conflict_count:]
    agreement = float(predicted[top].mean())
    confirmed = agreement >= config.purity
    return ConfirmOutcome(
        confirmed=confirmed,
        probes=int(bases.size),
        agreement=round(agreement, 6),
        reason="confirmed" if confirmed else "disagreement",
    )
