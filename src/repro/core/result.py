"""Result types for a DRAMDig run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.bits import format_mask
from repro.core.coarse import CoarseResult
from repro.core.fine import FineResult
from repro.dram.mapping import AddressMapping
from repro.faults.recovery import DegradationEvent

__all__ = ["DramDigResult"]


@dataclass
class DramDigResult:
    """Everything a DRAMDig run produces.

    Attributes:
        mapping: the recovered (validated) address mapping.
        total_seconds: simulated wall-clock cost of the whole run.
        phase_seconds: per-phase simulated seconds (allocate / calibrate /
            coarse / select / partition / functions / fine).
        measurements: total pair-latency measurements performed.
        pool_size: unique addresses selected by Algorithm 1.
        raw_pool_size: Algorithm 1 pool before alias deduplication (the
            count the paper quotes in Section IV-B).
        pile_count: piles accepted by Algorithm 2.
        partition_rounds: pivots tried by Algorithm 2.
        partition_stop_reason: why Algorithm 2 exited ("complete",
            "threshold", or "pool-exhausted").
        coarse: Step 1 classification.
        fine: Step 3 completion.
        retries: pipeline restarts needed (0 in a clean run).
        degradation: recovery actions taken to reach convergence (step
            retries, probe recalibrations, partition escalations, pipeline
            restarts) — empty in a clean run.
        translation_key: the recovered mapping's content fingerprint
            (:func:`~repro.service.translation.mapping_fingerprint`), the
            key under which its compiled form is published to the
            process-wide
            :class:`~repro.service.translation.TranslationService`
            (empty for results built outside the pipeline).
    """

    mapping: AddressMapping
    total_seconds: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    measurements: int = 0
    pool_size: int = 0
    raw_pool_size: int = 0
    pile_count: int = 0
    partition_rounds: int = 0
    partition_stop_reason: str = ""
    coarse: CoarseResult | None = None
    fine: FineResult | None = None
    retries: int = 0
    degradation: list[DegradationEvent] = field(default_factory=list)
    translation_key: str = ""

    @property
    def compiled(self):
        """The recovered mapping's compiled GF(2) matrix pair.

        Delegates to :attr:`AddressMapping.compiled`, which is cached on
        the mapping instance — the pipeline already paid the compile at
        recovery time, so this is a plain attribute read afterwards.
        """
        return self.mapping.compiled

    @property
    def degraded(self) -> bool:
        """True when any recovery machinery fired during the run."""
        return bool(self.degradation)

    @property
    def degradation_summary(self) -> str:
        """One line describing every recovery action, empty when clean.

        The same sentence :meth:`summary` prints; exposed separately so
        grid cells and supervisors can log it without re-deriving the
        join from the raw event list.
        """
        if not self.degradation:
            return ""
        return (
            f"{len(self.degradation)} recovery actions "
            f"({'; '.join(event.describe() for event in self.degradation)})"
        )

    @property
    def bank_functions(self) -> tuple[int, ...]:
        """The recovered bank address functions."""
        return self.mapping.bank_functions

    def summary(self) -> str:
        """Multi-line human-readable report (what the CLI prints)."""
        functions = ", ".join(format_mask(m) for m in self.mapping.bank_functions)
        lines = [
            f"recovered in {self.total_seconds:.1f} simulated seconds "
            f"({self.measurements} measurements, {self.retries} retries)",
            f"bank functions: {functions}",
            self.mapping.describe().splitlines()[1],
            self.mapping.describe().splitlines()[2],
            f"pool: {self.pool_size} unique addresses "
            f"({self.raw_pool_size} raw), {self.pile_count} piles "
            f"in {self.partition_rounds} rounds",
        ]
        phases = ", ".join(
            f"{name} {seconds:.1f}s" for name, seconds in self.phase_seconds.items()
        )
        lines.append(f"phases: {phases}")
        if self.degraded:
            lines.append(f"degraded: {self.degradation_summary}")
        return "\n".join(lines)
