"""The DRAMDig pipeline orchestrator (paper Figure 1).

Runs the three steps in order against a simulated machine:

1. gather domain knowledge (parse dmidecode, consult the DDR spec),
2. allocate a large buffer and calibrate the timing probe,
3. Step 1 (coarse row/column detection), Algorithm 1 (selection),
   Algorithm 2 (partition), Algorithm 3 (bank functions), Step 3 (fine
   detection),
4. assemble and *validate* the recovered mapping — validation (coverage,
   GF(2) independence, bijectivity) is itself knowledge-assisted checking:
   a noise-corrupted run cannot silently produce garbage, it fails
   validation and is retried with stronger noise suppression.

The tool's own randomness (pivot choices, pair sampling) comes from a
fixed seed, so the recovered mapping is a deterministic function of the
machine — the property the paper's Table I claims for DRAMDig and denies
for DRAMA.

Two recovery layers wrap the steps, both off by default (seed behaviour)
and both seeded-deterministic when enabled:

* a **per-step retry policy** (:class:`~repro.faults.recovery.RecoveryPolicy`)
  retries a failed step in place after a simulated backoff sleep, so a
  transient condition (refresh storm, sticky mis-read window) expires
  without discarding the phases already completed;
* the classic **whole-pipeline restart** escalates measurement repeats
  when a pass fails validation outright.

Every recovery action lands as a structured
:class:`~repro.faults.recovery.DegradationEvent` on the result, so
"converged" and "converged after fighting the machine" are
distinguishable. :meth:`DramDigConfig.resilient` turns the whole recovery
stack on — step retries, probe recalibration-on-drift, partition
escalation.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.core.bankfuncs import detect_bank_functions
from repro.core.coarse import CoarseDetector
from repro.core.fine import FineDetector
from repro.core.knowledge import DomainKnowledge
from repro.core.partition import PartitionConfig, partition_pool
from repro.core.probe import LatencyProbe, ProbeConfig
from repro.core.result import DramDigResult
from repro.core.selection import select_addresses
from repro.dram.errors import (
    CalibrationError,
    FineDetectionError,
    FunctionSearchError,
    MappingError,
    PartitionError,
    ReproError,
    SelectionError,
)
from repro.dram.mapping import AddressMapping
from repro.faults.recovery import DegradationEvent, RecoveryPolicy
from repro.machine.machine import SimulatedMachine
from repro.machine.sysinfo import gather_system_info
from repro.obs import telemetry
from repro.obs import tracing as obs

__all__ = ["DramDig", "DramDigConfig"]

# Simulated cost of faulting in and touching one byte of the buffer
# (page-fault + zeroing throughput of roughly 2.9 GiB/s).
_ALLOC_NS_PER_BYTE = 0.33

_T = TypeVar("_T")


@dataclass(frozen=True)
class DramDigConfig:
    """Tool configuration (defaults reproduce the paper's settings).

    Attributes:
        probe: measurement policy.
        partition: Algorithm 2 tolerances (delta=0.2, per_threshold=85%).
        alloc_fraction: fraction of physical memory to allocate; row bits
            near the top of the address space need a buffer larger than
            half of memory to be probed at all.
        alloc_strategy: allocation behaviour to request from the OS.
        coarse_votes: majority-vote width for Steps 1 and 3.
        conflict_recheck_sweeps: doubling-backoff re-measurement rungs
            applied to conflict verdicts in Steps 1 and 3 (0 = trust the
            vote). Defeats sticky transient mis-reads, which can only turn
            fast reads slow and cannot survive a re-measurement once their
            stickiness window expires.
        function_strategy: Algorithm 3 implementation ("nullspace" or the
            paper-literal "enumerate").
        tool_seed: the tool's internal RNG seed — fixed, hence determinism.
        max_retries: pipeline restarts allowed on validation failure, with
            measurement repeats escalated each time.
        recovery: per-step retry policy (default: retry nothing).
    """

    probe: ProbeConfig = ProbeConfig()
    partition: PartitionConfig = PartitionConfig()
    alloc_fraction: float = 0.85
    alloc_strategy: str = "contiguous"
    coarse_votes: int = 2
    conflict_recheck_sweeps: int = 0
    function_strategy: str = "nullspace"
    tool_seed: int = 0xD16
    max_retries: int = 2
    recovery: RecoveryPolicy = RecoveryPolicy()

    def __post_init__(self) -> None:
        if not 0 < self.alloc_fraction <= 1:
            raise ValueError("alloc_fraction must be in (0, 1]")
        if self.conflict_recheck_sweeps < 0:
            raise ValueError("conflict_recheck_sweeps must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    @classmethod
    def resilient(cls, base: "DramDigConfig | None" = None) -> "DramDigConfig":
        """A configuration with the full recovery stack enabled.

        Turns on probe recalibration-on-drift, partition re-verification
        escalation and round-budget escalation, per-step retries with
        backoff, and a deeper whole-pipeline restart budget. All recovery
        actions draw from fixed-seed private RNG streams, so the recovered
        mapping stays a deterministic function of the machine.
        """
        base = base if base is not None else cls()
        return dataclasses.replace(
            base,
            probe=dataclasses.replace(base.probe, max_recalibrations=64),
            partition=dataclasses.replace(
                base.partition, max_verify_sweeps=6, max_escalations=3
            ),
            conflict_recheck_sweeps=4,
            recovery=RecoveryPolicy(step_retries=4),
            max_retries=max(base.max_retries, 4),
        )


class DramDig:
    """The knowledge-assisted reverse-engineering tool."""

    def __init__(self, config: DramDigConfig | None = None):
        self.config = config if config is not None else DramDigConfig()

    def run(self, machine: SimulatedMachine) -> DramDigResult:
        """Reverse-engineer ``machine``'s DRAM address mapping.

        Raises:
            ReproError: when every retry fails (in practice: noise far
                beyond what the escalation handles, or a broken setup).
        """
        config = self.config
        degradation: list[DegradationEvent] = []
        last_error: ReproError | None = None
        run_start = machine.stats.measurements
        with obs.span("dramdig", clock=machine.clock) as run_span:
            try:
                for attempt in range(config.max_retries + 1):
                    attempt_start = machine.stats.measurements
                    with obs.span(
                        f"attempt-{attempt + 1}", clock=machine.clock
                    ) as attempt_span:
                        try:
                            result = self._run_once(machine, config, degradation)
                            result.retries = attempt
                            result.degradation = degradation
                            return result
                        except (
                            CalibrationError,
                            SelectionError,
                            PartitionError,
                            FunctionSearchError,
                            FineDetectionError,
                            MappingError,
                        ) as error:
                            # CalibrationError and SelectionError join the
                            # restart set only once the step-retry policy is
                            # active; the seed pipeline's fail-fast contract
                            # for a broken timing loop or an unusable
                            # allocation is kept.
                            if not config.recovery.enabled and isinstance(
                                error, (CalibrationError, SelectionError)
                            ):
                                raise
                            last_error = error
                            degradation.append(
                                obs.note_event(
                                    DegradationEvent(
                                        step="pipeline",
                                        action="restart",
                                        attempt=attempt + 1,
                                        detail=str(error),
                                        span=obs.current_path(),
                                    )
                                )
                            )
                            attempt_span.set("restarted", type(error).__name__)
                            # Escalate noise suppression and try again.
                            config = dataclasses.replace(
                                config,
                                probe=dataclasses.replace(
                                    config.probe, repeats=config.probe.repeats + 1
                                ),
                            )
                        finally:
                            attempt_span.set(
                                "measurements",
                                machine.stats.measurements - attempt_start,
                            )
                raise ReproError(
                    f"DRAMDig failed after {self.config.max_retries + 1} attempts: "
                    f"{last_error}"
                ) from last_error
            finally:
                run_span.set(
                    "measurements", machine.stats.measurements - run_start
                )

    # ----------------------------------------------------------- single pass

    def _run_once(
        self,
        machine: SimulatedMachine,
        config: DramDigConfig,
        degradation: list[DegradationEvent],
    ) -> DramDigResult:
        rng = np.random.default_rng(config.tool_seed)
        clock = machine.clock
        phase_seconds: dict[str, float] = {}
        start_ns = clock.checkpoint()

        @contextmanager
        def phase(name: str):
            """One pipeline phase: clock mark + tracing span + accounting.

            The measurement delta attached to the span is what makes the
            trace's accounting telescopic: phase deltas sum to their
            attempt's delta, attempt deltas to the run's.
            """
            mark = clock.checkpoint()
            before = machine.stats.measurements
            with obs.span(name, clock=clock) as span_scope:
                try:
                    yield span_scope
                finally:
                    span_scope.set(
                        "measurements", machine.stats.measurements - before
                    )
                    phase_seconds[name] = clock.since(mark) / 1e9
                    if telemetry.current_bus() is not None:
                        # Live heartbeat: both values are deterministic
                        # functions of the run, so jobs=1 and jobs=N
                        # streams stay equivalent modulo wall clock.
                        telemetry.emit(
                            "phase",
                            phase=name,
                            measurements=machine.stats.measurements - before,
                            sim_ns=clock.since(mark),
                        )

        def step(name: str, errors: tuple[type[ReproError], ...], fn: Callable[[], _T]) -> _T:
            return _run_step(
                name, fn, errors, machine, config.recovery, degradation
            )

        # Knowledge + allocation.
        with phase("allocate"):
            knowledge = DomainKnowledge.gather(
                gather_system_info(
                    machine.dmidecode_text(), machine.decode_dimms_text()
                )
            )
            pages = machine.allocate(
                int(machine.total_bytes * config.alloc_fraction),
                config.alloc_strategy,
            )
            machine.charge_analysis(pages.byte_count * _ALLOC_NS_PER_BYTE)

        # Probe calibration.
        with phase("calibrate"):
            probe = LatencyProbe(machine, config.probe)
            step("calibrate", (CalibrationError,), lambda: probe.calibrate(pages, rng))

        # Step 1 — coarse detection.
        with phase("coarse"):
            coarse = step(
                "coarse",
                (SelectionError,),
                lambda: CoarseDetector(
                    probe,
                    pages,
                    knowledge.address_bits,
                    rng,
                    votes=config.coarse_votes,
                    recheck_sweeps=config.conflict_recheck_sweeps,
                ).detect(),
            )

        # Step 2 — Algorithm 1: selection. Degenerate pools (fewer than
        # two addresses per bank — machines whose functions are single
        # bits, e.g. AMD with bank swizzle off) are padded by admitting
        # the lowest row bits into the selection range: their variation
        # adds same-bank partners to every pile without enlarging the
        # candidate function space.
        with phase("select") as select_span:
            selection_bits = coarse.bank_bits
            selection = select_addresses(pages, selection_bits)
            for row_bit in coarse.row_bits:
                if len(selection) >= 2 * knowledge.total_banks:
                    break
                selection_bits = tuple(sorted(selection_bits + (row_bit,)))
                selection = select_addresses(pages, selection_bits)
            select_span.set("pool", len(selection))

        # Step 2 — Algorithm 2: partition.
        with phase("partition") as partition_span:
            partition = step(
                "partition",
                (PartitionError,),
                lambda: partition_pool(
                    probe, selection.pool, knowledge.total_banks, rng, config.partition
                ),
            )
            partition_span.set("piles", partition.pile_count)
            partition_span.set("rounds", partition.rounds)
            if partition.ran_dry:
                degradation.append(
                    obs.note_event(
                        DegradationEvent(
                            step="partition",
                            action="ran-dry",
                            detail=(
                                f"{partition.pile_count}/{knowledge.total_banks} "
                                f"piles before the pool ran out"
                            ),
                            span=obs.current_path(),
                        )
                    )
                )
            if partition.escalations:
                degradation.append(
                    obs.note_event(
                        DegradationEvent(
                            step="partition",
                            action="escalated",
                            attempt=partition.escalations,
                            detail=(
                                f"{partition.escalations} extra round budgets, "
                                f"{partition.verify_resweeps} re-verification sweeps"
                            ),
                            span=obs.current_path(),
                        )
                    )
                )

        # Step 2 — Algorithm 3: bank address functions.
        with phase("functions") as functions_span:
            search = step(
                "functions",
                (FunctionSearchError,),
                lambda: detect_bank_functions(
                    partition.piles,
                    selection_bits,
                    knowledge.num_bank_functions,
                    knowledge.total_banks,
                    strategy=config.function_strategy,
                ),
            )
            functions_span.set("candidates", len(search.candidates))
            functions_span.set("functions", len(search.functions))

        # Step 3 — fine-grained detection.
        with phase("fine"):
            fine = step(
                "fine",
                (FineDetectionError,),
                lambda: FineDetector(
                    probe,
                    knowledge,
                    pages,
                    rng,
                    votes=config.coarse_votes,
                    recheck_sweeps=config.conflict_recheck_sweeps,
                ).detect(coarse, search.functions),
            )

        degradation.extend(probe.events)

        # Assemble + validate (raises MappingError on an inconsistent result).
        geometry = _geometry_from_knowledge(knowledge)
        mapping = AddressMapping(
            geometry=geometry,
            bank_functions=search.functions,
            row_bits=fine.row_bits,
            column_bits=fine.column_bits,
        )

        # Compile once at recovery time and publish to the process-wide
        # translation service, keyed by the mapping's content fingerprint.
        from repro.service.translation import default_service

        translation_key = default_service().publish(mapping)

        return DramDigResult(
            mapping=mapping,
            total_seconds=clock.since(start_ns) / 1e9,
            phase_seconds=phase_seconds,
            measurements=machine.stats.measurements,
            pool_size=len(selection),
            raw_pool_size=selection.raw_count,
            pile_count=partition.pile_count,
            partition_rounds=partition.rounds,
            partition_stop_reason=partition.stop_reason,
            coarse=coarse,
            fine=fine,
            translation_key=translation_key,
        )


def _run_step(
    name: str,
    fn: Callable[[], _T],
    retriable: tuple[type[ReproError], ...],
    machine: SimulatedMachine,
    policy: RecoveryPolicy,
    degradation: list[DegradationEvent],
) -> _T:
    """Run one pipeline step under the per-step retry policy.

    With the default policy this is a transparent call. Otherwise a
    retriable failure sleeps simulated time (exponential backoff) and
    re-runs the step in place; the backoff is what lets time-windowed
    faults — storms, sticky mis-reads — expire between attempts.
    """
    backoff_s = policy.backoff_initial_s
    for attempt in range(policy.step_retries + 1):
        try:
            return fn()
        except retriable as error:
            if attempt >= policy.step_retries:
                raise
            degradation.append(
                obs.note_event(
                    DegradationEvent(
                        step=name,
                        action="retry",
                        attempt=attempt + 1,
                        detail=str(error),
                        backoff_s=backoff_s,
                        span=obs.current_path(),
                    )
                )
            )
            obs.inc(f"pipeline.step_retries.{name}")
            machine.charge_analysis(backoff_s * 1e9)
            backoff_s *= policy.backoff_multiplier
    raise AssertionError("unreachable")  # pragma: no cover


def _geometry_from_knowledge(knowledge: DomainKnowledge):
    """Build the machine geometry DRAMDig believes in from its knowledge."""
    from repro.dram.geometry import DramGeometry

    info = knowledge.info
    return DramGeometry(
        generation=info.generation,
        total_bytes=info.total_bytes,
        channels=info.channels,
        dimms_per_channel=info.dimms_per_channel,
        ranks_per_dimm=info.ranks_per_dimm,
        banks_per_rank=info.banks_per_rank,
        row_bytes=knowledge.row_bytes,
        ecc=info.ecc,
    )
