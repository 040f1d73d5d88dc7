"""Fleet orchestration: waves of machines over a shared knowledge store.

The orchestrator turns a fleet of :class:`~repro.fleet.spec.MachineSpec`
into grid cells (``repro.fleet.runner:run_fleet_cell``) and dispatches
them in *waves* through the grid engine (:func:`repro.parallel.run_cells`).
Between waves it folds the results back into the knowledge store: fresh
full-search mappings become new store entries, confirmations reset
circuit-breaker streaks, rejections feed them, and a tripped breaker
quarantines the hypothesis for the rest of the fleet (and, persisted,
for every later fleet). The first wave is exactly the family exemplars,
so a lookalike-heavy fleet pays each family's full search once and
confirms everything else.

Resume model — the run is crash-safe at two levels, both journal-backed:

* each machine cell is checkpointed by content fingerprint, so a
  SIGKILLed run resumed over the same journal re-executes only the
  missing machines;
* the knowledge store's *starting state* is journalled under a
  config-derived fingerprint before the first wave. A killed run leaves
  a store file with partial updates; replaying against that mutated
  state would offer different candidate lists, change cell fingerprints,
  and miss every checkpoint. Restoring the journalled baseline instead
  makes the resumed run bit-identical to an uninterrupted one.

The rendered artifact contains no filesystem paths and no wall-clock
values: it is a pure function of the fleet configuration, which is what
the kill/resume smoke's byte-identity assertion checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.dram.serialization import mapping_from_dict, mapping_to_dict
from repro.faults.recovery import DegradationEvent
from repro.fleet.breaker import CircuitBreaker
from repro.fleet.confirm import ConfirmConfig
from repro.fleet.runner import FleetMachineResult
from repro.fleet.spec import MachineSpec, adversarial_fleet, lookalike_fleet
from repro.fleet.store import KnowledgeStore, system_from_facts
from repro.logutil import get_logger
from repro.obs import telemetry
from repro.obs import tracing as obs
from repro.parallel import CellFailure, CheckpointJournal, GridCell, GridPolicy, run_cells
from repro.parallel.grid import fingerprint_payload

__all__ = ["FleetConfig", "FleetOutcome", "run_fleet", "render_fleet"]

FLEET_ARTIFACT_FORMAT = "dramdig-fleet-v1"

_LOG = get_logger("repro.fleet.orchestrator")


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run's policy.

    Attributes:
        size: machines in the fleet.
        families: distinct ground-truth mapping families.
        profile: ``"lookalike"`` (every machine matches its family) or
            ``"adversarial"`` (imposters mixed in, see
            :func:`~repro.fleet.spec.adversarial_fleet`).
        seed: fleet composition seed.
        max_gib: cap on family geometry size (None = paper-scale range).
        mismatch_every: imposter cadence for the adversarial profile.
        store_path: knowledge-store file (None = in-memory, forgotten
            after the run).
        journal_path: checkpoint journal enabling ``--resume``.
        jobs: grid parallelism (None/0/1 = serial).
        wave: machines per dispatch wave after the exemplar wave.
        max_candidates / min_similarity: store shortlist policy.
        breaker_threshold: consecutive rejections that quarantine a
            hypothesis.
        confirm: confirmation campaign policy.
        resilient: run fallback searches with the full recovery stack.
        supervision: grid supervision policy (None = defaults).
    """

    size: int = 8
    families: int = 2
    profile: str = "lookalike"
    seed: int = 0
    max_gib: int | None = 8
    mismatch_every: int = 3
    store_path: str | None = None
    journal_path: str | None = None
    jobs: int | None = None
    wave: int = 4
    max_candidates: int = 3
    min_similarity: float = 0.5
    breaker_threshold: int = 3
    confirm: ConfirmConfig = ConfirmConfig()
    resilient: bool = False
    supervision: GridPolicy | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("fleet size must be positive")
        if self.profile not in ("lookalike", "adversarial"):
            raise ValueError(f"unknown fleet profile {self.profile!r}")
        if self.wave < 1:
            raise ValueError("wave must be positive")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")

    def specs(self) -> list[MachineSpec]:
        """The fleet this config describes (pure function of the config)."""
        if self.profile == "adversarial":
            return adversarial_fleet(
                self.size,
                families=self.families,
                seed=self.seed,
                max_gib=self.max_gib,
                mismatch_every=self.mismatch_every,
            )
        return lookalike_fleet(
            self.size, families=self.families, seed=self.seed, max_gib=self.max_gib
        )

    def semantic_fingerprint(self) -> str:
        """Fingerprint of the fields that shape *results* (no paths, no
        parallelism): the store-baseline journal key."""
        return fingerprint_payload(
            "repro.fleet:config",
            {
                "size": self.size,
                "families": self.families,
                "profile": self.profile,
                "seed": self.seed,
                "max_gib": self.max_gib,
                "mismatch_every": self.mismatch_every,
                "max_candidates": self.max_candidates,
                "min_similarity": self.min_similarity,
                "breaker_threshold": self.breaker_threshold,
                "confirm": self.confirm,
                "resilient": self.resilient,
                "wave": self.wave,
            },
        )


@dataclass
class FleetOutcome:
    """Everything one fleet run produced.

    Attributes:
        config: the run's configuration.
        machines: per-machine results in fleet order; a machine whose
            cell failed outright holds its :class:`CellFailure`.
        events: degradation events the *orchestrator* observed —
            store-load drops, quarantines, cell failures. (Per-machine
            search degradations live on the machine results.)
        quarantined: hypothesis keys quarantined during this run.
        store_entries: knowledge-store size after the run.
        store_dropped: corrupt store records dropped at load.
    """

    config: FleetConfig
    machines: list
    events: list[DegradationEvent] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    store_entries: int = 0
    store_dropped: int = 0

    # ------------------------------------------------------------- summaries

    @property
    def results(self) -> list[FleetMachineResult]:
        """The machine results that completed (failures filtered out)."""
        return [
            result
            for result in self.machines
            if isinstance(result, FleetMachineResult)
        ]

    @property
    def failures(self) -> list[CellFailure]:
        return [item for item in self.machines if isinstance(item, CellFailure)]

    @property
    def all_correct(self) -> bool:
        """Every machine completed and recovered its true mapping."""
        return not self.failures and all(result.correct for result in self.results)

    def outcome_counts(self) -> dict:
        counts = {"confirmed": 0, "fallback": 0, "cold": 0, "failed": 0}
        for item in self.machines:
            if isinstance(item, FleetMachineResult):
                counts[item.outcome] += 1
            else:
                counts["failed"] += 1
        return counts

    def scaling_curve(self) -> list[dict]:
        """Amortized per-machine cost at fleet-size checkpoints.

        Checkpoints double from the family count up to the fleet size,
        measuring what the *prefix* fleet of that size would have cost.
        With exemplars front-loaded and the store warm afterwards, the
        amortized cost strictly decreases — the economics the knowledge
        store exists to buy.
        """
        results = self.results
        if not results or self.failures:
            return []
        sizes: list[int] = []
        mark = max(1, min(self.config.families, len(results)))
        while mark < len(results):
            sizes.append(mark)
            mark *= 2
        sizes.append(len(results))
        curve = []
        cumulative_measurements = 0
        cumulative_seconds = 0.0
        cursor = 0
        for size in sizes:
            while cursor < size:
                cumulative_measurements += results[cursor].measurements
                cumulative_seconds += results[cursor].sim_seconds
                cursor += 1
            curve.append(
                {
                    "machines": size,
                    "amortized_measurements": round(
                        cumulative_measurements / size, 2
                    ),
                    "amortized_sim_seconds": round(cumulative_seconds / size, 6),
                }
            )
        return curve

    # -------------------------------------------------------------- artifact

    def artifact(self) -> dict:
        """JSON-safe run artifact: pure function of the fleet config.

        Deliberately excludes filesystem paths, wall-clock readings,
        journal resume counts and store-load accidents — everything that
        can differ between an uninterrupted run and a killed-and-resumed
        one. Byte-identity of this artifact across those two runs is the
        resume contract the kill/resume smoke enforces.
        """
        results = self.results
        counts = self.outcome_counts()
        return {
            "format": FLEET_ARTIFACT_FORMAT,
            "fleet": {
                "size": self.config.size,
                "families": self.config.families,
                "profile": self.profile_label(),
                "seed": self.config.seed,
            },
            "machines": [
                (
                    {
                        "machine_id": item.machine_id,
                        "kind": item.kind,
                        "outcome": item.outcome,
                        "correct": item.correct,
                        "chosen_key": item.chosen_key,
                        "measurements": item.measurements,
                        "sim_seconds": item.sim_seconds,
                        "candidates_tried": len(item.verdicts),
                        "confirm_probes": sum(v.probes for v in item.verdicts),
                        "search_retries": item.search_retries,
                        "search_degradations": item.search_degradations,
                    }
                    if isinstance(item, FleetMachineResult)
                    else {
                        "machine_id": item.label,
                        "outcome": "failed",
                        "correct": False,
                        "reason": item.reason,
                    }
                )
                for item in self.machines
            ],
            "summary": {
                "outcomes": counts,
                "all_correct": self.all_correct,
                "quarantined": sorted(self.quarantined),
                "total_measurements": sum(r.measurements for r in results),
                "total_sim_seconds": round(
                    sum(r.sim_seconds for r in results), 6
                ),
                "confirm_probes": sum(
                    v.probes for r in results for v in r.verdicts
                ),
            },
            "scaling": self.scaling_curve(),
        }

    def profile_label(self) -> str:
        label = self.config.profile
        if label == "adversarial":
            label += f"(every={self.config.mismatch_every})"
        return label


def _candidate_payloads(store: KnowledgeStore, breaker: CircuitBreaker, spec, config):
    """Shortlist the store for one machine, as a JSON-safe cell payload."""
    from repro.fleet.spec import family_mapping
    from repro.machine.sysinfo import SystemInfo

    system = SystemInfo.from_geometry(family_mapping(spec.family_seed).geometry)
    candidates = []
    for entry in store.candidates_for(
        system, limit=config.max_candidates, min_similarity=config.min_similarity
    ):
        if breaker.is_open(entry.key):
            continue
        candidates.append(
            {"key": entry.key, "mapping": mapping_to_dict(entry.mapping)}
        )
    return candidates


def _wave_slices(size: int, families: int, wave: int) -> list[tuple[int, int]]:
    """Wave boundaries: the exemplars first, then fixed-size waves."""
    first = min(max(families, 1), size)
    slices = [(0, first)]
    start = first
    while start < size:
        end = min(start + wave, size)
        slices.append((start, end))
        start = end
    return slices


def run_fleet(config: FleetConfig) -> FleetOutcome:
    """Run the confirm-or-fallback protocol over a whole fleet."""
    specs = config.specs()
    journal = (
        CheckpointJournal(config.journal_path)
        if config.journal_path is not None
        else None
    )
    store = KnowledgeStore(config.store_path)
    events: list[DegradationEvent] = list(store.events)
    if journal is not None:
        events.extend(journal.load_events)

    # Pin the store baseline in the journal: a resumed run must shortlist
    # from the same starting state the killed run saw, or cell
    # fingerprints shift and every checkpoint is missed.
    if journal is not None:
        baseline_key = fingerprint_payload(
            "repro.fleet:store-baseline", {"config": config.semantic_fingerprint()}
        )
        hit, baseline = journal.lookup(baseline_key)
        if hit:
            store.reset_from_records(baseline)
            _LOG.info(
                "restored knowledge-store baseline (%d entr%s) from journal",
                len(store),
                "y" if len(store) == 1 else "ies",
            )
        else:
            journal.record(
                baseline_key, "repro.fleet:store-baseline", store.to_records()
            )

    breaker = CircuitBreaker(threshold=config.breaker_threshold)
    for entry in store.entries.values():
        breaker.seed(entry.key, entry.streak, entry.quarantined)

    quarantined: list[str] = []
    machines: list = []

    with obs.span("fleet") as fleet_span:
        fleet_span.set("size", config.size)
        fleet_span.set("profile", config.profile)
        for event in events:
            obs.note_event(event)

        slices = _wave_slices(config.size, config.families, config.wave)
        for wave_index, (start, end) in enumerate(slices):
            wave_specs = specs[start:end]
            # Progress status line: routed through repro.logutil (stderr),
            # so --quiet silences it and the stdout artefact is untouched.
            _LOG.info(
                "wave %d/%d: dispatching %d machine(s) (%d-%d of %d)",
                wave_index + 1,
                len(slices),
                len(wave_specs),
                start + 1,
                end,
                config.size,
            )
            cells = [
                GridCell(
                    "repro.fleet.runner:run_fleet_cell",
                    {
                        "name": spec.machine_id,
                        "spec": spec.to_payload(),
                        "candidates": _candidate_payloads(
                            store, breaker, spec, config
                        ),
                        "confirm": config.confirm,
                        "resilient": config.resilient,
                    },
                )
                for spec in wave_specs
            ]
            results = run_cells(
                cells,
                jobs=config.jobs,
                policy=config.supervision,
                journal=journal,
            ).results
            for spec, result in zip(wave_specs, results):
                machines.append(result)
                if isinstance(result, CellFailure):
                    event = DegradationEvent(
                        step="fleet",
                        action="machine-failed",
                        detail=result.describe(),
                    )
                    events.append(obs.note_event(event))
                    continue
                # Fold the verdicts into the store and the breaker.
                for verdict in result.verdicts:
                    if verdict.confirmed:
                        store.record_confirmation(verdict.key)
                        breaker.success(verdict.key)
                        continue
                    store.record_failure(verdict.key)
                    if breaker.failure(verdict.key):
                        store.quarantine(verdict.key)
                        quarantined.append(verdict.key)
                        obs.inc("fleet.quarantines")
                        event = DegradationEvent(
                            step="fleet",
                            action="quarantine",
                            detail=(
                                f"hypothesis {verdict.key[:12]} rejected "
                                f"{config.breaker_threshold} times in a row "
                                f"(last: {verdict.reason} on "
                                f"{result.machine_id})"
                            ),
                        )
                        events.append(obs.note_event(event))
                if result.mapping is not None:
                    # A full search proved a mapping on this machine:
                    # store it (rehabilitating a quarantined twin) and
                    # close its breaker.
                    try:
                        learned = mapping_from_dict(result.mapping)
                        system = system_from_facts(result.system)
                    except Exception as error:  # pragma: no cover - defensive
                        event = DegradationEvent(
                            step="fleet",
                            action="store-reject",
                            detail=f"{result.machine_id}: {error}",
                        )
                        events.append(obs.note_event(event))
                    else:
                        entry = store.add(
                            learned, system, source=result.machine_id
                        )
                        breaker.success(entry.key)
            store.save()

            wave_counts = {"confirmed": 0, "fallback": 0, "cold": 0, "failed": 0}
            for item in machines[start:end]:
                if isinstance(item, FleetMachineResult):
                    wave_counts[item.outcome] += 1
                else:
                    wave_counts["failed"] += 1
            _LOG.info(
                "wave %d/%d folded: %d confirmed, %d fallback, %d cold, "
                "%d failed; store holds %d entr%s",
                wave_index + 1,
                len(slices),
                wave_counts["confirmed"],
                wave_counts["fallback"],
                wave_counts["cold"],
                wave_counts["failed"],
                len(store),
                "y" if len(store) == 1 else "ies",
            )
            if telemetry.current_bus() is not None:
                telemetry.emit(
                    "wave",
                    wave=wave_index + 1,
                    waves=len(slices),
                    machines=len(wave_specs),
                    confirmed=wave_counts["confirmed"],
                    fallback=wave_counts["fallback"],
                    cold=wave_counts["cold"],
                    failed_machines=wave_counts["failed"],
                    store_entries=len(store),
                )

        fleet_span.set("quarantined", len(quarantined))
        fleet_span.set(
            "failed", sum(1 for item in machines if isinstance(item, CellFailure))
        )

    return FleetOutcome(
        config=config,
        machines=machines,
        events=events,
        quarantined=quarantined,
        store_entries=len(store),
        store_dropped=store.dropped_records,
    )


def render_fleet(outcome: FleetOutcome) -> str:
    """Deterministic text report of a fleet run (stdout artefact)."""
    config = outcome.config
    lines = [
        "DRAMDig fleet run",
        "=================",
        (
            f"fleet: {config.size} machines, {config.families} famil"
            f"{'y' if config.families == 1 else 'ies'}, "
            f"profile={outcome.profile_label()}, seed={config.seed}"
        ),
        "",
        f"{'machine':<9} {'kind':<10} {'outcome':<10} {'correct':<8} "
        f"{'tried':>5} {'probes':>12} {'sim-s':>10}",
    ]
    for item in outcome.machines:
        if isinstance(item, FleetMachineResult):
            lines.append(
                f"{item.machine_id:<9} {item.kind:<10} {item.outcome:<10} "
                f"{('yes' if item.correct else 'NO'):<8} "
                f"{len(item.verdicts):>5} {item.measurements:>12} "
                f"{item.sim_seconds:>10.3f}"
            )
        else:
            lines.append(
                f"{item.label:<9} {'-':<10} {'FAILED':<10} {'NO':<8} "
                f"{'-':>5} {'-':>12} {'-':>10}  ({item.reason})"
            )
    counts = outcome.outcome_counts()
    lines += [
        "",
        (
            f"outcomes: {counts['confirmed']} confirmed, "
            f"{counts['fallback']} fallback, {counts['cold']} cold, "
            f"{counts['failed']} failed"
        ),
        f"all correct: {'yes' if outcome.all_correct else 'NO'}",
        f"quarantined hypotheses: {len(outcome.quarantined)}",
    ]
    curve = outcome.scaling_curve()
    if curve:
        lines += ["", "amortized cost per machine (prefix fleets):"]
        for point in curve:
            lines.append(
                f"  {point['machines']:>4} machines: "
                f"{point['amortized_measurements']:>12.2f} measurements, "
                f"{point['amortized_sim_seconds']:>10.3f} sim-s"
            )
    return "\n".join(lines) + "\n"


def save_artifact(outcome: FleetOutcome, path: str | Path) -> None:
    """Write the JSON artifact atomically."""
    from repro.ioutil import atomic_write

    atomic_write(path, json.dumps(outcome.artifact(), indent=2) + "\n")
