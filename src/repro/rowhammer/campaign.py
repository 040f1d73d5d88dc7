"""Blacksmith-style rowhammer campaign fuzzer over the supervised grid.

DRAMDig's stated end-use is rowhammer vulnerability assessment;
large-scale flip-yield characterization (DRAMScope, X-ray, blacksmith)
sweeps hammering patterns across device configurations to map where
flips actually come from. This module reproduces that shape in
simulation: a :class:`CampaignSpec` enumerates a deterministic sweep
space — hammering variants × mitigation stacks (TRR / ECC combinations)
× machine presets × per-combination test seeds — and every trial becomes
one :class:`~repro.parallel.GridCell` run by the grid engine
(:func:`repro.parallel.run_cells`). That buys the campaign everything
the scale layers already provide:

* crash-safe supervision (worker-death quarantine, per-cell timeouts,
  retries) with failed trials carried as first-class
  :class:`~repro.parallel.CellFailure` slots;
* content-fingerprinted checkpoint journalling: a SIGKILLed campaign
  resumed with the same spec replays completed trials from the journal
  and re-executes none of them, and the leaderboard artifact is
  byte-identical to an uninterrupted run;
* cross-process tracing (``--trace``): every trial runs under a cell
  span and books layout-deterministic ``campaign.*`` metrics.

Aggressor selection inside double-sided trials goes through the
compiled-translation fast path: the ground-truth mapping is published to
the process-wide :class:`~repro.service.translation.TranslationService`
and a :class:`~repro.rowhammer.aggressors.CompiledAggressorPlanner`
plans every victim's aggressor pair in one batch of GF(2) kernels,
pinned lane for lane to the per-victim scalar aim loop by
``tests/rowhammer/test_aggressors.py``.

The output is a bit-flip-yield leaderboard: per-configuration flips,
raw flips, aim accuracy, TRR stops, ECC outcomes and a
flips-per-simulated-minute ranking, rendered through
:mod:`repro.evalsuite.reporting` and persisted as a deterministic
``dramdig-campaign-v1`` JSON artifact. See ``docs/rowhammer.md``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.dram.belief import BeliefMapping
from repro.dram.presets import TABLE2_ORDER, preset
from repro.evalsuite.reporting import render_failure_manifest, render_table
from repro.ioutil import atomic_write
from repro.logutil import get_logger
from repro.machine.machine import SimulatedMachine
from repro.obs import telemetry
from repro.obs import tracing as obs
from repro.parallel import (
    CellFailure,
    CheckpointJournal,
    GridCell,
    GridPolicy,
    run_cells,
)
from repro.rowhammer.aggressors import CompiledAggressorPlanner
from repro.rowhammer.hammer import DoubleSidedAttack, HammerConfig
from repro.rowhammer.mitigations import MitigationStack, TrrModel
from repro.rowhammer.variants import one_location_test, single_sided_test

__all__ = [
    "ARTIFACT_FORMAT",
    "CAMPAIGN_MACHINES",
    "CampaignOutcome",
    "CampaignResult",
    "CampaignSpec",
    "LeaderboardRow",
    "build_leaderboard",
    "campaign_artifact",
    "campaign_trial_cell",
    "load_artifact",
    "mitigation_names",
    "mitigation_stack",
    "render_artifact",
    "render_campaign",
    "run_campaign",
    "save_artifact",
    "variant_names",
]

ARTIFACT_FORMAT = "dramdig-campaign-v1"

_LOG = get_logger("repro.rowhammer.campaign")

#: Default machine panel: the paper's Table III rowhammer machines.
CAMPAIGN_MACHINES: tuple[str, ...] = ("No.1", "No.2", "No.5")

# Hammering variants. Double-sided flavours carry their decoy-row count
# (the TRRespass many-sided tracker-flooding knob); the classic variants
# dispatch to repro.rowhammer.variants. Names are the sweep-space axis —
# payloads carry the *name*, workers resolve it, so journal fingerprints
# stay stable across refactors of the variant internals.
_VARIANTS: dict[str, int | None] = {
    "double_sided": 0,
    "many_sided_6": 6,
    "single_sided": None,
    "one_location": None,
}

_MITIGATIONS: dict[str, MitigationStack | None] = {
    "none": None,
    "trr": MitigationStack(trr=TrrModel()),
    "ecc": MitigationStack(ecc=True),
    "trr_ecc": MitigationStack(trr=TrrModel(), ecc=True),
}


def variant_names() -> tuple[str, ...]:
    """The hammering variants a campaign can sweep."""
    return tuple(_VARIANTS)


def mitigation_names() -> tuple[str, ...]:
    """The mitigation stacks a campaign can sweep."""
    return tuple(_MITIGATIONS)


def mitigation_stack(name: str) -> MitigationStack | None:
    """Resolve a mitigation-stack name (raises ``KeyError`` on unknown)."""
    return _MITIGATIONS[name]


@dataclass(frozen=True)
class CampaignSpec:
    """A deterministic campaign sweep space.

    The cell list — and therefore every journal fingerprint — is a pure
    function of this spec: same spec, same cells, same artifact bytes.

    Attributes:
        machines: machine presets to sweep.
        variants: hammering variants (see :func:`variant_names`).
        mitigations: mitigation stacks (see :func:`mitigation_names`).
        tests: timed tests per (machine, variant, mitigation) combo.
        duration_seconds: simulated length of each timed test.
        seed: base seed; machines simulate with it, test *i* of a combo
            hammers with a seed derived from (combo, ``seed``, *i*).
    """

    machines: tuple[str, ...] = CAMPAIGN_MACHINES
    variants: tuple[str, ...] = tuple(_VARIANTS)
    mitigations: tuple[str, ...] = tuple(_MITIGATIONS)
    tests: int = 2
    duration_seconds: float = 120.0
    seed: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "mitigations", tuple(self.mitigations))
        for name in self.machines:
            if name not in TABLE2_ORDER:
                raise ValueError(f"unknown machine preset {name!r}")
        for name in self.variants:
            if name not in _VARIANTS:
                raise ValueError(
                    f"unknown variant {name!r} (have {', '.join(_VARIANTS)})"
                )
        for name in self.mitigations:
            if name not in _MITIGATIONS:
                raise ValueError(
                    f"unknown mitigation stack {name!r} "
                    f"(have {', '.join(_MITIGATIONS)})"
                )
        if not (self.machines and self.variants and self.mitigations):
            raise ValueError("campaign sweep space is empty")
        if self.tests < 1:
            raise ValueError("need at least one test per combination")
        if not 0 < self.duration_seconds < math.inf:  # NaN fails too
            raise ValueError("duration_seconds must be positive and finite")

    @property
    def cell_count(self) -> int:
        """Grid cells the sweep enumerates (one per timed test)."""
        return (
            len(self.machines)
            * len(self.variants)
            * len(self.mitigations)
            * self.tests
        )

    def hammer_trials_per_test(self, config: HammerConfig | None = None) -> int:
        """Victim trials one timed test performs (the attack-loop count)."""
        config = config if config is not None else HammerConfig()
        trial_seconds = (
            config.refresh_window_ms / 1e3 + config.trial_overhead_seconds
        )
        return int(self.duration_seconds / trial_seconds)

    def combos(self):
        """The (machine, variant, mitigation, test_index) enumeration,
        machine-major — the canonical cell order."""
        for machine in self.machines:
            for variant in self.variants:
                for mitigation in self.mitigations:
                    for test_index in range(self.tests):
                        yield machine, variant, mitigation, test_index

    def to_dict(self) -> dict:
        """JSON-ready spec record (embedded in the artifact)."""
        record = asdict(self)
        record["machines"] = list(self.machines)
        record["variants"] = list(self.variants)
        record["mitigations"] = list(self.mitigations)
        return record


@dataclass(frozen=True)
class CampaignResult:
    """One completed campaign trial: a timed test's flattened report."""

    machine: str
    variant: str
    mitigation: str
    test_index: int
    flips: int
    raw_flips: int
    trials: int
    aimed_double: int
    aimed_single: int
    aimed_none: int
    skipped: int
    stopped_by_trr: int
    ecc_corrected: int
    ecc_detected: int
    ecc_silent: int
    duration_seconds: float

    @property
    def minutes(self) -> float:
        return self.duration_seconds / 60.0

    @property
    def flips_per_minute(self) -> float:
        return self.flips / self.minutes if self.minutes > 0 else 0.0

    @property
    def aim_accuracy(self) -> float:
        attempted = self.trials - self.skipped
        return self.aimed_double / attempted if attempted else 0.0


def _test_seed(machine: str, variant: str, mitigation: str, seed: int,
               test_index: int) -> int:
    """Deterministic per-trial hammer seed, distinct across the sweep."""
    label = f"{machine}/{variant}/{mitigation}"
    # A stable string hash (not hash(): PYTHONHASHSEED) mixed with the
    # base seed and test index; workers and serial runs agree.
    digest = 0
    for char in label:
        digest = (digest * 131 + ord(char)) % (1 << 30)
    return digest * 1000 + seed * 100 + test_index


def campaign_trial_cell(
    name: str,
    machine: str,
    variant: str,
    mitigation: str,
    seed: int,
    test_index: int,
    duration_seconds: float,
) -> CampaignResult:
    """One campaign trial: a timed test of ``variant`` under
    ``mitigation`` on ``machine``.

    Grid-safe: every seed derives from the arguments, the returned
    result is a pure function of the payload, and the booked
    ``campaign.*`` metrics are layout-deterministic (same totals for
    jobs=1 and jobs=N). Aiming uses the ground-truth mapping — the
    campaign characterizes device flip yield, not tool recovery quality
    (Table III covers that) — published through the process-wide
    translation service so double-sided trials plan aggressors through
    the compiled batch kernels.
    """
    from repro.service.translation import default_service

    machine_preset = preset(machine)
    sim = SimulatedMachine.from_preset(machine_preset, seed=seed)
    belief = BeliefMapping.from_mapping(machine_preset.mapping)
    config = HammerConfig(duration_seconds=duration_seconds)
    stack = mitigation_stack(mitigation)
    vulnerability = machine_preset.hammer_vulnerability
    hammer_seed = _test_seed(machine, variant, mitigation, seed, test_index)

    decoys = _VARIANTS[variant]
    with obs.span(f"trial:{name}", clock=sim.clock) as scope:
        if decoys is not None:
            service = default_service()
            key = service.publish(machine_preset.mapping)
            planner = CompiledAggressorPlanner(service.compiled(key))
            attack = DoubleSidedAttack(
                sim, config=config, vulnerability=vulnerability
            )
            report = attack.run(
                belief,
                seed=hammer_seed,
                mitigations=stack,
                decoy_rows=decoys,
                planner=planner,
            )
        elif variant == "single_sided":
            report = single_sided_test(
                sim, belief, vulnerability, config=config, seed=hammer_seed,
                mitigations=stack,
            )
        else:
            report = one_location_test(
                sim, belief, vulnerability, config=config, seed=hammer_seed,
                mitigations=stack,
            )
        scope.set("flips", report.flips)
        scope.set("trials", report.trials)

    if telemetry.current_bus() is not None:
        # Per-trial yield heartbeat, emitted from the worker process via
        # the stream path the grid seam injected. Every field is a
        # deterministic function of the payload, so jobs=1 and jobs=N
        # streams stay equivalent modulo the bookkeeping fields.
        telemetry.emit(
            "trial",
            trial=name,
            flips=report.flips,
            raw_flips=report.raw_flips,
            tests=report.trials,
            trr_stops=report.stopped_by_trr,
        )

    obs.inc("campaign.tests")
    obs.inc("campaign.trials", report.trials)
    obs.inc("campaign.flips", report.flips)
    obs.inc("campaign.raw_flips", report.raw_flips)
    obs.inc("campaign.skipped", report.skipped)
    obs.inc("campaign.trr_stops", report.stopped_by_trr)
    obs.inc("campaign.ecc_corrected", report.ecc_corrected)
    obs.inc("campaign.ecc_detected", report.ecc_detected)
    obs.inc("campaign.ecc_silent", report.ecc_silent)

    return CampaignResult(
        machine=machine,
        variant=variant,
        mitigation=mitigation,
        test_index=test_index,
        flips=report.flips,
        raw_flips=report.raw_flips,
        trials=report.trials,
        aimed_double=report.aimed_double,
        aimed_single=report.aimed_single,
        aimed_none=report.aimed_none,
        skipped=report.skipped,
        stopped_by_trr=report.stopped_by_trr,
        ecc_corrected=report.ecc_corrected,
        ecc_detected=report.ecc_detected,
        ecc_silent=report.ecc_silent,
        duration_seconds=report.duration_seconds,
    )


@dataclass
class CampaignOutcome:
    """A campaign run's results, in canonical sweep order.

    ``results`` holds one entry per cell: a :class:`CampaignResult`, or
    the cell's :class:`~repro.parallel.CellFailure` when it failed.
    """

    spec: CampaignSpec
    results: list = field(default_factory=list)

    @property
    def completed(self) -> list[CampaignResult]:
        return [r for r in self.results if isinstance(r, CampaignResult)]

    @property
    def failures(self) -> list[CellFailure]:
        return [r for r in self.results if isinstance(r, CellFailure)]

    @property
    def total_trials(self) -> int:
        return sum(result.trials for result in self.completed)

    @property
    def total_flips(self) -> int:
        return sum(result.flips for result in self.completed)


def run_campaign(
    spec: CampaignSpec,
    jobs: int | None = None,
    supervision: GridPolicy | None = None,
    journal: CheckpointJournal | str | Path | None = None,
) -> CampaignOutcome:
    """Run the sweep through the grid engine.

    One grid cell per timed test. ``jobs`` fans the cells out to worker
    processes with bit-identical results; the cells run under
    ``supervision`` (None = default policy), and with a ``journal`` they
    are resumable (a resumed campaign replays completed trials from the
    journal and re-executes none of them).
    """
    cells = [
        GridCell(
            "repro.rowhammer.campaign:campaign_trial_cell",
            {
                "name": f"{machine}/{variant}/{mitigation}/t{test_index}",
                "machine": machine,
                "variant": variant,
                "mitigation": mitigation,
                "seed": spec.seed,
                "test_index": test_index,
                "duration_seconds": spec.duration_seconds,
            },
        )
        for machine, variant, mitigation, test_index in spec.combos()
    ]
    # Progress status lines go through repro.logutil (stderr), so
    # --quiet silences them and stdout artefacts are byte-identical
    # either way.
    _LOG.info(
        "campaign: %d timed test(s) over %d machine(s) x %d variant(s) x "
        "%d mitigation stack(s)",
        len(cells),
        len(spec.machines),
        len(spec.variants),
        len(spec.mitigations),
    )
    results = run_cells(
        cells, jobs=jobs, policy=supervision, journal=journal
    ).results
    completed = sum(1 for r in results if isinstance(r, CampaignResult))
    _LOG.info(
        "campaign: %d/%d test(s) completed, %d failed",
        completed,
        len(cells),
        len(cells) - completed,
    )
    return CampaignOutcome(spec=spec, results=list(results))


# --------------------------------------------------------------- leaderboard


@dataclass(frozen=True)
class LeaderboardRow:
    """One sweep configuration's aggregated flip yield."""

    machine: str
    variant: str
    mitigation: str
    tests: int
    trials: int
    flips: int
    raw_flips: int
    aim_accuracy: float
    stopped_by_trr: int
    ecc_corrected: int
    ecc_detected: int
    ecc_silent: int
    minutes: float
    flips_per_minute: float


def build_leaderboard(outcome: CampaignOutcome) -> list[LeaderboardRow]:
    """Aggregate completed trials per configuration, ranked by yield.

    Rank order: flips per simulated minute descending, then the sweep
    axes — a total order, so the leaderboard is deterministic even
    between configurations with identical yield.
    """
    groups: dict[tuple[str, str, str], list[CampaignResult]] = {}
    for result in outcome.completed:
        key = (result.machine, result.variant, result.mitigation)
        groups.setdefault(key, []).append(result)

    rows = []
    for (machine, variant, mitigation), results in groups.items():
        trials = sum(r.trials for r in results)
        skipped = sum(r.skipped for r in results)
        aimed_double = sum(r.aimed_double for r in results)
        attempted = trials - skipped
        minutes = sum(r.minutes for r in results)
        flips = sum(r.flips for r in results)
        rows.append(
            LeaderboardRow(
                machine=machine,
                variant=variant,
                mitigation=mitigation,
                tests=len(results),
                trials=trials,
                flips=flips,
                raw_flips=sum(r.raw_flips for r in results),
                aim_accuracy=aimed_double / attempted if attempted else 0.0,
                stopped_by_trr=sum(r.stopped_by_trr for r in results),
                ecc_corrected=sum(r.ecc_corrected for r in results),
                ecc_detected=sum(r.ecc_detected for r in results),
                ecc_silent=sum(r.ecc_silent for r in results),
                minutes=minutes,
                flips_per_minute=flips / minutes if minutes > 0 else 0.0,
            )
        )
    rows.sort(
        key=lambda row: (
            -row.flips_per_minute, row.machine, row.variant, row.mitigation
        )
    )
    return rows


def _leaderboard_table(rows: list[dict]) -> str:
    """Render leaderboard rows (as dicts) through the shared reporting
    helpers; one formatting path for live runs and loaded artifacts."""
    headers = [
        "#", "Machine", "Variant", "Mitigation", "Tests", "Trials",
        "Flips", "Raw", "Aim", "TRR", "ECC c/d/s", "Flips/min",
    ]
    body = []
    for rank, row in enumerate(rows, start=1):
        body.append([
            rank,
            row["machine"],
            row["variant"],
            row["mitigation"],
            row["tests"],
            row["trials"],
            row["flips"],
            row["raw_flips"],
            f"{row['aim_accuracy']:.0%}",
            row["stopped_by_trr"],
            f"{row['ecc_corrected']}/{row['ecc_detected']}/{row['ecc_silent']}",
            f"{row['flips_per_minute']:.1f}",
        ])
    return render_table(headers, body)


def render_campaign(outcome: CampaignOutcome) -> str:
    """The campaign's human-readable artifact: leaderboard + totals.

    Failed trials render as an explicit manifest —
    a partial leaderboard must never read as a complete sweep.
    """
    rows = [asdict(row) for row in build_leaderboard(outcome)]
    text = "campaign flip-yield leaderboard\n\n" + _leaderboard_table(rows)
    text += (
        f"\n\n{len(outcome.completed)}/{len(outcome.results)} tests, "
        f"{outcome.total_trials} hammer trials, "
        f"{outcome.total_flips} observable flips "
        f"(spec seed {outcome.spec.seed}, "
        f"{outcome.spec.duration_seconds:.0f}s per test)"
    )
    if outcome.failures:
        text += "\n\n" + render_failure_manifest(outcome.failures)
    return text


# ------------------------------------------------------------------ artifact


def campaign_artifact(outcome: CampaignOutcome) -> dict:
    """The JSON artifact: spec, per-trial results, leaderboard, failures.

    Deliberately wall-clock-free — a deterministic function of the
    completed results, so journal-resumed runs reproduce it byte for
    byte.
    """
    return {
        "format": ARTIFACT_FORMAT,
        "spec": outcome.spec.to_dict(),
        "leaderboard": [asdict(row) for row in build_leaderboard(outcome)],
        "results": [asdict(result) for result in outcome.completed],
        "failures": [
            {
                "index": failure.index,
                "name": failure.label,
                "reason": failure.reason,
                "attempts": failure.attempts,
            }
            for failure in outcome.failures
        ],
        "totals": {
            "tests": len(outcome.completed),
            "cells": len(outcome.results),
            "trials": outcome.total_trials,
            "flips": outcome.total_flips,
        },
    }


def save_artifact(outcome: CampaignOutcome, path: str | Path) -> None:
    """Atomically write the campaign artifact as JSON."""
    atomic_write(path, json.dumps(campaign_artifact(outcome), indent=2) + "\n")


def load_artifact(path: str | Path) -> dict:
    """Load and validate a ``dramdig-campaign-v1`` artifact.

    Raises:
        ValueError: not JSON, or not a campaign artifact.
    """
    try:
        record = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"not JSON: {error}") from None
    if not isinstance(record, dict) or record.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"not a {ARTIFACT_FORMAT} artifact (format="
            f"{record.get('format') if isinstance(record, dict) else None!r})"
        )
    return record


def render_artifact(artifact: dict) -> str:
    """Render a loaded artifact's leaderboard — the same bytes
    ``render_campaign`` produced for the run that saved it (modulo any
    failure manifest, which carries live-only detail)."""
    spec = artifact.get("spec", {})
    totals = artifact.get("totals", {})
    text = "campaign flip-yield leaderboard\n\n"
    text += _leaderboard_table(artifact.get("leaderboard", []))
    text += (
        f"\n\n{totals.get('tests', 0)}/{totals.get('cells', 0)} tests, "
        f"{totals.get('trials', 0)} hammer trials, "
        f"{totals.get('flips', 0)} observable flips "
        f"(spec seed {spec.get('seed', '?')}, "
        f"{float(spec.get('duration_seconds', 0.0)):.0f}s per test)"
    )
    failures = artifact.get("failures", [])
    if failures:
        lines = [f"grid failures ({len(failures)} cell(s) unrecovered):"]
        lines += [
            f"  {failure.get('name')}: {failure.get('reason')}"
            for failure in failures
        ]
        text += "\n\n" + "\n".join(lines)
    return text
