"""Double-sided rowhammer driver: aim with a belief, flip with the truth.

The paper's Table III experiment: take the mapping a tool recovered, use
it to place aggressor rows around victims, hammer for five minutes, count
bit flips. The attacker computes everything — victim row, the two
aggressor addresses — under its *believed* mapping; the machine's ground
truth then decides where the aggressors physically landed and the fault
model decides what flips. A correct belief yields true double-sided
layouts (many flips); an incorrect one silently hammers non-adjacent or
wrong-bank rows (few or zero flips). No special-casing anywhere: the flip
gap between DRAMDig and DRAMA emerges entirely from belief quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dram.belief import BeliefMapping
from repro.machine.machine import SimulatedMachine
from repro.rowhammer.faultmodel import RowhammerFaultModel
from repro.rowhammer.mitigations import MitigationStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.rowhammer.aggressors import CompiledAggressorPlanner

__all__ = ["HammerConfig", "HammerReport", "DoubleSidedAttack"]


@dataclass(frozen=True)
class HammerConfig:
    """Attack-loop parameters.

    Attributes:
        duration_seconds: test length (paper: 5 minutes).
        activation_ns: time per aggressor activation including the cache
            flush (~140 ns on Intel parts).
        trial_overhead_seconds: per-victim setup plus victim-scan time.
        buffer_fraction: memory fraction the attacker allocates (hugepage
            backed, as real attacks do).
        test_variability: log-normal sigma of the per-test effectiveness
            factor, modelling run-to-run thermal and data-pattern variation
            (Table III's spread within a tool).
        refresh_window_ms: victim retention window (64 ms standard).
    """

    duration_seconds: float = 300.0
    activation_ns: float = 140.0
    trial_overhead_seconds: float = 0.006
    buffer_fraction: float = 0.25
    test_variability: float = 0.25
    refresh_window_ms: float = 64.0

    def __post_init__(self) -> None:
        if not 0 < self.duration_seconds < math.inf:  # NaN fails too
            raise ValueError("duration_seconds must be positive and finite")


@dataclass
class HammerReport:
    """Outcome of one timed rowhammer test.

    Attributes:
        flips: total induced bit flips.
        trials: victims hammered.
        aimed_double: trials whose aggressors truly sandwiched the victim.
        aimed_single: trials with exactly one truly-adjacent aggressor.
        aimed_none: trials whose aggressors landed nowhere useful.
        skipped: trials abandoned (aggressor outside the buffer or row
            range).
        duration_seconds: simulated test length.
        raw_flips: flips before any mitigation (equals ``flips`` on
            unmitigated machines).
        stopped_by_trr: flips TRR prevented.
        ecc_corrected / ecc_detected / ecc_silent: SECDED accounting.
    """

    flips: int = 0
    trials: int = 0
    aimed_double: int = 0
    aimed_single: int = 0
    aimed_none: int = 0
    skipped: int = 0
    duration_seconds: float = 0.0
    raw_flips: int = 0
    stopped_by_trr: int = 0
    ecc_corrected: int = 0
    ecc_detected: int = 0
    ecc_silent: int = 0

    @property
    def aim_accuracy(self) -> float:
        """Fraction of non-skipped trials that were truly double-sided."""
        attempted = self.trials - self.skipped
        return self.aimed_double / attempted if attempted else 0.0


class DoubleSidedAttack:
    """Runs timed double-sided rowhammer tests on a simulated machine."""

    def __init__(
        self,
        machine: SimulatedMachine,
        fault_model: RowhammerFaultModel | None = None,
        config: HammerConfig | None = None,
        vulnerability: float | None = None,
        row_remap: str = "none",
    ):
        self.machine = machine
        self.config = config if config is not None else HammerConfig()
        if fault_model is not None:
            self.fault_model = fault_model
        else:
            if vulnerability is None:
                raise ValueError("provide fault_model or vulnerability")
            self.fault_model = RowhammerFaultModel(
                rows_per_bank=machine.ground_truth.geometry.rows_per_bank,
                vulnerability=vulnerability,
                seed=machine.seed,
                row_remap=row_remap,
            )

    def run(
        self,
        belief: BeliefMapping,
        seed: int = 0,
        mitigations: MitigationStack | None = None,
        decoy_rows: int = 0,
        planner: "CompiledAggressorPlanner | None" = None,
    ) -> HammerReport:
        """One timed test aiming with ``belief``.

        Args:
            belief: the mapping used for aiming.
            seed: per-test seed.
            mitigations: optional TRR/ECC stack the machine runs.
            decoy_rows: extra rows hammered per window to flood a TRR
                tracker (the TRRespass-style many-sided pattern). Decoys
                share the activation budget, so they weaken the true pair
                while improving the odds of slipping past the tracker.
            planner: optional compiled batch aggressor planner
                (:class:`repro.rowhammer.aggressors.CompiledAggressorPlanner`).
                When given, all aggressor pairs are planned in one batch of
                GF(2) kernels up front instead of per-victim scalar aiming.
                The planner picks same-bank row ± 1 aggressors like the
                belief path but may choose different columns, so Table III
                runs keep the default (``None``) scalar path byte-identical.
        """
        if decoy_rows < 0:
            raise ValueError("decoy_rows must be non-negative")
        config = self.config
        truth = self.machine.ground_truth
        rng = np.random.default_rng((seed, 0x4A44))
        pages = self.machine.allocate(
            int(self.machine.total_bytes * config.buffer_fraction), "hugepages"
        )
        window_seconds = config.refresh_window_ms / 1e3
        trial_seconds = window_seconds + config.trial_overhead_seconds
        trials = int(config.duration_seconds / trial_seconds)
        # Alternating aggressor loop: every hammered row (2 true aggressors
        # plus any decoys) gets an equal share of the window.
        hammered_rows = 2 + decoy_rows
        activations_each = int(
            window_seconds * 1e9 / (hammered_rows * config.activation_ns)
        )
        effectiveness = _test_effectiveness(rng, config.test_variability)

        report = HammerReport(duration_seconds=config.duration_seconds)
        victims = pages.sample_addresses(trials, rng)
        plan = planner.plan(victims) if planner is not None else None
        for trial in range(trials):
            report.trials += 1
            victim = int(victims[trial])
            if plan is not None:
                usable = bool(plan.valid[trial])
                above = int(plan.above[trial]) if usable else None
                below = int(plan.below[trial]) if usable else None
            else:
                above = belief.aim_row_neighbor(victim, -1)
                below = belief.aim_row_neighbor(victim, +1)
            if above is None or below is None:
                report.skipped += 1
                continue
            if not (pages.has_page(above) and pages.has_page(below)):
                report.skipped += 1
                continue
            flips, mode = self._hammer_window(
                truth, above, below, victim, activations_each, trial
            )
            if mode == "double":
                report.aimed_double += 1
            elif mode == "single":
                report.aimed_single += 1
            else:
                report.aimed_none += 1
            raw = _scaled(flips, effectiveness, rng)
            report.raw_flips += raw
            if mitigations is None:
                report.flips += raw
            else:
                filtered = mitigations.filter_window(raw, hammered_rows, rng)
                report.stopped_by_trr += filtered.stopped_by_trr
                report.ecc_corrected += filtered.corrected
                report.ecc_detected += filtered.detected
                report.ecc_silent += filtered.silent
                report.flips += filtered.observable
        self.machine.charge_analysis(config.duration_seconds * 1e9)
        return report

    # ------------------------------------------------------------- internals

    def _hammer_window(
        self,
        truth,
        above: int,
        below: int,
        victim: int,
        activations_each: int,
        trial: int,
    ) -> tuple[int, str]:
        """Resolve true aggressor placement, hand the per-bank activation
        profile to the fault model, and classify the intended aim."""
        per_bank: dict[int, dict[int, int]] = {}
        for aggressor in (above, below):
            bank = truth.bank_of(aggressor)
            row = truth.row_of(aggressor)
            bank_activations = per_bank.setdefault(bank, {})
            bank_activations[row] = bank_activations.get(row, 0) + activations_each

        flips = 0
        for bank, bank_activations in per_bank.items():
            flips += self.fault_model.window_flips(bank, bank_activations, trial)

        victim_bank = truth.bank_of(victim)
        victim_row = truth.row_of(victim)
        intended = per_bank.get(victim_bank, {})
        intended_above = intended.get(victim_row - 1, 0)
        intended_below = intended.get(victim_row + 1, 0)
        if intended_above and intended_below:
            mode = "double"
        elif intended_above or intended_below:
            mode = "single"
        else:
            mode = "none"
        return flips, mode


def _test_effectiveness(rng: np.random.Generator, sigma: float) -> float:
    """Per-test effectiveness factor (thermal / data-pattern variation)."""
    if sigma <= 0:
        return 1.0
    return float(np.clip(rng.lognormal(0.0, sigma), 0.3, 2.5))


def _scaled(flips: int, effectiveness: float, rng: np.random.Generator) -> int:
    """Scale a flip count by the test effectiveness, stochastic rounding."""
    scaled = flips * effectiveness
    base = int(scaled)
    return base + (1 if rng.random() < scaled - base else 0)
