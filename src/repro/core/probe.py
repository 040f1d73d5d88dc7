"""Calibrated latency probe — the tools' only window into the machine.

Wraps :class:`~repro.machine.machine.SimulatedMachine`'s timing primitive
with the two things every real tool needs on top of raw latencies:

* **Calibration**: anchor the fast mode with reference pairs that are
  provably conflict-free (two addresses in one OS page share their row
  bits), then place the cutoff against the slow population of a few
  hundred random pairs (:func:`repro.analysis.stats.calibrate_threshold`).
  This survives the preemption/refresh spike tails that hijack a plain
  Otsu split.
* **Noise suppression**: refresh collisions and preemption only ever *add*
  latency, so the probe measures each pair ``repeats`` times and takes the
  minimum — the standard hardware trick — before classifying.

The probe also exposes batch classification, because Algorithm 2 measures
one pivot address against thousands of pool addresses at a time.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import LatencyThreshold, calibrate_threshold
from repro.dram.errors import CalibrationError
from repro.faults.recovery import DegradationEvent
from repro.machine.allocator import PhysPages
from repro.machine.machine import SimulatedMachine
from repro.obs import tracing as obs

__all__ = ["LatencyProbe", "ProbeConfig"]


@dataclass(frozen=True)
class ProbeConfig:
    """Measurement policy.

    Attributes:
        rounds: alternating accesses per measurement (more rounds = a more
            stable median, more simulated time).
        repeats: independent measurements per pair; the minimum is used.
        calibration_pairs: random pairs sampled to fit the threshold.
        reference_pairs: known-fast same-page pairs anchoring the fast mode.
        min_separation: required relative fast/slow gap during calibration.
        max_recalibrations: adaptive recalibration budget (0 disables the
            drift watch entirely — the seed behaviour).
        drift_tolerance: relative movement of the fast mode, measured
            against the retained reference pairs, that triggers a
            threshold re-anchor.
        drift_check_interval_s: simulated-time heartbeat between reference
            re-checks; grows exponentially while no drift is found
            (``drift_check_backoff``) and resets once drift is confirmed.
        drift_check_backoff: interval multiplier after a no-drift check.
        drift_check_max_interval_s: cap on the backed-off interval.
        suspect_slow_fraction: batch slow fraction that forces an early
            drift check before the heartbeat elapses.
        suspect_run_length: consecutive scalar slow reads that force an
            early drift check.
        batch_probes: issue pending measurements as vectorized campaign
            sweeps (:meth:`~repro.machine.machine.SimulatedMachine.
            measure_latency_sweeps` / batched pair scans) instead of
            step-by-step calls. Both paths are bit-identical in every
            measured value, clock charge and counter; ``False`` forces the
            stepwise reference path that tests compare the batched path
            against.
    """

    rounds: int = 4000
    repeats: int = 2
    calibration_pairs: int = 512
    reference_pairs: int = 64
    min_separation: float = 0.08
    max_recalibrations: int = 0
    drift_tolerance: float = 0.08
    drift_check_interval_s: float = 0.1
    drift_check_backoff: float = 2.0
    drift_check_max_interval_s: float = 5.0
    suspect_slow_fraction: float = 0.9
    suspect_run_length: int = 8
    batch_probes: bool = True

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        if self.calibration_pairs < 8:
            raise ValueError("need at least 8 calibration pairs")
        if self.reference_pairs < 8:
            raise ValueError(
                "need at least 8 reference pairs to anchor the fast mode "
                f"(got {self.reference_pairs}); fewer produces an empty or "
                "unstable reference population and a garbage threshold"
            )
        if self.min_separation <= 0:
            raise ValueError(
                f"min_separation must be positive (got {self.min_separation}); "
                "a non-positive separation disables the unimodality guard"
            )
        if self.max_recalibrations < 0:
            raise ValueError("max_recalibrations must be non-negative")
        if self.drift_tolerance <= 0:
            raise ValueError("drift_tolerance must be positive")
        if self.drift_check_interval_s <= 0:
            raise ValueError("drift_check_interval_s must be positive")
        if self.drift_check_backoff < 1.0:
            raise ValueError("drift_check_backoff must be at least 1")
        if self.drift_check_max_interval_s < self.drift_check_interval_s:
            raise ValueError(
                "drift_check_max_interval_s must cover drift_check_interval_s"
            )
        if not 0.0 < self.suspect_slow_fraction <= 1.0:
            raise ValueError("suspect_slow_fraction must be in (0, 1]")
        if self.suspect_run_length < 2:
            raise ValueError("suspect_run_length must be at least 2")


class LatencyProbe:
    """A calibrated fast/slow classifier over a simulated machine."""

    def __init__(self, machine: SimulatedMachine, config: ProbeConfig | None = None):
        self.machine = machine
        self.config = config if config is not None else ProbeConfig()
        self.threshold: LatencyThreshold | None = None
        # Adaptive-recalibration state (inert while max_recalibrations == 0).
        self.recalibrations = 0
        self.drift_checks = 0
        self.events: list[DegradationEvent] = []
        self._reference_bases: np.ndarray | None = None
        self._check_interval_ns = self.config.drift_check_interval_s * 1e9
        self._next_check_ns = np.inf
        self._last_check_ns = 0.0
        self._slow_run = 0

    # ------------------------------------------------------------ calibration

    def calibrate(self, pages: PhysPages, rng: np.random.Generator) -> LatencyThreshold:
        """Fit the fast/slow threshold from reference and random pairs.

        Reference pairs live within one OS page, sharing all row bits, so
        they are guaranteed conflict-free and anchor the fast mode robustly
        even under heavy spike noise. Random pairs hit the same bank with
        probability 1/#banks and supply the slow population. Raises
        :class:`CalibrationError` when no slow population is visible
        (broken timing loop on real hardware).

        When ``max_recalibrations`` is positive, the probe retains the
        reference anchors and watches for baseline drift during
        classification; a re-anchor re-measures only those frozen
        references, so recovery never consumes the tool's RNG stream —
        the tool's draws stay identical whether recovery fires zero or
        twenty times, and the whole run remains a deterministic function
        of (machine, profile, seed).
        """
        self._fit_threshold(pages, rng)
        obs.inc("probe.calibrations")
        if self.config.max_recalibrations > 0:
            self._check_interval_ns = self.config.drift_check_interval_s * 1e9
            self._last_check_ns = self.machine.clock.elapsed_ns
            self._next_check_ns = self._last_check_ns + self._check_interval_ns
        return self.threshold

    def _fit_threshold(self, pages: PhysPages, rng: np.random.Generator) -> None:
        """One calibration pass: measure anchors + mixture, fit the cutoff."""
        reference_count = self.config.reference_pairs
        bases = pages.sample_addresses(reference_count, rng)
        # Flipping bit 7 stays within the page: never a row conflict.
        references = self._measure_min_pairs(bases, bases ^ np.uint64(0x80))
        count = self.config.calibration_pairs
        mixed_bases = pages.sample_addresses(count, rng)
        partners = pages.sample_addresses(count, rng)
        samples = self._measure_min_pairs(mixed_bases, partners)
        try:
            self.threshold = calibrate_threshold(
                references, samples, self.config.min_separation
            )
        except ValueError as error:
            raise CalibrationError(str(error)) from error
        self._reference_bases = bases

    def require_threshold(self) -> LatencyThreshold:
        """The calibrated threshold, or a CalibrationError if absent."""
        if self.threshold is None:
            raise CalibrationError("probe used before calibrate()")
        return self.threshold

    # ------------------------------------------------------- drift recovery

    def _watching_drift(self) -> bool:
        """Whether the adaptive drift watch is armed and has budget left."""
        return (
            self.config.max_recalibrations > 0
            and self.threshold is not None
            and self._reference_bases is not None
            and self.recalibrations < self.config.max_recalibrations
        )

    def _drift_check_due(self, suspect: bool) -> bool:
        """Heartbeat elapsed, or suspicion past the refractory period."""
        now = self.machine.clock.elapsed_ns
        if now >= self._next_check_ns:
            return True
        # Suspicion may pre-empt the heartbeat, but not immediately after
        # the last check: all-slow batches are legitimate (pile
        # verification sweeps), so a short refractory period keeps false
        # alarms from re-measuring the references on every call.
        refractory = 0.25 * self.config.drift_check_interval_s * 1e9
        return suspect and now >= self._last_check_ns + refractory

    def _run_drift_check(self) -> bool:
        """Re-measure the reference anchors; re-anchor if they moved.

        The re-anchor *translates* the calibrated threshold by however far
        the fast mode moved, rather than refitting it from scratch: a full
        refit takes long enough (hundreds of measurements of simulated
        time) that ongoing drift skews the very sample it fits, while the
        frozen references are re-measured in a few simulated milliseconds.
        Drift moves both populations together — it is baseline creep, not
        a change of the conflict gap — so a translation is exact.

        Returns True when the threshold was replaced. Re-anchors consume
        the bounded budget; check intervals back off exponentially while
        no drift is found and reset once drift is confirmed.
        """
        self.drift_checks += 1
        obs.inc("probe.drift_checks")
        threshold = self.threshold
        assert self._reference_bases is not None
        references = self._measure_min_pairs(
            self._reference_bases, self._reference_bases ^ np.uint64(0x80)
        )
        fast_now = float(np.median(references))
        delta = fast_now - threshold.fast_mode
        moved = abs(delta) / threshold.fast_mode
        now = self.machine.clock.elapsed_ns
        self._last_check_ns = now
        if moved <= self.config.drift_tolerance:
            # No drift: back off the heartbeat so a healthy machine pays
            # an ever-smaller surveillance cost.
            self._check_interval_ns = min(
                self._check_interval_ns * self.config.drift_check_backoff,
                self.config.drift_check_max_interval_s * 1e9,
            )
            self._next_check_ns = now + self._check_interval_ns
            return False
        self.recalibrations += 1
        slow_now = threshold.slow_mode + delta
        self.threshold = dataclasses.replace(
            threshold,
            cutoff=threshold.cutoff + delta,
            fast_mode=fast_now,
            slow_mode=slow_now,
            separation=(slow_now - fast_now) / fast_now,
        )
        obs.inc("probe.recalibrations")
        self.events.append(
            obs.note_event(
                DegradationEvent(
                    step="probe",
                    action="recalibrated",
                    attempt=self.recalibrations,
                    detail=(
                        f"fast mode {threshold.fast_mode:.1f} -> "
                        f"{fast_now:.1f} ns ({moved:.0%} drift)"
                    ),
                    span=obs.current_path(),
                )
            )
        )
        self._check_interval_ns = self.config.drift_check_interval_s * 1e9
        self._next_check_ns = self.machine.clock.elapsed_ns + self._check_interval_ns
        self._slow_run = 0
        return True

    # ----------------------------------------------------------- measurement

    def _measure_min(self, addr_a: int, addr_b: int) -> float:
        latency = np.inf
        for _ in range(self.config.repeats):
            latency = min(
                latency, self.machine.measure_latency(addr_a, addr_b, self.config.rounds)
            )
        return latency

    def _measure_min_pairs(self, bases: np.ndarray, partners: np.ndarray) -> np.ndarray:
        """Min-of-repeats over many (base, partner) pairs at once.

        Repeats are interleaved per pair so the machine's noise RNG is
        consumed in exactly the order a scalar :meth:`_measure_min` loop
        consumes it — batching changes simulator wall-clock only, never a
        single measured value.
        """
        repeats = self.config.repeats
        rep_bases = np.repeat(np.asarray(bases, dtype=np.uint64), repeats)
        rep_partners = np.repeat(np.asarray(partners, dtype=np.uint64), repeats)
        latencies = self.machine.measure_latency_pairs(
            rep_bases, rep_partners, self.config.rounds
        )
        tracer = obs._ACTIVE
        if tracer is not None:
            tracer.metrics.inc("probe.pair_measurements", int(rep_bases.size))
        return latencies.reshape(-1, repeats).min(axis=1)

    def is_conflict(self, addr_a: int, addr_b: int) -> bool:
        """Classify one pair: True = same bank, different row (slow)."""
        latency = self._measure_min(addr_a, addr_b)
        slow = self.require_threshold().is_slow(latency)
        # Hot path: one global load + is-None test when tracing is off.
        tracer = obs._ACTIVE
        if tracer is not None:
            tracer.metrics.inc("probe.pair_measurements", self.config.repeats)
            tracer.metrics.inc(
                "probe.verdicts.conflict" if slow else "probe.verdicts.clear"
            )
        if self._watching_drift():
            self._slow_run = self._slow_run + 1 if slow else 0
            suspect = self._slow_run >= self.config.suspect_run_length
            if self._drift_check_due(suspect) and self._run_drift_check():
                slow = self.require_threshold().is_slow(latency)
        return slow

    def are_conflicts(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Classify many distinct pairs in one measurement campaign.

        Bit-identical to ``[self.is_conflict(a, b) for a, b in pairs]`` —
        :meth:`_measure_min_pairs` interleaves the repeats per pair, so the
        machine's noise RNG, fault perturbations, clock charge and metrics
        are consumed in exactly the scalar order. Falls back to the scalar
        loop when campaign batching is disabled or the drift watch is armed
        (the watch interleaves reference re-measurements between verdicts,
        which a batch cannot reproduce).
        """
        pairs = list(pairs)
        if not pairs:
            return []
        # Below ~6 pairs the array assembly costs more than it saves
        # (measured crossover on the voted-scan sizes); since both paths
        # are bit-identical, small campaigns take the scalar loop purely
        # for speed. The drift watch forces it regardless of size.
        if (
            not self.config.batch_probes
            or len(pairs) < 6
            or self._watching_drift()
        ):
            return [self.is_conflict(a, b) for a, b in pairs]
        bases = np.fromiter((a for a, _ in pairs), dtype=np.uint64, count=len(pairs))
        partners = np.fromiter((b for _, b in pairs), dtype=np.uint64, count=len(pairs))
        latencies = self._measure_min_pairs(bases, partners)
        threshold = self.require_threshold()
        verdicts = [bool(threshold.is_slow(latency)) for latency in latencies]
        tracer = obs._ACTIVE
        if tracer is not None:
            conflicts = sum(verdicts)
            tracer.metrics.inc("probe.verdicts.conflict", conflicts)
            tracer.metrics.inc("probe.verdicts.clear", len(verdicts) - conflicts)
        return verdicts

    def conflict_mask(self, base: int, others: np.ndarray) -> np.ndarray:
        """Classify ``base`` against many addresses; boolean array.

        Takes the element-wise minimum over ``repeats`` batched measurement
        sweeps before thresholding. With the drift watch armed, an
        implausibly slow batch (or an elapsed heartbeat) triggers a
        reference re-check, and the *same* latencies are re-thresholded
        against the recalibrated cutoff — measurements are never wasted.
        """
        others = np.asarray(others, dtype=np.uint64)
        if self.config.batch_probes:
            # Campaign form: one decode, ``repeats`` sweeps — bit-identical
            # to the stepwise loop below (pinned by the machine tests).
            latencies = self.machine.measure_latency_sweeps(
                base, others, self.config.rounds, self.config.repeats
            )
        else:
            latencies = self.machine.measure_latency_batch(
                base, others, self.config.rounds
            )
            for _ in range(self.config.repeats - 1):
                latencies = np.minimum(
                    latencies,
                    self.machine.measure_latency_batch(
                        base, others, self.config.rounds
                    ),
                )
        mask = self.require_threshold().classify(latencies)
        tracer = obs._ACTIVE
        if tracer is not None:
            conflicts = int(mask.sum())
            tracer.metrics.inc(
                "probe.pair_measurements", int(others.size) * self.config.repeats
            )
            tracer.metrics.inc("probe.verdicts.conflict", conflicts)
            tracer.metrics.inc("probe.verdicts.clear", int(others.size) - conflicts)
        if self._watching_drift():
            suspect = (
                others.size >= 8
                and float(mask.mean()) >= self.config.suspect_slow_fraction
            )
            if self._drift_check_due(suspect) and self._run_drift_check():
                mask = self.require_threshold().classify(latencies)
        return mask

    @property
    def measurements_taken(self) -> int:
        """Total pair measurements charged so far on the machine."""
        return self.machine.stats.measurements
