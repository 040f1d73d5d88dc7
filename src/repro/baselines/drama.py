"""DRAMA baseline (Pessl et al., USENIX Security 2016), reimplemented.

DRAMA is the generic brute-force comparator of the paper's evaluation. It
uses **no domain knowledge**:

* it does not know the bank count — it guesses from the number of
  same-bank sets it can cluster;
* it samples a *random* address pool instead of Algorithm-1-style targeted
  selection, so the pool is ~10,000 scattered addresses (blindness needs
  coverage) and every set scan measures all of them at twice the rounds a
  knowledge-assisted tool needs;
* its measurements are single-shot (no repeated-minimum noise
  suppression), so refresh spikes land in the sets as false members and in
  the single-bit row scan as phantom row bits;
* after clustering it brute-forces XOR functions over all address bits
  (we charge the enumeration cost and compute the surviving candidates
  with the equivalent nullspace algebra), keeps those consistent with at
  least ``consistency_threshold`` of every set, and self-checks that
  ``2^#functions`` matches the set count — retrying the whole pipeline
  from scratch on mismatch.

Those retries are DRAMA's published failure mode: the DRAMDig paper ran it
"for numerous times and found that it generated different DRAM mappings
most of the time", measured 500 s - 2 h of runtime, and killed it after
two fruitless hours on machines No.3 and No.7 (our noisy-laptop presets:
their contamination rate starves the subsample search of clean draws).

Row bits come from a single-shot single-bit scan plus the standard
extension heuristic (grow the row range downwards through two-bit
functions whose high bit adjoins it). A single phantom row bit from a
noise spike silently corrupts the believed row field — which is exactly
why DRAMA-aimed double-sided rowhammer sometimes induces zero flips
(paper Table III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis import gf2
from repro.analysis.arrays import sorted_unique
from repro.analysis.bits import bit, bits_of_mask, deposit_bits, popcount
from repro.analysis.stats import find_threshold
from repro.dram.belief import BeliefMapping
from repro.dram.errors import CalibrationError, ToolTimeoutError
from repro.machine.machine import SimulatedMachine

__all__ = ["DramaConfig", "DramaResult", "DramaTool"]


@dataclass(frozen=True)
class DramaConfig:
    """DRAMA tuning.

    Attributes:
        pool_size: random addresses per attempt.
        rounds: accesses per (single-shot) measurement.
        alloc_fraction: memory fraction allocated (unprivileged buffer).
        alloc_strategy: allocation behaviour.
        min_set_size: smallest accepted same-bank set.
        max_set_rounds: base draws per attempt before giving up clustering.
        cluster_repeats: measurement sweeps per set scan, minimum taken —
            the upstream DRAMA code re-verifies set members the same way.
            The *row scan* stays single-shot, as in the original, which is
            where phantom row bits (and Table III's zero-flip runs) come
            from.
        subsample_size: addresses per set used for one function-search draw.
        subsample_draws: independent draws per set.
        consistency_threshold: fraction of a set a candidate function must
            be constant on to survive verification.
        max_function_bits: brute-force enumeration width (7 covers the widest Intel hash).
        search_low_bit: lowest physical bit brute-forced (cache-line bits
            below 6 can never be bank bits).
        brute_force_check_ns: charged CPU time per enumerated candidate.
        timeout_seconds: wall-clock budget before the run is declared dead
            (the paper killed DRAMA at roughly two hours).
    """

    pool_size: int = 10000
    rounds: int = 8000
    alloc_fraction: float = 0.6
    alloc_strategy: str = "fragmented"
    min_set_size: int = 16
    max_set_rounds: int = 256
    cluster_repeats: int = 2
    subsample_size: int = 20
    subsample_draws: int = 5
    consistency_threshold: float = 0.9
    max_function_bits: int = 7
    search_low_bit: int = 6
    brute_force_check_ns: float = 20_000.0
    timeout_seconds: float = 7200.0


@dataclass
class DramaResult:
    """Outcome of one DRAMA run.

    Attributes:
        belief: the mapping DRAMA claims (None when it timed out).
        seconds: simulated wall-clock cost.
        attempts: full pipeline attempts (clustering + search + self-check).
        timed_out: whether the run hit the timeout before self-consistency.
        sets_found: same-bank sets in the final (or last) attempt.
        measurements: total pair measurements performed.
    """

    belief: BeliefMapping | None
    seconds: float
    attempts: int
    timed_out: bool
    sets_found: int = 0
    measurements: int = 0


class DramaTool:
    """The DRAMA reverse-engineering pipeline."""

    def __init__(self, config: DramaConfig | None = None, seed: int | None = None):
        """``seed`` feeds DRAMA's internal randomness; *unlike DRAMDig there
        is no fixed default* — each run draws fresh pools and bases, which
        is precisely why its output is nondeterministic run to run."""
        self.config = config if config is not None else DramaConfig()
        self._rng = np.random.default_rng(seed)

    def run(self, machine: SimulatedMachine) -> DramaResult:
        """Reverse-engineer ``machine`` the DRAMA way."""
        config = self.config
        clock = machine.clock
        start_ns = clock.checkpoint()
        pages = machine.allocate(
            int(machine.total_bytes * config.alloc_fraction), config.alloc_strategy
        )
        machine.charge_analysis(pages.byte_count * 0.33)
        address_bits = machine.total_bytes.bit_length() - 1

        attempts = 0
        sets_found = 0
        while clock.since(start_ns) / 1e9 < config.timeout_seconds:
            attempts += 1
            try:
                threshold = self._calibrate(machine, pages)
            except CalibrationError:
                continue
            sets = self._cluster_sets(machine, pages, threshold)
            sets_found = len(sets)
            if len(sets) < 2:
                continue
            functions = self._search_functions(machine, sets, address_bits)
            if not functions:
                continue
            # Self-check: k functions should explain ~2^k observed sets.
            if not _power_of_two_match(len(sets), len(functions)):
                continue
            row_bits = self._detect_rows(machine, pages, threshold, address_bits)
            row_bits = _extend_rows_through_functions(row_bits, functions)
            column_bits = tuple(
                position
                for position in range(address_bits)
                if position not in row_bits
                and all(not bit(position) & f for f in functions)
            )
            belief = BeliefMapping(
                address_bits=address_bits,
                bank_functions=tuple(functions),
                row_bits=row_bits,
                column_bits=column_bits,
            )
            return DramaResult(
                belief=belief,
                seconds=clock.since(start_ns) / 1e9,
                attempts=attempts,
                timed_out=False,
                sets_found=sets_found,
                measurements=machine.stats.measurements,
            )
        return DramaResult(
            belief=None,
            seconds=clock.since(start_ns) / 1e9,
            attempts=attempts,
            timed_out=True,
            sets_found=sets_found,
            measurements=machine.stats.measurements,
        )

    def run_or_raise(self, machine: SimulatedMachine) -> DramaResult:
        """Like :meth:`run` but raising :class:`ToolTimeoutError` on timeout."""
        result = self.run(machine)
        if result.timed_out:
            raise ToolTimeoutError(
                f"DRAMA produced no mapping within "
                f"{self.config.timeout_seconds:.0f} simulated seconds",
                elapsed_seconds=result.seconds,
            )
        return result

    # ------------------------------------------------------------- clustering

    def _calibrate(self, machine: SimulatedMachine, pages):
        # Batched form of the original per-pair loop; measure_latency_pairs
        # guarantees bit-identical latencies, clock charges and stats.
        count = 256
        bases = pages.sample_addresses(count, self._rng)
        partners = pages.sample_addresses(count, self._rng)
        samples = machine.measure_latency_pairs(bases, partners, self.config.rounds)
        try:
            return find_threshold(samples)
        except ValueError as error:
            raise CalibrationError(str(error)) from error

    def _cluster_sets(self, machine: SimulatedMachine, pages, threshold) -> list[np.ndarray]:
        config = self.config
        pool = sorted_unique(pages.sample_addresses(config.pool_size, self._rng))
        remaining = pool
        sets: list[np.ndarray] = []
        for _ in range(config.max_set_rounds):
            if remaining.size < config.min_set_size:
                break
            base_index = int(self._rng.integers(remaining.size))
            base = int(remaining[base_index])
            others = np.delete(remaining, base_index)
            # One decode per scan; equal to ``cluster_repeats`` min-reduced
            # measure_latency_batch calls, value for value and charge for
            # charge.
            latencies = machine.measure_latency_sweeps(
                base, others, config.rounds, config.cluster_repeats
            )
            members = others[threshold.classify(latencies)]
            if members.size >= config.min_set_size:
                sets.append(np.concatenate([[np.uint64(base)], members]))
                # ``members`` is a mask-filtered subset of the sorted
                # ``remaining``: knock out its binary-searched positions
                # rather than membership-testing the whole pool.
                keep = np.ones(remaining.shape, dtype=bool)
                keep[np.searchsorted(remaining, members)] = False
                keep[base_index] = False
                remaining = remaining[keep]
            if remaining.size < 0.15 * pool.size:
                break
        return sets

    # -------------------------------------------------------- function search

    def _search_functions(
        self, machine: SimulatedMachine, sets: list[np.ndarray], address_bits: int
    ) -> list[int]:
        config = self.config
        # Charge the brute-force enumeration DRAMA actually performs.
        enumerated = sum(
            math.comb(address_bits - config.search_low_bit, k)
            for k in range(1, config.max_function_bits + 1)
        )
        machine.charge_analysis(enumerated * config.brute_force_check_ns)

        positions = tuple(range(config.search_low_bit, address_bits))
        width = len(positions)
        candidates: set[int] | None = None
        for members in sets:
            set_candidates: set[int] = set()
            for _ in range(config.subsample_draws):
                size = min(config.subsample_size, members.size)
                sample = self._rng.choice(members, size=size, replace=False)
                diffs = sample.astype(np.uint64) ^ np.uint64(sample[0])
                projected = [
                    _project(int(diff), positions) for diff in diffs if int(diff)
                ]
                null = gf2.nullspace_basis(gf2.row_echelon(projected), width)
                for element in gf2.span(null):
                    if popcount(element) <= config.max_function_bits:
                        set_candidates.add(element)
            candidates = (
                set_candidates if candidates is None else candidates & set_candidates
            )
            if not candidates:
                return []
        assert candidates is not None

        verified = [
            deposit_bits(candidate, positions)
            for candidate in sorted(candidates)
            if self._consistent_on_sets(candidate, positions, sets)
        ]
        verified.sort(key=lambda mask: (popcount(mask), mask))
        return gf2.reduce_to_basis(verified)

    def _consistent_on_sets(
        self, compact_mask: int, positions: tuple[int, ...], sets: list[np.ndarray]
    ) -> bool:
        mask = np.uint64(deposit_bits(compact_mask, positions))
        for members in sets:
            parities = np.bitwise_count(members & mask) & np.uint64(1)
            agreement = max(parities.mean(), 1.0 - parities.mean())
            if agreement < self.config.consistency_threshold:
                return False
        return True

    # ------------------------------------------------------------------- rows

    def _detect_rows(
        self, machine: SimulatedMachine, pages, threshold, address_bits: int
    ) -> tuple[int, ...]:
        """Single-shot single-bit scan — no votes, hence phantom row bits
        under noise."""
        # Pair discovery (tool RNG) and measurement (machine RNG) draw from
        # independent generators, so gathering every per-bit pair first and
        # measuring them in one measure_latency_pairs call preserves both
        # streams exactly — same probes, same latencies as the scalar loop.
        positions = []
        bases = []
        partners = []
        for position in range(address_bits):
            pair = self._find_pair(pages, bit(position))
            if pair is None:
                continue
            positions.append(position)
            bases.append(pair[0])
            partners.append(pair[1])
        if not positions:
            return ()
        latencies = machine.measure_latency_pairs(
            np.array(bases, dtype=np.uint64),
            np.array(partners, dtype=np.uint64),
            self.config.rounds,
        )
        slow = threshold.classify(latencies)
        return tuple(
            position for position, is_slow in zip(positions, slow) if is_slow
        )

    def _find_pair(self, pages, mask: int) -> tuple[int, int] | None:
        samples = pages.sample_addresses(64, self._rng)
        partners = samples ^ np.uint64(mask)
        valid = (partners < pages.total_bytes) & pages.has_pages(partners)
        hits = np.flatnonzero(valid)
        if hits.size == 0:
            return None
        base = int(samples[hits[0]])
        return base, base ^ mask


def _project(mask: int, positions: tuple[int, ...]) -> int:
    compact = 0
    for index, position in enumerate(positions):
        compact |= ((mask >> position) & 1) << index
    return compact


def _power_of_two_match(observed_sets: int, function_count: int, tolerance: float = 0.3) -> bool:
    """DRAMA's self-check: 2^k functions should explain the set count."""
    expected = 1 << function_count
    return abs(observed_sets - expected) <= tolerance * expected


def _extend_rows_through_functions(
    rows: tuple[int, ...], functions: list[int]
) -> tuple[int, ...]:
    """Grow the row range downward through two-bit functions whose high bit
    adjoins it (how DRAMA-based hammer tools complete the row index)."""
    row_set = set(rows)
    if not row_set:
        return rows
    grown = True
    while grown:
        grown = False
        lowest = min(row_set)
        for function in functions:
            positions = bits_of_mask(function)
            if len(positions) == 2 and positions[1] == lowest - 1:
                row_set.add(positions[1])
                grown = True
    return tuple(sorted(row_set))
