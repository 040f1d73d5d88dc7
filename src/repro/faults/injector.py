"""The fault injector: applies a noise profile to a machine's measurements.

The injector owns its *own* seeded RNG stream, separate from both the
machine's noise RNG and the tool's RNG, so attaching a profile never
perturbs either stream: a ``quiet`` profile is bit-transparent, and two
runs with the same (preset, seed, profile) inject the identical fault
sequence. Mis-reads consume no RNG at all — they are a pure hash of
(pair, stickiness-window, seed), which is what makes them *sticky*:
re-measuring the same pair inside the same window repeats the mis-read,
defeating min-of-repeats the way a real prefetcher artefact does.

Timestamps come from the machine's simulated clock, so drift and storm
windows advance with the simulated workload, not the host's wall clock.
"""

from __future__ import annotations

import numpy as np

from repro.faults.profiles import FaultProfile
from repro.obs import tracing as obs

__all__ = ["FaultInjector"]

# Decorrelates the injector stream from the machine seed it derives from.
_STREAM_SALT = 0xFA017
# Page granularity of allocator-pressure grants (mirrors the allocator).
_PAGE_SIZE = 4096

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    x = np.asarray(values, dtype=np.uint64)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def _mix64_int(x: int) -> int:
    """:func:`_mix64` on one Python int in [0, 2**64), products wrapped
    to 64 bits as uint64 arithmetic wraps them."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_uniform(keys: np.ndarray) -> np.ndarray:
    """Map uint64 hash keys to uniforms in [0, 1)."""
    return (_mix64(keys) >> _U64(11)).astype(np.float64) * (1.0 / (1 << 53))


class FaultInjector:
    """Interprets a :class:`FaultProfile` against a simulated machine.

    Args:
        profile: the fault intensities to inject.
        seed: stream seed; machines usually pass their own seed so fault
            realisations decorrelate across machine seeds while staying
            deterministic for each.
    """

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        """Restore the injector to its initial (constructed) state."""
        self._rng = np.random.default_rng([self.seed, _STREAM_SALT])
        self._burst_remaining = 0
        self._misread_seed = _mix64(np.asarray([self.seed], dtype=np.uint64))[0]

    # ------------------------------------------------------------- allocation

    def on_allocate(self, request_bytes: int, allocation_index: int) -> int:
        """Bytes actually granted for the ``allocation_index``-th request."""
        schedule = self.profile.alloc_grant_fractions
        if allocation_index >= len(schedule):
            return request_bytes
        granted = int(request_bytes * schedule[allocation_index])
        return max(_PAGE_SIZE, granted)

    # ------------------------------------------------------------ measurement

    def perturb(
        self,
        latencies: np.ndarray,
        conflict_flags: np.ndarray,
        bases: np.ndarray | int,
        partners: np.ndarray | int,
        now_ns: float,
    ) -> np.ndarray:
        """Apply every enabled fault family to a batch of latencies.

        ``bases``/``partners`` identify the measured pairs (either may be
        scalar and is broadcast); ``now_ns`` is the machine's simulated
        clock at measurement time. Faults only ever *add* latency, like
        their hardware counterparts, so the fast-mode floor stays intact.
        """
        profile = self.profile
        latencies = np.array(latencies, dtype=np.float64, copy=True)
        count = latencies.size
        if count == 0 or profile.is_quiet:
            return latencies
        now_s = now_ns / 1e9
        # One global load + is-None test when tracing is off (perturb sits
        # on the measurement path). With a tracer, the applied-fault
        # counts correlate recovery actions with the injected cause.
        tracer = obs._ACTIVE

        drift = self._drift_ns(now_s)
        if drift:
            latencies += drift
            if tracer is not None:
                tracer.metrics.inc("faults.drift_measurements", count)

        if profile.storm_outlier_probability and self._storm_active(now_s):
            hits = self._rng.random(count) < profile.storm_outlier_probability
            latencies += hits * profile.storm_extra_ns * self._rng.random(count)
            if tracer is not None:
                tracer.metrics.inc("faults.storm_outliers", int(hits.sum()))

        if profile.burst_start_probability:
            affected = self._burst_mask(count)
            latencies += (
                affected * profile.burst_extra_ns * (0.5 + 0.5 * self._rng.random(count))
            )
            if tracer is not None:
                tracer.metrics.inc("faults.burst_measurements", int(affected.sum()))

        if profile.misread_probability:
            flips = self._misread_mask(
                np.asarray(conflict_flags, dtype=bool), bases, partners, now_ns
            )
            latencies += flips * profile.misread_extra_ns
            if tracer is not None:
                tracer.metrics.inc("faults.misreads", int(flips.sum()))

        return latencies

    def perturb_one(
        self, latency: float, is_conflict: bool, addr_a: int, addr_b: int, now_ns: float
    ) -> float:
        """:meth:`perturb` of one pair, in Python floats and ints.

        The per-pair measurement loop calls this once per pair, where four
        one-element arrays would cost more than the faults. It makes the
        same RNG draws, float operations (in the same order) and tracer
        increments as a one-element :meth:`perturb` call, so either may
        stand in for the other; pinned by ``tests/faults/test_injector.py``.
        """
        profile = self.profile
        latency = float(latency)
        if profile.is_quiet:
            return latency
        now_s = now_ns / 1e9
        tracer = obs._ACTIVE
        rng = self._rng

        drift = self._drift_ns(now_s)
        if drift:
            latency += drift
            if tracer is not None:
                tracer.metrics.inc("faults.drift_measurements", 1)

        if profile.storm_outlier_probability and self._storm_active(now_s):
            hit = rng.random() < profile.storm_outlier_probability
            latency += hit * profile.storm_extra_ns * rng.random()
            if tracer is not None:
                tracer.metrics.inc("faults.storm_outliers", int(hit))

        if profile.burst_start_probability:
            # _burst_mask(1): a start covers this measurement and the next
            # burst_length - 1; otherwise a carried burst runs down.
            start = rng.random() < profile.burst_start_probability
            affected = start or self._burst_remaining > 0
            self._burst_remaining = (
                profile.burst_length - 1 if start else max(0, self._burst_remaining - 1)
            )
            latency += affected * profile.burst_extra_ns * (0.5 + 0.5 * rng.random())
            if tracer is not None:
                tracer.metrics.inc("faults.burst_measurements", int(affected))

        if profile.misread_probability:
            # _misread_mask on one pair; a conflict pair never mis-reads.
            flip = False
            if not is_conflict:
                window = int(now_ns // (profile.misread_window_s * 1e9))
                key = _mix64_int(int(addr_a)) ^ _mix64_int(int(addr_b))
                salt = _mix64_int(window ^ int(self._misread_seed))
                uniform = (_mix64_int(key ^ salt) >> 11) * (1.0 / (1 << 53))
                flip = uniform < profile.misread_probability
            latency += flip * profile.misread_extra_ns
            if tracer is not None:
                tracer.metrics.inc("faults.misreads", int(flip))

        # A NumPy scalar clock or profile field would leave a NumPy float.
        return float(latency)

    # -------------------------------------------------------- fault internals

    def _drift_ns(self, now_s: float) -> float:
        """Accumulated baseline creep at simulated time ``now_s``."""
        profile = self.profile
        if not profile.drift_ns_per_s:
            return 0.0
        elapsed = max(0.0, now_s - profile.drift_start_s)
        if profile.drift_period_s:
            # Thermal cycling: triangle wave over the period, peaking at
            # rate * period / 2 mid-cycle.
            phase = elapsed % profile.drift_period_s
            half = profile.drift_period_s / 2.0
            elapsed = phase if phase <= half else profile.drift_period_s - phase
        drift = profile.drift_ns_per_s * elapsed
        if profile.drift_cap_ns:
            drift = min(drift, profile.drift_cap_ns)
        return drift

    def _storm_active(self, now_s: float) -> bool:
        """Whether a refresh storm covers simulated time ``now_s``."""
        profile = self.profile
        since_start = now_s - profile.storm_start_s
        if since_start < 0:
            return False
        if profile.storm_period_s:
            since_start %= profile.storm_period_s
        return since_start < profile.storm_duration_s

    def _burst_mask(self, count: int) -> np.ndarray:
        """Which of the next ``count`` measurements a spike burst covers.

        Burst state carries across calls: a burst that starts near the end
        of one batch keeps contaminating the start of the next, exactly as
        a batch-oblivious interrupt storm would.
        """
        profile = self.profile
        length = profile.burst_length
        starts = self._rng.random(count) < profile.burst_start_probability
        affected = np.zeros(count, dtype=bool)
        carried = min(self._burst_remaining, count)
        if carried:
            affected[:carried] = True
        # An element is inside a burst when any start occurred within the
        # preceding `length` elements (inclusive); count starts in that
        # sliding window via cumulative sums.
        cumulative = np.cumsum(starts)
        window_base = np.concatenate(
            [np.zeros(min(length, count), dtype=cumulative.dtype), cumulative]
        )[:count]
        affected |= (cumulative - window_base) > 0
        start_indices = np.flatnonzero(starts)
        if start_indices.size:
            self._burst_remaining = max(0, int(start_indices[-1]) + length - count)
        else:
            self._burst_remaining = max(0, self._burst_remaining - count)
        return affected

    def _misread_mask(
        self,
        conflict_flags: np.ndarray,
        bases: np.ndarray | int,
        partners: np.ndarray | int,
        now_ns: float,
    ) -> np.ndarray:
        """Which conflict-free pairs mis-read slow in the current window.

        Pure counter-based hashing — no RNG stream — so the decision for a
        pair is a function of (pair, window, seed) only: identical within
        a stickiness window, re-rolled in the next, independent of how
        many other measurements happened in between.
        """
        profile = self.profile
        bases = np.asarray(bases, dtype=np.uint64)
        partners = np.asarray(partners, dtype=np.uint64)
        if bases.shape != partners.shape:
            bases = np.broadcast_to(bases, partners.shape)
        window = _U64(int(now_ns // (profile.misread_window_s * 1e9)))
        # Symmetric pair key: (a, b) and (b, a) mis-read together.
        keys = _mix64(bases) ^ _mix64(partners)
        salted = keys ^ _mix64(np.asarray([window], dtype=np.uint64) ^ self._misread_seed)
        uniforms = _hash_uniform(salted)
        return (~conflict_flags) & (uniforms < profile.misread_probability)
