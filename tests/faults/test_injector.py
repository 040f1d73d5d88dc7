"""Tests for the fault injector's determinism and fault families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultProfile, get_profile, profile_names
from repro.faults.injector import _mix64, _mix64_int
from repro.obs import tracing

NO_CONFLICT = np.zeros(64, dtype=bool)
BASES = np.arange(64, dtype=np.uint64) * np.uint64(4096)
PARTNERS = BASES + np.uint64(64)
FLAT = np.full(64, 80.0)


def perturb(injector, now_s=0.0, latencies=FLAT, conflicts=NO_CONFLICT):
    return injector.perturb(latencies, conflicts, BASES, PARTNERS, now_s * 1e9)


class TestDeterminism:
    def test_same_seed_same_faults(self):
        profile = get_profile("hostile")
        a = FaultInjector(profile, seed=7)
        b = FaultInjector(profile, seed=7)
        for now_s in (0.0, 1.0, 2.5):
            np.testing.assert_array_equal(perturb(a, now_s), perturb(b, now_s))

    def test_reset_restores_initial_stream(self):
        injector = FaultInjector(get_profile("hostile"), seed=3)
        first = [perturb(injector, t) for t in (0.0, 1.0)]
        injector.reset()
        again = [perturb(injector, t) for t in (0.0, 1.0)]
        for before, after in zip(first, again):
            np.testing.assert_array_equal(before, after)

    def test_different_seeds_differ(self):
        profile = get_profile("hostile")
        a = perturb(FaultInjector(profile, seed=1), 1.0)
        b = perturb(FaultInjector(profile, seed=2), 1.0)
        assert not np.array_equal(a, b)

    def test_quiet_profile_is_bit_transparent(self):
        injector = FaultInjector(get_profile("quiet"), seed=1)
        np.testing.assert_array_equal(perturb(injector, 1.0), FLAT)

    def test_faults_only_add_latency(self):
        for name in ("spike-bursts", "drift", "boot-storm", "sticky-misreads", "hostile"):
            injector = FaultInjector(get_profile(name), seed=5)
            for now_s in (0.5, 4.0, 9.0):
                assert (perturb(injector, now_s) >= FLAT).all(), name


class TestDrift:
    def test_ramp_then_cap(self):
        profile = FaultProfile(
            name="d", drift_ns_per_s=10.0, drift_start_s=2.0, drift_cap_ns=25.0
        )
        injector = FaultInjector(profile, seed=0)
        assert injector._drift_ns(1.0) == 0.0  # before onset
        assert injector._drift_ns(3.0) == pytest.approx(10.0)
        assert injector._drift_ns(4.0) == pytest.approx(20.0)
        assert injector._drift_ns(100.0) == pytest.approx(25.0)  # capped

    def test_triangle_wave_is_bounded_and_periodic(self):
        profile = FaultProfile(name="d", drift_ns_per_s=4.0, drift_period_s=8.0)
        injector = FaultInjector(profile, seed=0)
        peak = 4.0 * 8.0 / 2.0
        assert injector._drift_ns(4.0) == pytest.approx(peak)
        assert injector._drift_ns(8.0) == pytest.approx(0.0)
        assert injector._drift_ns(2.0) == pytest.approx(injector._drift_ns(10.0))
        for t in np.linspace(0, 40, 161):
            assert 0.0 <= injector._drift_ns(float(t)) <= peak


class TestStickyMisreads:
    PROFILE = FaultProfile(
        name="m", misread_probability=0.25, misread_extra_ns=30.0, misread_window_s=1.0
    )

    def test_sticky_within_window_rerolled_across(self):
        injector = FaultInjector(self.PROFILE, seed=11)
        early = injector._misread_mask(NO_CONFLICT, BASES, PARTNERS, 0.1e9)
        late = injector._misread_mask(NO_CONFLICT, BASES, PARTNERS, 0.9e9)
        np.testing.assert_array_equal(early, late)  # same window: same lies
        next_window = injector._misread_mask(NO_CONFLICT, BASES, PARTNERS, 1.5e9)
        assert not np.array_equal(early, next_window)  # re-rolled

    def test_conflict_pairs_never_misread(self):
        injector = FaultInjector(self.PROFILE, seed=11)
        all_conflicts = np.ones(64, dtype=bool)
        mask = injector._misread_mask(all_conflicts, BASES, PARTNERS, 0.0)
        assert not mask.any()

    def test_symmetric_pair_key(self):
        injector = FaultInjector(self.PROFILE, seed=11)
        ab = injector._misread_mask(NO_CONFLICT, BASES, PARTNERS, 0.0)
        ba = injector._misread_mask(NO_CONFLICT, PARTNERS, BASES, 0.0)
        np.testing.assert_array_equal(ab, ba)

    def test_no_rng_consumed(self):
        injector = FaultInjector(self.PROFILE, seed=11)
        before = injector._rng.bit_generator.state
        injector._misread_mask(NO_CONFLICT, BASES, PARTNERS, 0.0)
        assert injector._rng.bit_generator.state == before


class TestBursts:
    def test_burst_carries_across_batches(self):
        profile = FaultProfile(
            name="b", burst_start_probability=1.0, burst_length=100, burst_extra_ns=50.0
        )
        injector = FaultInjector(profile, seed=0)
        first = injector._burst_mask(10)
        assert first.any()
        assert injector._burst_remaining > 0

    def test_no_bursts_when_disabled(self):
        injector = FaultInjector(FaultProfile(name="q"), seed=0)
        assert not injector._burst_mask(32).any()


class TestStorms:
    def test_single_storm_window(self):
        profile = FaultProfile(
            name="s",
            storm_outlier_probability=0.9,
            storm_extra_ns=400.0,
            storm_start_s=1.0,
            storm_duration_s=2.0,
        )
        injector = FaultInjector(profile, seed=0)
        assert not injector._storm_active(0.5)
        assert injector._storm_active(1.5)
        assert not injector._storm_active(3.5)

    def test_periodic_storms_recur(self):
        profile = FaultProfile(
            name="s",
            storm_outlier_probability=0.5,
            storm_extra_ns=100.0,
            storm_duration_s=1.0,
            storm_period_s=10.0,
        )
        injector = FaultInjector(profile, seed=0)
        assert injector._storm_active(0.5)
        assert not injector._storm_active(5.0)
        assert injector._storm_active(10.5)


class TestAllocPressure:
    def test_schedule_then_full_grants(self):
        profile = FaultProfile(name="a", alloc_grant_fractions=(0.25, 0.5))
        injector = FaultInjector(profile, seed=0)
        assert injector.on_allocate(1 << 20, 0) == (1 << 20) // 4
        assert injector.on_allocate(1 << 20, 1) == (1 << 20) // 2
        assert injector.on_allocate(1 << 20, 2) == 1 << 20  # past the schedule

    def test_grant_floor_is_one_page(self):
        profile = FaultProfile(name="a", alloc_grant_fractions=(0.001,))
        injector = FaultInjector(profile, seed=0)
        assert injector.on_allocate(8192, 0) == 4096


def _assert_scalar_step_matches_batch(profile, seed, steps):
    """Feed ``steps`` to ``perturb_one`` and, on a twin injector, to
    one-element ``perturb`` calls; after every step the value, the RNG
    state, the burst carry and the traced counters must agree."""
    scalar = FaultInjector(profile, seed=seed)
    batch = FaultInjector(profile, seed=seed)
    scalar_tracer, batch_tracer = tracing.Tracer(), tracing.Tracer()
    for latency, is_conflict, addr_a, addr_b, now_ns in steps:
        with tracing.activate(scalar_tracer):
            got = scalar.perturb_one(latency, is_conflict, addr_a, addr_b, now_ns)
        with tracing.activate(batch_tracer):
            want = batch.perturb(
                np.asarray([latency]),
                np.asarray([is_conflict]),
                np.asarray([addr_a], dtype=np.uint64),
                np.asarray([addr_b], dtype=np.uint64),
                now_ns,
            )[0]
        assert type(got) is float
        assert got == want
        assert scalar._rng.bit_generator.state == batch._rng.bit_generator.state
        assert scalar._burst_remaining == batch._burst_remaining
        assert scalar_tracer.metrics.counters == batch_tracer.metrics.counters


@st.composite
def _storm_and_burst_profiles(draw):
    """Storms and bursts both on, which no registered profile combines, so
    their draw order is pinned here; drift and mis-reads sometimes."""
    duration = draw(st.floats(0.1, 2.0))
    return FaultProfile(
        name="mixed",
        burst_start_probability=draw(st.floats(0.05, 1.0)),
        burst_length=draw(st.integers(1, 6)),
        burst_extra_ns=draw(st.floats(0.0, 200.0)),
        drift_ns_per_s=draw(st.sampled_from([0.0, 2.5, 40.0])),
        drift_start_s=draw(st.floats(0.0, 3.0)),
        drift_period_s=draw(st.sampled_from([0.0, 1.0, 8.0])),
        drift_cap_ns=draw(st.sampled_from([0.0, 10.0, 35.0])),
        storm_outlier_probability=draw(st.floats(0.05, 1.0)),
        storm_extra_ns=draw(st.floats(0.0, 400.0)),
        storm_start_s=draw(st.floats(0.0, 2.0)),
        storm_duration_s=duration,
        storm_period_s=draw(st.sampled_from([0.0, duration, duration + 1.5])),
        misread_probability=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
        misread_extra_ns=draw(st.floats(0.0, 60.0)),
        misread_window_s=draw(st.floats(0.05, 2.0)),
    )


_EDGE_ADDRESSES = [0, 1, 2**63, 2**64 - 1]
_addresses = st.one_of(st.sampled_from(_EDGE_ADDRESSES), st.integers(0, 2**64 - 1))
# (latency, is_conflict, addr_a, addr_b, addresses as np.uint64, clock advance)
_steps = st.lists(
    st.tuples(
        st.floats(20.0, 400.0),
        st.booleans(),
        _addresses,
        _addresses,
        st.booleans(),
        st.floats(0.0, 0.5e9),
    ),
    min_size=1,
    max_size=80,
)


class TestScalarStep:
    """``perturb_one`` is ``perturb`` of one pair, draw for draw."""

    @pytest.mark.parametrize("value", _EDGE_ADDRESSES)
    def test_mix64_int_matches_vector_hash(self, value):
        vector = _mix64(np.asarray([value], dtype=np.uint64))[0]
        assert _mix64_int(value) == int(vector)

    @pytest.mark.parametrize("name", profile_names())
    def test_registered_profiles_on_a_clock_grid(self, name):
        # Every 125 ms over 20 s, plus drift's onset: the grid crosses
        # boot-storm's end, drift's onset and cap, hostile's half period
        # and period, and every mis-read window edge. Three pairs per
        # instant let a burst carry from one call into the next.
        rng = np.random.default_rng(0)
        clock = sorted({k * 0.125e9 for k in range(161)} | {3.6e9})
        steps = []
        for now_ns in clock:
            for _ in range(3):
                addr_a, addr_b = (
                    _EDGE_ADDRESSES[rng.integers(len(_EDGE_ADDRESSES))]
                    if rng.random() < 0.25
                    else int(rng.integers(0, 2**64, dtype=np.uint64))
                    for _ in range(2)
                )
                if rng.random() < 0.5:
                    addr_a, addr_b = np.uint64(addr_a), np.uint64(addr_b)
                latency, is_conflict = rng.uniform(60.0, 120.0), rng.random() < 0.3
                steps.append((latency, is_conflict, addr_a, addr_b, now_ns))
        _assert_scalar_step_matches_batch(get_profile(name), 5, steps)

    @given(_storm_and_burst_profiles(), st.integers(0, 2**32), _steps)
    @settings(max_examples=150, deadline=None)
    def test_storm_and_burst_mixes_on_random_clocks(self, profile, seed, raw_steps):
        now_ns = 0.0
        steps = []
        for latency, is_conflict, addr_a, addr_b, as_uint64, advance in raw_steps:
            now_ns += advance
            if as_uint64:
                addr_a, addr_b = np.uint64(addr_a), np.uint64(addr_b)
            steps.append((latency, is_conflict, addr_a, addr_b, now_ns))
        _assert_scalar_step_matches_batch(profile, seed, steps)
