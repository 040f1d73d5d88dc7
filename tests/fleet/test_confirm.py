"""Confirmation campaigns: true beliefs pass, imposters and poison fail."""

import numpy as np
import pytest

from repro.dram.belief import BeliefMapping
from repro.dram.compiled import CompiledMapping
from repro.dram.random_mapping import random_mapping
from repro.fleet.confirm import ConfirmConfig, plan_confirmation, run_confirmation
from repro.fleet.spec import _mismatch_mapping
from repro.machine.machine import SimulatedMachine

GIB = 2**30

# A cheap config for tests: fewer pairs, smaller sample, same verdict
# logic. Allocation is done by the tests directly (64 MiB is plenty of
# bank diversity), so alloc_fraction is unused here.
CONFIG = ConfirmConfig(pairs=32, sample=512)


def small_mapping(start=0):
    """First generated mapping at most 4 GiB (keeps allocation cheap)."""
    for seed in range(start, start + 64):
        mapping = random_mapping(np.random.default_rng(seed))
        if mapping.geometry.total_bytes <= 4 * GIB:
            return mapping
    raise AssertionError("no small mapping in seed range")


@pytest.fixture(scope="module")
def mapping():
    return small_mapping()


@pytest.fixture(scope="module")
def machine_pages(mapping):
    machine = SimulatedMachine(mapping=mapping, seed=5)
    pages = machine.allocate(64 << 20, "fragmented")
    return machine, pages


class TestVectorizedBelief:
    def test_compiled_banks_match_scalar(self, mapping):
        belief = BeliefMapping.from_mapping(mapping)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, mapping.geometry.total_bytes, size=64, dtype=np.uint64)
        addrs &= ~np.uint64(63)
        banks, _, _ = CompiledMapping.from_belief(belief).translate(addrs)
        for addr, bank in zip(addrs.tolist(), banks.tolist()):
            assert bank == belief.bank_of(addr)

    def test_compiled_rows_match_scalar(self, mapping):
        belief = BeliefMapping.from_mapping(mapping)
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, mapping.geometry.total_bytes, size=64, dtype=np.uint64)
        _, rows, _ = CompiledMapping.from_belief(belief).translate(addrs)
        for addr, row in zip(addrs.tolist(), rows.tolist()):
            assert row == belief.row_of(addr)


class TestVerdicts:
    def test_true_belief_confirms(self, mapping, machine_pages):
        machine, pages = machine_pages
        belief = BeliefMapping.from_mapping(mapping)
        outcome = run_confirmation(
            machine, pages, belief, np.random.default_rng(7), CONFIG
        )
        assert outcome.confirmed
        assert outcome.reason == "confirmed"
        assert outcome.probes == 2 * CONFIG.pairs
        assert outcome.agreement >= CONFIG.purity

    def test_imposter_belief_rejected(self, mapping, machine_pages):
        """The adversarial case: same SystemInfo, one deformed function."""
        machine, pages = machine_pages
        belief = BeliefMapping.from_mapping(_mismatch_mapping(mapping, 0))
        outcome = run_confirmation(
            machine, pages, belief, np.random.default_rng(7), CONFIG
        )
        assert not outcome.confirmed
        assert outcome.reason == "disagreement"
        assert outcome.agreement < CONFIG.purity

    def test_every_mismatch_variant_rejected(self, mapping, machine_pages):
        machine, pages = machine_pages
        for variant in range(4):
            belief = BeliefMapping.from_mapping(_mismatch_mapping(mapping, variant))
            outcome = run_confirmation(
                machine, pages, belief, np.random.default_rng(7), CONFIG
            )
            assert not outcome.confirmed, variant

    def test_degenerate_belief_fails_planning(self, mapping, machine_pages):
        """A belief whose banks cannot be told apart must fall back, not
        be accepted by default."""
        machine, pages = machine_pages
        belief = BeliefMapping(
            address_bits=mapping.geometry.address_bits,
            bank_functions=(0,),
            row_bits=mapping.row_bits,
            column_bits=mapping.column_bits,
        )
        outcome = run_confirmation(
            machine, pages, belief, np.random.default_rng(7), CONFIG
        )
        assert not outcome.confirmed
        assert outcome.reason == "plan-failed"
        assert outcome.probes == 0

    def test_deterministic_across_machine_rebuilds(self, mapping):
        """Same seeds, fresh machine: the verdict replays bit-identically
        (the property the checkpoint journal relies on)."""
        belief = BeliefMapping.from_mapping(mapping)
        outcomes = []
        for _ in range(2):
            machine = SimulatedMachine(mapping=mapping, seed=5)
            pages = machine.allocate(64 << 20, "fragmented")
            outcomes.append(
                run_confirmation(
                    machine, pages, belief, np.random.default_rng(11), CONFIG
                )
            )
        assert outcomes[0] == outcomes[1]


class TestPlanning:
    def test_plan_shapes(self, mapping):
        belief = BeliefMapping.from_mapping(mapping)
        rng = np.random.default_rng(3)
        addrs = rng.integers(
            0, mapping.geometry.total_bytes, size=2048, dtype=np.uint64
        ) & ~np.uint64(63)
        plan = plan_confirmation(belief, addrs, pairs=16)
        assert plan is not None
        bases, partners, predicted = plan
        assert bases.shape == partners.shape == predicted.shape == (32,)
        assert int(predicted.sum()) == 16
        compiled = CompiledMapping.from_belief(belief)
        banks_b, rows_b, _ = compiled.translate(bases)
        banks_p, rows_p, _ = compiled.translate(partners)
        assert np.array_equal(banks_b[predicted], banks_p[predicted])
        assert np.all(rows_b[predicted] != rows_p[predicted])
        assert np.all(banks_b[~predicted] != banks_p[~predicted])

    def test_plan_refuses_thin_samples(self, mapping):
        belief = BeliefMapping.from_mapping(mapping)
        addrs = np.array([0, 64], dtype=np.uint64)
        assert plan_confirmation(belief, addrs, pairs=16) is None


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pairs": 4},
            {"pairs": 64, "sample": 100},
            {"purity": 0.5},
            {"purity": 1.2},
            {"alloc_fraction": 0.0},
            {"alloc_fraction": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ConfirmConfig(**kwargs)
