"""Fleet composition: determinism, families, imposters."""

import pytest

from repro.dram.random_mapping import MIN_GIB
from repro.fleet.spec import (
    MachineSpec,
    adversarial_fleet,
    family_mapping,
    lookalike_fleet,
    materialize_mapping,
)
from repro.machine.sysinfo import SystemInfo

GIB = 2**30


class TestMachineSpec:
    def test_payload_roundtrip(self):
        spec = MachineSpec("m007", family_seed=11, machine_seed=99, kind="mismatch", variant=7)
        assert MachineSpec.from_payload(spec.to_payload()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec("m000", 1, 2, kind="imposter")


class TestFamilies:
    def test_family_mapping_deterministic(self):
        assert family_mapping(42).equivalent_to(family_mapping(42))

    def test_distinct_families_differ(self):
        a, b = family_mapping(42), family_mapping(43)
        assert a.geometry != b.geometry or not a.equivalent_to(b)

    def test_max_gib_caps_geometry(self):
        for spec in lookalike_fleet(4, families=4, seed=0, max_gib=8):
            assert materialize_mapping(spec).geometry.total_bytes <= 8 * GIB

    @pytest.mark.parametrize("max_gib", [MIN_GIB - 1, 0, -1])
    def test_max_gib_below_every_geometry_is_refused(self, max_gib):
        with pytest.raises(ValueError, match=f"max_gib must be at least {MIN_GIB}"):
            lookalike_fleet(2, families=2, seed=0, max_gib=max_gib)


class TestLookalikeFleet:
    def test_deterministic(self):
        assert lookalike_fleet(8, seed=3) == lookalike_fleet(8, seed=3)

    def test_exemplars_front_loaded_then_round_robin(self):
        specs = lookalike_fleet(8, families=2, seed=0)
        seeds = [spec.family_seed for spec in specs]
        assert seeds[0] != seeds[1]
        assert seeds[2:] == [seeds[0], seeds[1]] * 3

    def test_lookalikes_share_ground_truth(self):
        specs = lookalike_fleet(6, families=2, seed=0, max_gib=8)
        assert materialize_mapping(specs[0]).equivalent_to(
            materialize_mapping(specs[2])
        )

    def test_machine_seeds_unique(self):
        specs = lookalike_fleet(16, families=2, seed=0)
        seeds = [spec.machine_seed for spec in specs]
        assert len(set(seeds)) == len(seeds)


class TestAdversarialFleet:
    def test_exemplars_stay_genuine(self):
        specs = adversarial_fleet(9, families=2, seed=0, mismatch_every=3)
        assert all(spec.kind == "lookalike" for spec in specs[:2])
        assert any(spec.kind == "mismatch" for spec in specs[2:])

    def test_imposter_reports_family_sysinfo_but_differs(self):
        specs = adversarial_fleet(9, families=2, seed=0, max_gib=8, mismatch_every=3)
        imposter = next(spec for spec in specs if spec.kind == "mismatch")
        family = family_mapping(imposter.family_seed)
        truth = materialize_mapping(imposter)
        assert SystemInfo.from_geometry(truth.geometry) == SystemInfo.from_geometry(
            family.geometry
        )
        assert not truth.equivalent_to(family)

    def test_imposter_mapping_is_valid(self):
        # _mismatch_mapping must stay a bijection: AddressMapping
        # validates on construction, so materializing is the assertion.
        specs = adversarial_fleet(12, families=2, seed=1, max_gib=8)
        for spec in specs:
            if spec.kind == "mismatch":
                materialize_mapping(spec)
