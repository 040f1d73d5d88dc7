"""Tests for the double-sided attack driver and assessment."""

import pytest

from repro.dram.belief import BeliefMapping
from repro.dram.presets import preset
from repro.machine.machine import SimulatedMachine
from repro.rowhammer.assess import assess_vulnerability
from repro.rowhammer.hammer import DoubleSidedAttack, HammerConfig

SHORT = HammerConfig(duration_seconds=30.0, test_variability=0.0)


def machine_for(name, seed=1):
    return SimulatedMachine.from_preset(preset(name), seed=seed)


def correct_belief(name):
    return BeliefMapping.from_mapping(preset(name).mapping)


class TestCorrectAim:
    def test_all_trials_double_sided(self):
        machine = machine_for("No.1")
        attack = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.1)
        report = attack.run(correct_belief("No.1"), seed=0)
        assert report.aim_accuracy > 0.99
        assert report.flips > 0

    def test_flip_rate_tracks_vulnerability(self):
        machine = machine_for("No.1")
        weak = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.02)
        strong = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.4)
        belief = correct_belief("No.1")
        assert strong.run(belief, seed=1).flips > 4 * weak.run(belief, seed=1).flips

    def test_invulnerable_machine_never_flips(self):
        machine = machine_for("No.4")
        attack = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.0)
        report = attack.run(correct_belief("No.4"), seed=0)
        assert report.flips == 0
        assert report.aim_accuracy > 0.99  # aim was fine; the DIMM is solid


class TestWrongAim:
    def test_phantom_row_bit_kills_flips(self):
        """The DRAMA failure mode: a phantom low row bit means 'row +- 1'
        never moves the physical row."""
        mapping = preset("No.1").mapping
        belief = BeliefMapping(
            address_bits=33,
            bank_functions=mapping.bank_functions,
            row_bits=(9,) + mapping.row_bits,
            column_bits=tuple(b for b in mapping.column_bits if b != 9),
        )
        machine = machine_for("No.1")
        attack = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.3)
        report = attack.run(belief, seed=0)
        assert report.aim_accuracy < 0.05
        assert report.flips <= 2

    def _belief_missing(self, name, low, high):
        mapping = preset(name).mapping
        functions = tuple(
            f for f in mapping.bank_functions if f != (1 << low) | (1 << high)
        )
        return BeliefMapping(
            address_bits=mapping.geometry.address_bits,
            bank_functions=functions,
            row_bits=mapping.row_bits,
            column_bits=mapping.column_bits,
        )

    def test_missing_row_lsb_function_displaces_but_still_flips(self):
        """Subtle physics: without the (14,17) function both aggressors are
        shifted into the *same* wrong bank (row bit 17 toggles for every
        +-1), so they still sandwich a row there — the flips move to
        unintended victims but the buffer scan finds them."""
        machine = machine_for("No.1")
        attack = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.3)
        correct_report = attack.run(correct_belief("No.1"), seed=0)
        broken_report = attack.run(self._belief_missing("No.1", 14, 17), seed=0)
        assert broken_report.aimed_double == 0  # never hits the intended victim
        assert broken_report.flips > correct_report.flips / 2

    def test_missing_row_bit1_function_kills_flips(self):
        """Without (15,18) the two aggressors split into *different* wrong
        banks (bit 18 toggles for only one of row +-1): every trial is
        single-sided and below the single-sided threshold."""
        machine = machine_for("No.1")
        attack = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.3)
        report = attack.run(self._belief_missing("No.1", 15, 18), seed=0)
        assert report.aimed_double == 0
        assert report.aimed_single > 0
        assert report.flips == 0

    def test_missing_row_bit2_function_halves_flips(self):
        """Without (16,19) only rows not crossing bit 19 keep both
        aggressors aligned: roughly half the trials stay double-sided."""
        machine = machine_for("No.1")
        attack = DoubleSidedAttack(machine, config=SHORT, vulnerability=0.3)
        correct_report = attack.run(correct_belief("No.1"), seed=0)
        report = attack.run(self._belief_missing("No.1", 16, 19), seed=0)
        attempted = report.trials - report.skipped
        assert 0.35 < report.aimed_double / attempted < 0.75
        assert report.flips < 0.85 * correct_report.flips


class TestBookkeeping:
    def test_trials_scale_with_duration(self):
        machine = machine_for("No.1")
        short = DoubleSidedAttack(
            machine, config=HammerConfig(duration_seconds=10.0), vulnerability=0.1
        ).run(correct_belief("No.1"), seed=0)
        long = DoubleSidedAttack(
            machine, config=HammerConfig(duration_seconds=40.0), vulnerability=0.1
        ).run(correct_belief("No.1"), seed=0)
        assert long.trials == pytest.approx(4 * short.trials, rel=0.05)

    def test_mode_counters_sum(self):
        machine = machine_for("No.2")
        report = DoubleSidedAttack(
            machine, config=SHORT, vulnerability=0.1
        ).run(correct_belief("No.2"), seed=0)
        assert (
            report.aimed_double + report.aimed_single + report.aimed_none
            + report.skipped
            == report.trials
        )

    def test_requires_vulnerability_or_model(self):
        with pytest.raises(ValueError, match="vulnerability"):
            DoubleSidedAttack(machine_for("No.1"))

    def test_config_refuses_degenerate_durations(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="duration"):
                HammerConfig(duration_seconds=bad)

    def test_clock_charged(self):
        machine = machine_for("No.1")
        DoubleSidedAttack(machine, config=SHORT, vulnerability=0.1).run(
            correct_belief("No.1"), seed=0
        )
        assert machine.elapsed_seconds >= SHORT.duration_seconds


class TestAssessment:
    def test_report_structure(self):
        machine = machine_for("No.1")
        report = assess_vulnerability(
            machine, correct_belief("No.1"), vulnerability=0.1, tests=3, config=SHORT
        )
        assert len(report.tests) == 3
        assert report.total_flips == sum(t.flips for t in report.tests)
        assert "3 tests" in report.summary()

    def test_verdict_scales(self):
        machine = machine_for("No.1")
        quiet = assess_vulnerability(
            machine, correct_belief("No.1"), vulnerability=0.0, tests=1, config=SHORT
        )
        assert quiet.verdict == "no flips observed"
        loud = assess_vulnerability(
            machine, correct_belief("No.1"), vulnerability=0.5, tests=1, config=SHORT
        )
        assert loud.verdict in ("vulnerable", "highly vulnerable")

    def test_validation(self):
        machine = machine_for("No.1")
        with pytest.raises(ValueError):
            assess_vulnerability(machine, correct_belief("No.1"), 0.1, tests=0)
