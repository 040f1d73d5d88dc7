"""End-to-end fleet runs: amortization, adversaries, resume identity."""

import json

import pytest

from repro.fleet.confirm import ConfirmConfig
from repro.fleet.orchestrator import (
    FLEET_ARTIFACT_FORMAT,
    FleetConfig,
    FleetOutcome,
    _wave_slices,
    render_fleet,
    run_fleet,
    save_artifact,
)
from repro.fleet.spec import _mismatch_mapping, family_mapping
from repro.fleet.store import KnowledgeStore
from repro.machine.sysinfo import SystemInfo
from repro.obs import tracing as obs

# Cheap confirmation policy for tests: fewer pairs, smaller allocation.
CHEAP = ConfirmConfig(pairs=32, sample=512, alloc_fraction=0.05)


def _config(**overrides):
    defaults = dict(size=5, families=1, seed=0, max_gib=8, wave=2, confirm=CHEAP)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestWaveSlices:
    def test_exemplars_first_then_fixed_waves(self):
        assert _wave_slices(10, families=2, wave=4) == [(0, 2), (2, 6), (6, 10)]

    def test_single_machine(self):
        assert _wave_slices(1, families=2, wave=4) == [(0, 1)]

    def test_exact_fit(self):
        assert _wave_slices(6, families=2, wave=2) == [(0, 2), (2, 4), (4, 6)]


class TestConfig:
    def test_rejects_bad_values(self):
        for overrides in (
            {"size": 0},
            {"profile": "hostile"},
            {"wave": 0},
            {"max_candidates": 0},
        ):
            with pytest.raises(ValueError):
                _config(**overrides)

    def test_semantic_fingerprint_ignores_paths_and_jobs(self, tmp_path):
        base = _config()
        moved = _config(
            store_path=str(tmp_path / "s.jsonl"),
            journal_path=str(tmp_path / "j.jsonl"),
            jobs=2,
        )
        assert base.semantic_fingerprint() == moved.semantic_fingerprint()
        assert base.semantic_fingerprint() != _config(seed=1).semantic_fingerprint()


class TestLookalikeFleet:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_fleet(_config())

    def test_all_machines_correct(self, outcome):
        assert outcome.all_correct
        assert not outcome.failures

    def test_one_cold_start_rest_confirmed(self, outcome):
        counts = outcome.outcome_counts()
        assert counts["cold"] == 1
        assert counts["confirmed"] == 4
        assert counts["fallback"] == 0

    def test_scaling_curve_strictly_decreasing(self, outcome):
        curve = outcome.scaling_curve()
        assert len(curve) >= 2
        for key in ("amortized_measurements", "amortized_sim_seconds"):
            costs = [point[key] for point in curve]
            assert all(late < early for early, late in zip(costs, costs[1:])), key

    def test_store_amortizes_the_cold_start(self, outcome):
        # The one cold-start machine pays the full search; with the store
        # warm, the fleet's mean probe cost must be at least 2x cheaper.
        results = outcome.results
        (cold,) = [result for result in results if result.outcome == "cold"]
        mean = sum(result.measurements for result in results) / len(results)
        assert cold.measurements >= 2 * mean

    def test_store_learned_one_family(self, outcome):
        assert outcome.store_entries == 1
        assert outcome.quarantined == []

    def test_artifact_shape(self, outcome, tmp_path):
        artifact = outcome.artifact()
        assert artifact["format"] == FLEET_ARTIFACT_FORMAT
        assert len(artifact["machines"]) == 5
        assert artifact["summary"]["all_correct"] is True
        # The artifact must be path-free (the resume-identity contract).
        assert "store" not in json.dumps(artifact)
        path = tmp_path / "fleet.json"
        save_artifact(outcome, path)
        assert json.loads(path.read_text()) == artifact

    def test_render_is_deterministic_text(self, outcome):
        text = render_fleet(outcome)
        assert text == render_fleet(outcome)
        assert "all correct: yes" in text
        assert text.count("confirmed") >= 4


class TestAdversarialFleet:
    def test_poisoned_corrupt_store_still_converges(self, tmp_path):
        """The acceptance scenario: a poisoned entry ranked first, a
        corrupt store tail, and imposter machines — every machine must
        still end up with its true mapping, with the poison quarantined."""
        store_path = tmp_path / "store.jsonl"
        config = _config(
            size=5,
            profile="adversarial",
            mismatch_every=3,
            store_path=str(store_path),
            breaker_threshold=2,
        )
        family = family_mapping(config.specs()[0].family_seed)
        poison = _mismatch_mapping(family, 5)
        seeded = KnowledgeStore(store_path)
        entry = seeded.add(poison, SystemInfo.from_geometry(family.geometry))
        entry.confirmations = 50  # forged track record: ranks first
        seeded.save()
        # Corrupt the tail the way a killed rsync would.
        store_path.write_bytes(
            store_path.read_bytes() + b'{"key": "trunca\n\xff\xfegarble\n'
        )

        outcome = run_fleet(config)
        assert outcome.all_correct
        assert entry.key in outcome.quarantined
        assert outcome.store_dropped >= 2
        assert any(e.step == "knowledge-store" for e in outcome.events)
        assert any(e.action == "quarantine" for e in outcome.events)
        counts = outcome.outcome_counts()
        assert counts["failed"] == 0
        assert counts["fallback"] >= 1  # poison and imposters force searches
        # The poisoned hypothesis is gone from the persisted store's
        # candidate offerings too.
        reloaded = KnowledgeStore(store_path)
        assert reloaded.entries[entry.key].quarantined


class TestResume:
    def test_journaled_run_matches_and_replays_byte_identical(self, tmp_path):
        config = _config(size=4)
        reference = run_fleet(config)

        journaled_config = _config(
            size=4,
            store_path=str(tmp_path / "store.jsonl"),
            journal_path=str(tmp_path / "journal.jsonl"),
        )
        first = run_fleet(journaled_config)
        assert json.dumps(first.artifact()) == json.dumps(reference.artifact())
        assert render_fleet(first) == render_fleet(reference)

        # Replay over the journal *and* the mutated store: the baseline
        # snapshot must shield the run from the store's new entries, and
        # every cell must come from the journal (zero re-probing).
        tracer = obs.Tracer()
        with obs.activate(tracer):
            second = run_fleet(journaled_config)
        assert json.dumps(second.artifact()) == json.dumps(first.artifact())
        assert render_fleet(second) == render_fleet(first)
        counters = tracer.metrics.counters
        assert counters.get("grid.cells_resumed") == 4
        assert "fleet.machines" not in counters


class TestCellLabels:
    def test_pooled_traced_cells_are_named_by_machine(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            run_fleet(_config(size=3, jobs=2))
        cells = [span.name for span in tracer.spans if span.name.startswith("cell:")]
        assert cells == ["cell:m000", "cell:m001", "cell:m002"]


class TestEmptyOutcome:
    def test_scaling_curve_empty_without_results(self):
        outcome = FleetOutcome(config=_config(), machines=[])
        assert outcome.scaling_curve() == []
