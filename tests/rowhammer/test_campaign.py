"""Tests for the campaign fuzzer: sweep space, grid dispatch, artifacts.

The CI smoke job (``scripts/kill_resume_smoke.py``) does the
real-SIGKILL variant; here resume is exercised deterministically by
truncating the journal, mirroring ``tests/evalsuite/test_resume.py``.
"""

import json

import pytest

import repro.parallel.supervisor as supervisor
from repro.parallel import GridPolicy
from repro.rowhammer.campaign import (
    CampaignSpec,
    build_leaderboard,
    campaign_artifact,
    campaign_trial_cell,
    load_artifact,
    mitigation_names,
    render_artifact,
    render_campaign,
    run_campaign,
    save_artifact,
    variant_names,
)

SPEC = CampaignSpec(
    machines=("No.1", "No.5"),
    variants=("double_sided", "single_sided"),
    mitigations=("none", "trr"),
    tests=1,
    duration_seconds=5.0,
    seed=1,
)


def _truncate_journal(path, keep: int) -> None:
    lines = path.read_text().splitlines()
    header, records = lines[0], lines[1:]
    assert len(records) > keep, "test needs a journal longer than the prefix"
    path.write_text("\n".join([header] + records[:keep]) + "\n")


def _counting_execute_cell(counter):
    real = supervisor.execute_cell

    def wrapped(cell, *context):
        counter.append(cell.payload.get("name"))
        return real(cell, *context)

    return wrapped


class TestSpec:
    def test_defaults_cover_the_full_axes(self):
        spec = CampaignSpec()
        assert spec.variants == variant_names()
        assert spec.mitigations == mitigation_names()
        assert spec.cell_count == len(spec.machines) * 4 * 4 * 2

    def test_rejects_unknown_axis_values(self):
        with pytest.raises(ValueError, match="machine"):
            CampaignSpec(machines=("No.99",))
        with pytest.raises(ValueError, match="variant"):
            CampaignSpec(variants=("quad_sided",))
        with pytest.raises(ValueError, match="mitigation"):
            CampaignSpec(mitigations=("prayer",))

    def test_rejects_degenerate_sweeps(self):
        with pytest.raises(ValueError, match="empty"):
            CampaignSpec(machines=())
        with pytest.raises(ValueError, match="test"):
            CampaignSpec(tests=0)
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="duration"):
                CampaignSpec(duration_seconds=bad)

    def test_combos_are_machine_major_and_complete(self):
        combos = list(SPEC.combos())
        assert len(combos) == SPEC.cell_count == 8
        assert combos[0] == ("No.1", "double_sided", "none", 0)
        assert combos[-1] == ("No.5", "single_sided", "trr", 0)
        assert len(set(combos)) == len(combos)

    def test_hammer_trials_per_test(self):
        # 64 ms refresh window + 6 ms overhead per victim trial.
        assert SPEC.hammer_trials_per_test() == int(5.0 / 0.07)

    def test_to_dict_is_json_ready(self):
        record = SPEC.to_dict()
        assert json.loads(json.dumps(record)) == record
        assert record["machines"] == ["No.1", "No.5"]


class TestTrialCell:
    def test_deterministic(self):
        args = ("t", "No.1", "double_sided", "trr", 1, 0, 5.0)
        assert campaign_trial_cell(*args) == campaign_trial_cell(*args)

    def test_distinct_test_indices_hammer_differently(self):
        first = campaign_trial_cell("a", "No.1", "double_sided", "none", 1, 0, 30.0)
        second = campaign_trial_cell("b", "No.1", "double_sided", "none", 1, 1, 30.0)
        assert first.test_index != second.test_index
        assert (first.flips, first.raw_flips) != (second.flips, second.raw_flips)

    def test_counter_invariants_hold(self):
        result = campaign_trial_cell("t", "No.1", "many_sided_6", "trr_ecc", 1, 0, 10.0)
        assert (
            result.stopped_by_trr + result.ecc_corrected + result.ecc_detected
            + result.ecc_silent + result.flips
            == result.raw_flips
        )
        assert (
            result.aimed_double + result.aimed_single + result.aimed_none
            + result.skipped
            == result.trials
        )


class TestRunAndLeaderboard:
    def test_serial_run_aggregates_consistently(self):
        outcome = run_campaign(SPEC)
        assert not outcome.failures
        assert len(outcome.completed) == SPEC.cell_count
        per_test = SPEC.hammer_trials_per_test()
        assert outcome.total_trials == SPEC.cell_count * per_test

        rows = build_leaderboard(outcome)
        assert len(rows) == 8  # one per configuration
        assert sum(row.flips for row in rows) == outcome.total_flips
        assert sum(row.trials for row in rows) == outcome.total_trials
        yields = [row.flips_per_minute for row in rows]
        assert yields == sorted(yields, reverse=True)

    def test_render_contains_the_totals_line(self):
        outcome = run_campaign(SPEC)
        rendered = render_campaign(outcome)
        assert rendered.startswith("campaign flip-yield leaderboard")
        assert (
            f"8/8 tests, {outcome.total_trials} hammer trials, "
            f"{outcome.total_flips} observable flips" in rendered
        )


class TestResume:
    def test_truncated_journal_resume_is_byte_identical_and_minimal(
        self, tmp_path, monkeypatch
    ):
        cold = run_campaign(SPEC)
        journal = tmp_path / "campaign.jsonl"
        first = run_campaign(SPEC, journal=journal)
        assert render_campaign(first) == render_campaign(cold)

        total = len(journal.read_text().splitlines()) - 1
        keep = 3
        _truncate_journal(journal, keep)
        executed = []
        monkeypatch.setattr(
            supervisor, "execute_cell", _counting_execute_cell(executed)
        )
        resumed = run_campaign(SPEC, journal=journal)
        assert render_campaign(resumed) == render_campaign(cold)
        assert campaign_artifact(resumed) == campaign_artifact(cold)
        assert len(executed) == total - keep

    def test_full_journal_resume_executes_nothing(self, tmp_path, monkeypatch):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, journal=journal)
        executed = []
        monkeypatch.setattr(
            supervisor, "execute_cell", _counting_execute_cell(executed)
        )
        run_campaign(SPEC, journal=journal)
        assert executed == []

    def test_spec_change_invalidates_the_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, journal=journal)
        reseeded = CampaignSpec(
            machines=SPEC.machines, variants=SPEC.variants,
            mitigations=SPEC.mitigations, tests=SPEC.tests,
            duration_seconds=SPEC.duration_seconds, seed=2,
        )
        cold = run_campaign(reseeded)
        crossed = run_campaign(reseeded, journal=journal)
        assert render_campaign(crossed) == render_campaign(cold)


class TestArtifact:
    def test_save_load_render_roundtrip(self, tmp_path):
        outcome = run_campaign(SPEC)
        path = tmp_path / "campaign.json"
        save_artifact(outcome, path)
        artifact = load_artifact(path)
        assert artifact["format"] == "dramdig-campaign-v1"
        assert artifact["spec"] == SPEC.to_dict()
        assert artifact["totals"]["flips"] == outcome.total_flips
        assert render_artifact(artifact) == render_campaign(outcome)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a dramdig-campaign-v1"):
            load_artifact(path)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not JSON"):
            load_artifact(path)


class TestFailures:
    def test_failed_trials_render_as_a_manifest(self, monkeypatch):
        real = supervisor.execute_cell

        def sabotage(cell, *context):
            if cell.payload.get("name") == "No.5/single_sided/trr/t0":
                raise RuntimeError("injected trial failure")
            return real(cell, *context)

        monkeypatch.setattr(supervisor, "execute_cell", sabotage)
        outcome = run_campaign(SPEC, supervision=GridPolicy())
        assert len(outcome.failures) == 1
        assert len(outcome.completed) == SPEC.cell_count - 1

        rendered = render_campaign(outcome)
        assert "7/8 tests" in rendered
        assert "No.5/single_sided/trr/t0" in rendered

        artifact = campaign_artifact(outcome)
        assert artifact["failures"][0]["name"] == "No.5/single_sided/trr/t0"
        assert "No.5/single_sided/trr/t0" in render_artifact(artifact)
