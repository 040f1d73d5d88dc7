"""Unit tests for the determinism study module."""

import repro.evalsuite.determinism as determinism
from repro.baselines.drama import DramaConfig
from repro.core.dramdig import DramDigConfig
from repro.core.probe import ProbeConfig
from repro.evalsuite.determinism import render_determinism, run_determinism
from repro.parallel import GridPolicy

FAST_DRAMDIG = DramDigConfig(probe=ProbeConfig(rounds=200))
FAST_DRAMA = DramaConfig(pool_size=2500, rounds=400, timeout_seconds=600.0)


def test_dramdig_single_output():
    rows = run_determinism(
        machine_name="No.4",
        runs=3,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
    )
    by_tool = {row.tool: row for row in rows}
    dramdig = by_tool["DRAMDig"]
    assert dramdig.completed == 3
    assert dramdig.distinct_outputs == 1
    assert dramdig.modal_fraction == 1.0
    assert dramdig.correct_fraction == 1.0


def test_drama_row_accounts_for_every_run():
    rows = run_determinism(
        machine_name="No.4",
        runs=3,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
    )
    drama = next(row for row in rows if row.tool == "DRAMA")
    assert drama.runs == 3
    assert drama.completed <= 3
    assert sum(drama.outputs.values()) == drama.completed


def test_custom_configs_match_across_jobs():
    """Tool configs ship in the cells, so a pooled study matches serial."""
    study = dict(
        machine_name="No.4",
        runs=2,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
    )
    assert run_determinism(**study, jobs=2) == run_determinism(**study, jobs=1)


def test_traced_cells_are_named_by_tool_machine_and_run():
    from repro.obs import tracing

    tracer = tracing.Tracer()
    with tracing.activate(tracer):
        run_determinism(
            machine_name="No.4",
            runs=2,
            seed=1,
            dramdig_config=FAST_DRAMDIG,
            drama_config=FAST_DRAMA,
        )
    cells = [span.name for span in tracer.spans if span.name.startswith("cell:")]
    assert cells == [
        "cell:DRAMDig/No.4/run0",
        "cell:DRAMDig/No.4/run1",
        "cell:DRAMA/No.4/run0",
        "cell:DRAMA/No.4/run1",
    ]


def test_render():
    rows = run_determinism(
        machine_name="No.4",
        runs=2,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
    )
    text = render_determinism(rows)
    assert "DRAMDig" in text and "Modal output" in text


def _raise(*args, **kwargs):
    raise RuntimeError("injected cell failure")


def test_journal_resume_reruns_nothing(tmp_path, monkeypatch):
    """A completed study replays from its journal: equal rows, no cell run."""
    study = dict(
        machine_name="No.4",
        runs=2,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
        journal=tmp_path / "determinism.journal",
    )
    first = run_determinism(**study)
    monkeypatch.setattr(determinism, "dramdig_run_cell", _raise)
    monkeypatch.setattr(determinism, "drama_run_cell", _raise)
    assert run_determinism(**study) == first


def test_supervised_failure_renders_instead_of_raising(monkeypatch):
    """A failed run under supervision becomes a manifest entry, not a crash."""
    monkeypatch.setattr(determinism, "drama_run_cell", _raise)
    rows = run_determinism(
        machine_name="No.4",
        runs=2,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
        supervision=GridPolicy(),
    )
    drama = next(row for row in rows if row.tool == "DRAMA")
    assert drama.completed == 0
    assert "grid failures (" in render_determinism(rows)


class TestReport:
    def test_small_scale_report(self, tmp_path):
        from repro.evalsuite.report import ReportConfig, generate_report
        from repro.rowhammer.hammer import HammerConfig

        config = ReportConfig(
            seed=1,
            machines=("No.1",),
            hammer_machines=("No.1",),
            hammer_tests=1,
            determinism_runs=2,
            determinism_machine="No.4",
            dramdig=FAST_DRAMDIG,
            drama=FAST_DRAMA,
            hammer=HammerConfig(duration_seconds=20.0),
        )
        target = tmp_path / "report.md"
        report = generate_report(config, path=target)
        assert target.exists()
        assert "## Table II — uncovered mappings" in report
        assert "## Determinism study" in report
        assert "Sandy Bridge" in report
