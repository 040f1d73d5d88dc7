"""Kill-and-resume determinism: interrupted grid runs resume byte-identically.

The contract behind ``--resume``: a run that dies partway (simulated
here by truncating the checkpoint journal to a prefix, the on-disk state
an interrupt leaves behind) and is restarted over its journal must

* re-execute only the missing cells, and
* render artefacts byte-identical to an uninterrupted run.

Truncation rather than an actual mid-flight SIGKILL keeps the test
deterministic; the CI smoke job (``scripts/kill_resume_smoke.py``) does
the real-kill variant, on ``table1`` among other workloads.
"""

import repro.parallel.supervisor as supervisor
from repro.evalsuite.figure2 import render_figure2, run_figure2
from repro.evalsuite.table1 import render_table1, run_table1
from repro.parallel import CellFailure, GridPolicy

PANEL = ("No.1", "No.4")


def _truncate_journal(path, keep: int) -> None:
    """Rewrite the journal with only its first ``keep`` records."""
    lines = path.read_text().splitlines()
    header, records = lines[0], lines[1:]
    assert len(records) > keep, "test needs a journal longer than the prefix"
    path.write_text("\n".join([header] + records[:keep]) + "\n")


def _counting_execute_cell(counter):
    real = supervisor.execute_cell

    def wrapped(cell, *context):
        counter.append(cell.task)
        return real(cell, *context)

    return wrapped


class TestKillAndResume:
    def test_table1_resume_is_byte_identical_and_minimal(self, tmp_path, monkeypatch):
        cold = render_table1(run_table1(seed=1, machines=PANEL, determinism_runs=2))

        journal_path = tmp_path / "journal.jsonl"
        supervised = render_table1(
            run_table1(
                seed=1, machines=PANEL, determinism_runs=2, journal=journal_path
            )
        )
        assert supervised == cold

        total = len(journal_path.read_text().splitlines()) - 1  # minus header
        keep = 2
        _truncate_journal(journal_path, keep)

        executed = []
        monkeypatch.setattr(
            supervisor, "execute_cell", _counting_execute_cell(executed)
        )
        resumed = render_table1(
            run_table1(
                seed=1, machines=PANEL, determinism_runs=2, journal=journal_path
            )
        )
        assert resumed == cold
        assert len(executed) == total - keep

    def test_figure2_resume_is_byte_identical(self, tmp_path):
        cold = render_figure2(run_figure2(seed=1, machines=PANEL))
        journal_path = tmp_path / "journal.jsonl"
        first = render_figure2(
            run_figure2(seed=1, machines=PANEL, journal=journal_path)
        )
        assert first == cold
        _truncate_journal(journal_path, 1)
        resumed = render_figure2(
            run_figure2(seed=1, machines=PANEL, journal=journal_path)
        )
        assert resumed == cold

    def test_full_journal_resume_executes_nothing(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        run_table1(seed=1, machines=PANEL, determinism_runs=2, journal=journal_path)

        executed = []
        monkeypatch.setattr(
            supervisor, "execute_cell", _counting_execute_cell(executed)
        )
        run_table1(seed=1, machines=PANEL, determinism_runs=2, journal=journal_path)
        assert executed == []

    def test_journal_keys_by_content_not_position(self, tmp_path):
        """Changing the seed invalidates every checkpoint (fingerprints
        cover the payload), so a stale journal cannot poison a new run."""
        journal_path = tmp_path / "journal.jsonl"
        run_table1(seed=1, machines=PANEL, determinism_runs=2, journal=journal_path)
        cold = render_table1(run_table1(seed=2, machines=PANEL, determinism_runs=2))
        crossed = render_table1(
            run_table1(
                seed=2, machines=PANEL, determinism_runs=2, journal=journal_path
            )
        )
        assert crossed == cold


class TestPartialRendering:
    def test_table1_renders_failed_cells(self, monkeypatch):
        real = supervisor.execute_cell

        def sabotage(cell, *context):
            if (
                cell.task == "repro.evalsuite.table1:dramdig_machine_cell"
                and cell.payload.get("name") == "No.4"
            ):
                raise RuntimeError("injected cell failure")
            return real(cell, *context)

        monkeypatch.setattr(supervisor, "execute_cell", sabotage)
        verdicts = run_table1(
            seed=1,
            machines=PANEL,
            determinism_runs=2,
            supervision=GridPolicy(),
        )
        dramdig = next(v for v in verdicts if v.tool == "DRAMDig")
        assert dramdig.grid_failed == ("No.4",)
        assert dramdig.details["No.4"] == "FAILED(error)"
        assert not dramdig.generic
        rendered = render_table1(verdicts)
        assert "grid FAILED: No.4" in rendered

    def test_figure2_renders_failure_rows_and_manifest(self):
        points = run_figure2(seed=1, machines=("No.1",))
        from repro.parallel import GridCell, fingerprint_cell

        cell = GridCell(
            "repro.evalsuite.figure2:figure2_machine_cell",
            {"name": "No.4", "seed": 1},
        )
        failure = CellFailure(
            index=1,
            cell=cell,
            fingerprint=fingerprint_cell(cell),
            reason="worker-death",
            detail="worker process died mid-cell",
            attempts=1,
        )
        rendered = render_figure2(points + [failure])
        assert "FAILED(worker-death)" in rendered
        assert "grid failures (1 cell(s) unrecovered):" in rendered
        assert "No.4" in rendered
        # averages still computed over the completed machine
        assert "DRAMDig average" in rendered

    def test_figure2_all_failed_renders_without_crashing(self):
        from repro.parallel import GridCell

        cell = GridCell(
            "repro.evalsuite.figure2:figure2_machine_cell",
            {"name": "No.1", "seed": 1},
        )
        failure = CellFailure(
            index=0, cell=cell, fingerprint="f" * 64, reason="timeout"
        )
        rendered = render_figure2([failure])
        assert "FAILED(timeout)" in rendered
        assert "DRAMDig average" not in rendered


class TestTable3Partial:
    def test_render_table3_failure_row(self):
        from repro.evalsuite.table3 import Table3Row, render_table3
        from repro.parallel import GridCell

        good = Table3Row(
            machine="No.1", dramdig_flips=[5, 6], drama_flips=[1, 2]
        )
        cell = GridCell(
            "repro.evalsuite.table3:table3_machine_cell",
            {"name": "No.2", "seed": 1},
        )
        failure = CellFailure(
            index=1, cell=cell, fingerprint="a" * 64, reason="run-deadline"
        )
        rendered = render_table3([good, failure])
        assert "FAILED(run-deadline)" in rendered
        assert "No.2" in rendered
        assert "grid failures (1 cell(s) unrecovered):" in rendered


class TestTable2Grid:
    def test_journal_resume_replays_every_row(self, tmp_path, monkeypatch):
        import repro.evalsuite.table2 as table2

        journal_path = tmp_path / "journal.jsonl"
        first = table2.run_table2(seed=1, machines=PANEL, journal=journal_path)

        def refuse(name, seed, config):
            raise AssertionError(f"{name} re-executed despite its journal record")

        monkeypatch.setattr(table2, "table2_machine_cell", refuse)
        second = table2.run_table2(seed=1, machines=PANEL, journal=journal_path)
        assert second == first

    def test_failed_machine_renders_row_and_manifest(self, monkeypatch):
        import repro.evalsuite.table2 as table2

        real = table2.table2_machine_cell

        def sabotage(name, seed, config):
            if name == "No.4":
                raise RuntimeError("injected cell failure")
            return real(name, seed, config)

        monkeypatch.setattr(table2, "table2_machine_cell", sabotage)
        rows = table2.run_table2(seed=1, machines=PANEL)
        assert isinstance(rows[1], CellFailure)
        rendered = table2.render_table2(rows)
        assert "FAILED(error)" in rendered
        assert "grid failures (" in rendered
