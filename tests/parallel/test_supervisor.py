"""Tests for the supervised grid engine (worker death, hangs, retries).

The pooled tests spawn real worker processes and inject real process
death (``os._exit``), so they are slower than the serial ones; they are
the regression for the load-bearing claim that ``BrokenProcessPool``
never reaches a caller of :func:`run_cells`. Results are checked against
:func:`execute_cell` run directly in the test process.
"""

import pytest

from repro.faults.gridfaults import invocations
from repro.obs import TelemetryBus, Tracer, activate, activate_bus
from repro.parallel import (
    GridCell,
    GridError,
    GridPolicy,
    execute_cell,
    run_cells,
)


def _parity_cells(values):
    return [
        GridCell("repro.analysis.bits:parity", {"value": value}) for value in values
    ]


def _direct(cells):
    return [execute_cell(cell) for cell in cells]


class TestGridPolicy:
    def test_defaults_are_valid(self):
        policy = GridPolicy()
        assert policy.retries == 0
        assert policy.cell_timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_timeout_s": 0},
            {"cell_timeout_s": -1.0},
            {"run_deadline_s": 0},
            {"retries": -1},
            {"backoff_initial_s": -0.1},
            {"backoff_multiplier": 0.5},
            {"backoff_max_s": -1.0},
            {"cell_timeout_s": float("nan")},
            {"run_deadline_s": float("nan")},
            {"retries": float("nan")},
            {"backoff_initial_s": float("nan")},
            {"backoff_multiplier": float("nan")},
            {"backoff_max_s": float("nan")},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridPolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        policy = GridPolicy(
            backoff_initial_s=0.1, backoff_multiplier=2.0, backoff_max_s=0.3
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(5) == pytest.approx(0.3)


class TestSerialSupervised:
    def test_matches_fail_fast_results(self):
        cells = _parity_cells([0b0, 0b1, 0b11, 0b111])
        outcome = run_cells(cells)
        assert outcome.complete
        assert not outcome.degraded
        assert outcome.results == _direct(cells)

    def test_empty_input(self):
        outcome = run_cells([])
        assert outcome.results == []
        assert outcome.complete

    def test_cell_error_degrades_not_raises(self, tmp_path):
        cells = _parity_cells([1]) + [
            GridCell(
                "repro.faults.gridfaults:flaky_cell",
                {"scratch": str(tmp_path), "key": "always", "fail_times": 99},
            )
        ] + _parity_cells([3])
        outcome = run_cells(cells)
        assert not outcome.complete
        assert [f.index for f in outcome.failures] == [1]
        assert outcome.failures[0].reason == "error"
        assert "scripted failure" in outcome.failures[0].detail
        # neighbours still computed, failure marker sits in the slot
        assert outcome.results[0] == 1
        assert outcome.results[1] is outcome.failures[0]
        assert outcome.results[2] == 0
        with pytest.raises(GridError, match="flaky_cell"):
            outcome.require()

    def test_retries_recover_flaky_cell(self, tmp_path):
        cell = GridCell(
            "repro.faults.gridfaults:flaky_cell",
            {"scratch": str(tmp_path), "key": "flaky", "fail_times": 2,
             "value": "won"},
        )
        policy = GridPolicy(retries=2, backoff_initial_s=0.01, backoff_max_s=0.02)
        outcome = run_cells([cell], policy=policy)
        assert outcome.complete
        assert outcome.results == ["won"]
        assert invocations(str(tmp_path), "flaky") == 3
        retries = [e for e in outcome.events if e.action == "retry"]
        assert len(retries) == 2
        assert all(e.step == "grid" for e in retries)

    def test_retry_budget_exhausts(self, tmp_path):
        cell = GridCell(
            "repro.faults.gridfaults:flaky_cell",
            {"scratch": str(tmp_path), "key": "stubborn", "fail_times": 99},
        )
        policy = GridPolicy(retries=1, backoff_initial_s=0.01)
        outcome = run_cells([cell], policy=policy)
        assert not outcome.complete
        assert outcome.failures[0].attempts == 2

    def test_run_deadline_salvages_finished_prefix(self, tmp_path):
        cells = [
            GridCell(
                "repro.faults.gridfaults:hang_cell",
                {"seconds": 0.4, "value": "slow-but-done"},
            ),
            _parity_cells([1])[0],
        ]
        policy = GridPolicy(run_deadline_s=0.1)
        outcome = run_cells(cells, policy=policy)
        # serial runs cannot pre-empt a cell, so the first finishes;
        # the second is refused because the deadline has passed
        assert outcome.results[0] == "slow-but-done"
        assert [f.index for f in outcome.failures] == [1]
        assert outcome.failures[0].reason == "run-deadline"


class TestObservedFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cell_reruns_as_submitted(self, tmp_path, jobs):
        """A failure under a tracer and a telemetry bus carries the cell
        exactly as submitted, so re-running it by hand just works."""
        cell = GridCell(
            "repro.faults.gridfaults:flaky_cell",
            {"scratch": str(tmp_path), "key": "once", "fail_times": 1,
             "value": "second-try"},
        )
        tracer = Tracer()
        with activate(tracer), activate_bus(TelemetryBus(tmp_path / "s.jsonl")):
            outcome = run_cells([cell], jobs=jobs, policy=GridPolicy())
        [failure] = outcome.failures
        assert failure.cell == cell
        assert execute_cell(failure.cell) == "second-try"
        statuses = [s.status for s in tracer.spans if s.name.startswith("cell:")]
        assert statuses == ["failed"]


class TestJournalledRuns:
    def test_resume_skips_journalled_cells(self, tmp_path):
        cells = [
            GridCell(
                "repro.faults.gridfaults:counting_cell",
                {"scratch": str(tmp_path), "key": f"cell{i}", "value": i * 10},
            )
            for i in range(4)
        ]
        journal_path = tmp_path / "journal.jsonl"
        first = run_cells(cells, journal=journal_path)
        assert first.complete
        assert first.resumed == 0
        assert first.results == [0, 10, 20, 30]

        second = run_cells(cells, journal=journal_path)
        assert second.complete
        assert second.resumed == 4
        assert second.results == first.results
        # zero re-executions: every counter still reads exactly one
        for i in range(4):
            assert invocations(str(tmp_path), f"cell{i}") == 1

    def test_failed_cells_are_not_journalled(self, tmp_path):
        cells = [
            GridCell(
                "repro.faults.gridfaults:flaky_cell",
                {"scratch": str(tmp_path), "key": "retryable", "fail_times": 99},
            )
        ]
        journal_path = tmp_path / "journal.jsonl"
        outcome = run_cells(cells, journal=journal_path)
        assert not outcome.complete
        # a rerun executes the cell again (it was never checkpointed)
        rerun = run_cells(cells, journal=journal_path)
        assert rerun.resumed == 0
        assert not rerun.complete


class TestPooledSupervised:
    """Real worker processes, real process death. Slower by necessity."""

    def test_pooled_matches_fail_fast_results(self):
        cells = _parity_cells(list(range(8)))
        outcome = run_cells(cells, jobs=2)
        assert outcome.complete
        assert outcome.results == _direct(cells)

    def test_worker_death_is_contained(self):
        """A cell that kills its worker fails alone; the run survives.

        This is the headline guarantee: ``BrokenProcessPool`` never
        escapes, and with ``retries=0`` the poison cell cannot burn its
        neighbours' budgets (quarantine attribution re-runs suspects
        solo before charging anyone).
        """
        cells = (
            _parity_cells([1, 2])
            + [GridCell("repro.faults.gridfaults:poison_cell", {})]
            + _parity_cells([4, 7])
        )
        outcome = run_cells(cells, jobs=2)
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.failures[0].reason == "worker-death"
        expected = _direct(_parity_cells([1, 2, 4, 7]))
        survivors = [r for i, r in enumerate(outcome.results) if i != 2]
        assert survivors == expected
        respawns = [e for e in outcome.events if e.action == "respawn"]
        assert respawns, "a dead worker must force a pool respawn"

    def test_transient_worker_death_recovers_with_retry(self, tmp_path):
        cells = _parity_cells([1]) + [
            GridCell(
                "repro.faults.gridfaults:poison_once_cell",
                {"scratch": str(tmp_path), "key": "once", "value": "second-try"},
            )
        ]
        policy = GridPolicy(retries=1, backoff_initial_s=0.01)
        outcome = run_cells(cells, jobs=2, policy=policy)
        assert outcome.complete
        assert outcome.results == [1, "second-try"]
        assert outcome.degraded  # the recovery is documented, not silent

    def test_hung_cell_times_out_and_innocents_survive(self):
        cells = _parity_cells([1, 2]) + [
            GridCell("repro.faults.gridfaults:hang_cell", {"seconds": 3600.0})
        ]
        policy = GridPolicy(cell_timeout_s=1.5)
        outcome = run_cells(cells, jobs=2, policy=policy)
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.failures[0].reason == "timeout"
        assert outcome.results[:2] == _direct(_parity_cells([1, 2]))
        assert any(e.action == "timeout" for e in outcome.events)
